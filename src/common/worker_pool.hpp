// A persistent worker pool with one blocking primitive: parallel_for.
//
// The pool owns `lanes - 1` threads; the caller is the remaining lane, so
// WorkerPool(1) spawns nothing and parallel_for degenerates to a plain loop
// that visits indices 0..count-1 IN ORDER — the contract the deterministic
// single-thread paths (tier-1 tests, LinkKeyService threads=1) rely on.
// With more lanes, workers claim indices from a shared atomic counter, so
// each index runs exactly once on exactly one lane and parallel_for returns
// only after every index has finished (the join is the synchronization
// barrier callers use to publish results).
//
// LinkKeyService owns one and fans its per-link distillation batches out
// on it, instead of spawning threads per batch. parallel_for is not
// reentrant from inside a task; a nested call from a worker lane runs
// inline on that lane instead of deadlocking.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qkd::common {

class WorkerPool {
 public:
  /// `lanes` counts the caller too: lanes <= 1 means no threads at all.
  explicit WorkerPool(std::size_t lanes);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Concurrent lanes (worker threads + the calling thread); always >= 1.
  std::size_t lanes() const { return threads_.size() + 1; }

  /// min(hardware_concurrency, 8), at least 1 — the historical default of
  /// LinkKeyService's own per-batch thread spawning.
  static std::size_t default_lanes();

  /// Runs task(0) .. task(count-1), each exactly once, across all lanes,
  /// and returns when every index has completed. With one lane the indices
  /// run inline in ascending order. If any task throws, the first captured
  /// exception is rethrown on the caller after the barrier (the remaining
  /// indices still run).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& task);

  // ---- Utilization accounting ----------------------------------------------
  // Per-lane task tallies (relaxed atomics, one cache line each) so a
  // metrics snapshot can see how evenly work spreads across lanes without
  // adding any synchronization to the claim loop. Lane 0 is the caller.
  /// parallel_for jobs dispatched (inline fast-path runs included).
  std::uint64_t jobs_dispatched() const {
    return jobs_.load(std::memory_order_relaxed);
  }
  /// Task indices this lane has executed.
  std::uint64_t lane_tasks(std::size_t lane) const {
    return lane < lane_tasks_.size()
               ? lane_tasks_[lane].v.load(std::memory_order_relaxed)
               : 0;
  }
  /// Task indices executed across all lanes.
  std::uint64_t total_tasks() const;

 private:
  void worker_main(std::size_t lane);
  /// Claims and runs indices of the current job until they run out.
  void run_slice(const std::function<void(std::size_t)>& task,
                 std::size_t count, std::size_t lane);

  struct LaneCounter {
    alignas(64) std::atomic<std::uint64_t> v{0};
  };

  std::vector<std::thread> threads_;
  std::vector<LaneCounter> lane_tasks_;  // sized lanes(); index 0 = caller
  std::atomic<std::uint64_t> jobs_{0};

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Current job, valid while generation_ is ahead of a worker's last-seen
  // value. next_ is the shared index claim counter.
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t count_ = 0;
  std::size_t next_ = 0;
  std::size_t working_ = 0;  // workers still inside the current job
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace qkd::common
