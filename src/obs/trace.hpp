// Request-scoped tracing on the simulation's own timeline.
//
// A Span is one timed operation: sim-time start/end (the timeline the
// whole stack runs on), wall-clock start/end (where host cycles actually
// went — Gilbert & Hamrick's point that computational load bounds key
// rate), a name, and key=value attributes. Spans form trees through
// explicit TraceContext propagation: whoever starts work passes its
// context down (function argument in-process, the version-2 wire-frame
// extension across a Transport), so one KMS get_key issued by a
// KmsWireClient is ONE trace from the client call through server
// admission, DRR selection, mesh hops and the grant.
//
// The Tracer is storage plus an id allocator: `cells` independent span
// buffers, one per worker lane, so parallel writers never share a lock
// (each cell has its own mutex, touched only by its lane plus the reader). Everything checks enabled() first — a null or disabled tracer
// costs one predictable branch, which is what lets the instrumentation
// live permanently inside the hot paths (E21 pins the disabled overhead).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/sim_clock.hpp"

namespace qkd::obs {

/// What propagates: the trace a request belongs to and the span to parent
/// new work under. trace_id == 0 means "no trace" everywhere (the wire
/// codec uses that to decide between a version-1 and a version-2 frame).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  bool valid() const { return trace_id != 0; }
};

/// One finished (or still-open, end == -1) operation.
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;  // 0: a root
  std::string name;
  SimTime sim_start = 0;
  SimTime sim_end = -1;
  std::uint64_t wall_start_ns = 0;  // steady-clock, process epoch
  std::uint64_t wall_end_ns = 0;
  std::size_t cell = 0;  // which shard/lane recorded it
  std::vector<std::pair<std::string, std::string>> attributes;
};

/// Names an open span inside one tracer cell. Invalid handles (from a
/// disabled tracer) are inert: every operation on them is a no-op.
struct SpanHandle {
  std::size_t cell = 0;
  std::size_t index = 0;
  TraceContext context;  // this span's own (trace_id, span_id)

  bool valid() const { return context.valid(); }
};

class Tracer {
 public:
  /// `cells` is the number of span buffers (one per writing lane);
  /// out-of-range cell arguments clamp to the last cell.
  explicit Tracer(std::size_t cells = 1);

  /// Tracing is off until enabled; a disabled tracer records nothing and
  /// hands out invalid handles. Flipping is thread-safe.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Where spans read sim time from (the scheduler's now(), usually).
  /// Without a source, sim timestamps record 0 and only wall time is
  /// meaningful. The source must be safe to call from recording threads.
  void set_sim_time_source(std::function<SimTime()> source);

  /// Mints a fresh trace id for a root request (the client side of a
  /// conversation). Invalid when disabled.
  TraceContext make_root();

  /// Opens a span. A default (invalid) `parent` starts a new trace; a
  /// valid one continues it. Returns an invalid handle when disabled.
  SpanHandle start_span(const std::string& name, TraceContext parent = {},
                        std::size_t cell = 0);
  /// Closes the span at the current sim/wall instant.
  void end_span(const SpanHandle& handle);
  /// Attaches a key=value attribute to an open or finished span.
  void add_attribute(const SpanHandle& handle, const std::string& key,
                     std::string value);
  /// Re-parents an open span (a service round adopts the context of the
  /// first traced request it selected — selection happens after start).
  void set_parent(const SpanHandle& handle, TraceContext parent);

  /// Copies out every recorded span, ordered by (cell, record order).
  /// Takes each cell's mutex; call with recording lanes quiesced for a
  /// consistent snapshot.
  std::vector<Span> spans() const;
  std::size_t span_count() const;
  void clear();

  std::size_t cells() const { return cells_.size(); }

  /// The continuation context for work under `handle`: the span itself
  /// when it is real, otherwise `fallback` — so an untraced middle layer
  /// passes its caller's context through instead of severing the chain.
  static TraceContext child_context(const SpanHandle& handle,
                                    TraceContext fallback = {}) {
    return handle.valid() ? handle.context : fallback;
  }

 private:
  struct Cell {
    mutable std::mutex mu;
    std::vector<Span> spans;
  };

  SimTime sim_now() const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};  // spans and traces share the pool
  std::function<SimTime()> sim_source_;
  std::vector<std::unique_ptr<Cell>> cells_;
};

/// RAII span: opens on construction (when `tracer` is non-null and
/// enabled), closes on destruction. The common instrumentation shape:
///
///   obs::ScopedSpan span(tracer_, "kms.service_round", ctx);
///   ... work ...
///   span.attr("requests", std::to_string(round.size()));
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Tracer* tracer, const std::string& name, TraceContext parent = {},
             std::size_t cell = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) handle_ = tracer_->start_span(name, parent, cell);
    fallback_ = parent;
  }
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early (idempotent).
  void finish() {
    if (tracer_ != nullptr) tracer_->end_span(handle_);
    tracer_ = nullptr;
  }

  void attr(const std::string& key, std::string value) {
    if (tracer_ != nullptr)
      tracer_->add_attribute(handle_, key, std::move(value));
  }
  void reparent(TraceContext parent) {
    if (tracer_ != nullptr) {
      tracer_->set_parent(handle_, parent);
      // The handle's own context follows the span into the adopted trace.
      if (handle_.valid() && parent.valid())
        handle_.context.trace_id = parent.trace_id;
    }
    fallback_ = parent;
  }

  /// Context for child work: this span if recording, else the parent that
  /// was passed in (the chain survives a disabled tracer).
  TraceContext context() const {
    return Tracer::child_context(handle_, fallback_);
  }
  bool recording() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_ = nullptr;
  SpanHandle handle_;
  TraceContext fallback_;
};

}  // namespace qkd::obs
