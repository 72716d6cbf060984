// E16: stage-latency decomposition of the distillation pipeline.
//
// Gilbert & Hamrick (quant-ph/0106043) argue the computational load of each
// distillation stage must be measured independently to judge practicality;
// BatchResult::stages makes that a direct readout. The table reports mean
// wall time and wire traffic per stage over accepted batches at the paper's
// operating point, after the optics frame (BatchResult::qframe_wall_s) that
// feeds them; the benchmark kernels track the full-batch latency and export
// the frame's and each stage's mean as counters.
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bench/bench_util.hpp"
#include "src/qkd/engine.hpp"

namespace {

using namespace qkd::proto;

QkdLinkConfig operating_point(std::size_t frame_slots) {
  QkdLinkConfig config;
  config.frame_slots = frame_slots;
  return config;
}

void print_table() {
  qkd::bench::heading("E16",
                      "stage-latency decomposition of one distilled batch");
  QkdLinkSession session(operating_point(1 << 20), 2003);

  std::map<std::string, StageStats> acc;
  std::vector<std::string> order;
  std::size_t batches = 0;
  double qframe_wall_s = 0.0;
  for (int i = 0; i < 6; ++i) {
    const BatchResult batch = session.run_batch();
    if (!batch.accepted) continue;
    ++batches;
    qframe_wall_s += batch.qframe_wall_s;
    for (const StageStats& stage : batch.stages) {
      if (!acc.count(stage.name)) order.push_back(stage.name);
      StageStats& sum = acc[stage.name];
      sum.wall_s += stage.wall_s;
      sum.control_messages += stage.control_messages;
      sum.control_bytes += stage.control_bytes;
    }
  }
  qkd::bench::row("%-24s %12s %10s %12s", "stage", "mean wall us",
                  "msgs", "wire bytes");
  qkd::bench::row("%-24s %12.1f %10s %12s", "(qframe optics)",
                  1e6 * qframe_wall_s / static_cast<double>(batches), "-",
                  "-");
  for (const std::string& name : order) {
    const StageStats& sum = acc[name];
    qkd::bench::row("%-24s %12.1f %10.1f %12.1f", name.c_str(),
                    1e6 * sum.wall_s / static_cast<double>(batches),
                    static_cast<double>(sum.control_messages) /
                        static_cast<double>(batches),
                    static_cast<double>(sum.control_bytes) /
                        static_cast<double>(batches));
  }
  qkd::bench::row("");
  qkd::bench::row("the optics frame (qframe, before the first stage) "
                  "dominates steady-state wall time; the Cascade parity "
                  "conversation dominates message count, sharing the byte "
                  "budget with sifting");
}

/// Full-batch latency with the optics frame's and each stage's mean wall
/// time exported as counters (s_qframe, s_<stage>), so a regression in any
/// one of them is visible without re-deriving the split.
void bm_pipeline_stages(benchmark::State& state) {
  QkdLinkSession session(
      operating_point(static_cast<std::size_t>(state.range(0))), 17);
  std::map<std::string, double> stage_wall;
  std::size_t batches = 0;
  for (auto _ : state) {
    const BatchResult batch = session.run_batch();
    benchmark::DoNotOptimize(batch.distilled_bits);
    ++batches;
    stage_wall["qframe"] += batch.qframe_wall_s;
    for (const StageStats& stage : batch.stages)
      stage_wall[stage.name] += stage.wall_s;
  }
  for (const auto& [name, wall] : stage_wall) {
    std::string label("s_");
    label.append(name);
    state.counters[label] = wall / static_cast<double>(batches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.range(0)) *
                          state.iterations());
}
BENCHMARK(bm_pipeline_stages)->Arg(1 << 18)->Arg(1 << 20);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
