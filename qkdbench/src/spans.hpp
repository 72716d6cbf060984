// The benchmark's own spans, recorded around calls into each layer's
// public functions (never inside the stack): run_batch, every pipeline
// stage through a name-preserving decorator, AlertEngine::evaluate and
// ScenarioRunner::run. Spans live in an obs::Tracer, so the run writes
// them at exit as the same Chrome JSON tools/trace_report.py reads.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "src/obs/trace.hpp"
#include "src/qkd/pipeline.hpp"

namespace qkdbench {

class SpanRecorder {
 public:
  SpanRecorder();

  /// Sim timestamps come from `source` (the workload's timeline).
  void set_sim_time_source(std::function<qkd::SimTime()> source);

  /// While off, scopes record nothing (on from construction).
  void set_recording(bool on) { tracer_.set_enabled(on); }

  /// Opens a span under the innermost open scope; closes on destruction.
  /// Inert while recording is off.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const std::string& name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    qkd::obs::SpanHandle handle_;
    bool active_;
  };

  /// Wall seconds each span name spent outside its child spans.
  std::map<std::string, double> self_seconds() const;

  /// Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  qkd::obs::Tracer tracer_;
  std::vector<qkd::obs::TraceContext> open_;  // innermost last
};

/// Writes `recorder`'s spans to <trace_dir>/<workload>-seed<seed>.json.
void write_trace(const SpanRecorder& recorder, const Options& options);

/// Spans the benchmark opens around the stack's public calls.
inline constexpr const char* kRunBatchSpan = "bench.run_batch";
inline constexpr const char* kScenarioRunSpan = "bench.scenario_run";
inline constexpr const char* kAlertEvaluateSpan = "bench.alert_evaluate";

/// Span name of a pipeline stage: "qkd.<PipelineStage::name()>".
std::string stage_span_name(const char* stage);

/// The seven default stage names, in protocol order.
std::vector<std::string> default_stage_names();

/// Replaces `session`'s pipeline with the same stages, each wrapped in a
/// decorator that keeps the stage's name, runs it inside a span and adds
/// the bits error correction disclosed to `disclosed_bits`.
void install_traced_pipeline(qkd::proto::QkdLinkSession& session,
                             SpanRecorder& recorder, double& disclosed_bits);

}  // namespace qkdbench
