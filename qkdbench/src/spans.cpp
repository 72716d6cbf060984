#include "spans.hpp"

#include <fstream>
#include <string_view>
#include <unordered_map>

#include "harness.hpp"
#include "src/obs/export.hpp"

namespace qkdbench {

SpanRecorder::SpanRecorder() { tracer_.set_enabled(true); }

void SpanRecorder::set_sim_time_source(std::function<qkd::SimTime()> source) {
  tracer_.set_sim_time_source(std::move(source));
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const std::string& name)
    : recorder_(recorder), active_(recorder.tracer_.enabled()) {
  if (!active_) return;
  const qkd::obs::TraceContext parent =
      recorder.open_.empty() ? qkd::obs::TraceContext{} : recorder.open_.back();
  handle_ = recorder.tracer_.start_span(name, parent);
  recorder.open_.push_back(handle_.context);
}

SpanRecorder::Scope::~Scope() {
  if (!active_) return;
  recorder_.tracer_.end_span(handle_);
  recorder_.open_.pop_back();
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  const std::vector<qkd::obs::Span> spans = tracer_.spans();
  std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
  for (const auto& span : spans)
    if (span.parent_span != 0)
      child_ns[span.parent_span] += span.wall_end_ns - span.wall_start_ns;
  std::map<std::string, double> self;
  for (const auto& span : spans) {
    const std::uint64_t total = span.wall_end_ns - span.wall_start_ns;
    const auto children = child_ns.find(span.span_id);
    const std::uint64_t nested = children == child_ns.end() ? 0 : children->second;
    self[span.name] += 1e-9 * static_cast<double>(total - nested);
  }
  return self;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  out << qkd::obs::chrome_trace_json(tracer_);
  return static_cast<bool>(out);
}

void write_trace(const SpanRecorder& recorder, const Options& options) {
  const std::string path = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  check(recorder.write_chrome_json(path), "could not write " + path);
}

std::string stage_span_name(const char* stage) {
  return std::string("qkd.") + stage;
}

std::vector<std::string> default_stage_names() {
  std::vector<std::string> names;
  for (const auto& stage : qkd::proto::default_pipeline())
    names.emplace_back(stage->name());
  return names;
}

namespace {

class TracedStage final : public qkd::proto::PipelineStage {
 public:
  TracedStage(std::unique_ptr<qkd::proto::PipelineStage> inner,
              SpanRecorder& recorder, double& disclosed_bits)
      : inner_(std::move(inner)),
        recorder_(recorder),
        disclosed_bits_(disclosed_bits),
        span_name_(stage_span_name(inner_->name())),
        is_ec_(std::string_view(inner_->name()) == "error-correction") {}

  const char* name() const override { return inner_->name(); }

  qkd::proto::AbortReason run(qkd::proto::BatchContext& ctx) override {
    qkd::proto::AbortReason reason;
    {
      SpanRecorder::Scope span(recorder_, span_name_);
      reason = inner_->run(ctx);
    }
    if (is_ec_)
      disclosed_bits_ += static_cast<double>(ctx.result.disclosed_bits);
    return reason;
  }

 private:
  std::unique_ptr<qkd::proto::PipelineStage> inner_;
  SpanRecorder& recorder_;
  double& disclosed_bits_;
  std::string span_name_;
  bool is_ec_;
};

}  // namespace

void install_traced_pipeline(qkd::proto::QkdLinkSession& session,
                             SpanRecorder& recorder, double& disclosed_bits) {
  std::vector<std::unique_ptr<qkd::proto::PipelineStage>> traced;
  for (auto& stage : qkd::proto::default_pipeline())
    traced.push_back(std::make_unique<TracedStage>(std::move(stage), recorder,
                                                   disclosed_bits));
  session.set_pipeline(std::move(traced));
}

}  // namespace qkdbench
