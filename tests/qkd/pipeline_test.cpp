// Stage-pipeline decomposition tests: the ordered PipelineStage run behind
// run_batch(), per-stage accounting, determinism, and stage swapping.
#include "src/qkd/pipeline.hpp"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace qkd::proto {
namespace {

QkdLinkConfig fast_config() {
  QkdLinkConfig config;
  config.frame_slots = 1 << 20;
  return config;
}

TEST(Pipeline, DefaultOrderIsTheFig9Stack) {
  QkdLinkSession session(fast_config(), 1);
  const auto& stages = session.pipeline();
  ASSERT_EQ(stages.size(), 7u);
  const char* expected[] = {"sifting",
                            "sampling",
                            "error-correction",
                            "verify",
                            "entropy",
                            "privacy-amplification",
                            "auth-replenish"};
  for (std::size_t i = 0; i < stages.size(); ++i)
    EXPECT_STREQ(stages[i]->name(), expected[i]) << i;
}

TEST(Pipeline, StageStatsCoverTheWholeBatch) {
  QkdLinkSession session(fast_config(), 2);
  const BatchResult batch = session.run_batch();
  ASSERT_TRUE(batch.accepted) << abort_reason_name(batch.reason);
  ASSERT_EQ(batch.stages.size(), 7u);

  // Every control byte of the batch is attributed to exactly one stage.
  std::size_t stage_bytes = 0, stage_messages = 0;
  for (const StageStats& stage : batch.stages) {
    EXPECT_GE(stage.wall_s, 0.0) << stage.name;
    stage_bytes += stage.control_bytes;
    stage_messages += stage.control_messages;
  }
  EXPECT_EQ(stage_bytes, batch.control_bytes);
  EXPECT_EQ(stage_messages, batch.control_messages);

  // The wire-heavy stages are the ones that actually shipped something.
  EXPECT_GT(batch.stages[0].control_messages, 0u);  // sifting: 2 messages
  EXPECT_GT(batch.stages[2].control_bytes, 0u);     // EC parity traffic
  EXPECT_EQ(batch.stages[4].control_bytes, 0u);     // entropy: local math only
}

TEST(Pipeline, AbortRecordsOnlyExecutedStages) {
  // Full interception (~31 % QBER) trips the sampled alarm inside
  // SamplingStage: the pipeline must stop there, leaving exactly the
  // stages that ran. The gate is set at 0.15 so the small-sample estimate
  // cannot wander above it.
  QkdLinkConfig config = fast_config();
  config.early_abort_qber = 0.15;
  QkdLinkSession session(config, 5);
  qkd::optics::InterceptResendAttack eve(1.0);
  const BatchResult batch = session.run_batch(&eve);
  ASSERT_FALSE(batch.accepted);
  EXPECT_EQ(batch.reason, AbortReason::kQberTooHigh);
  ASSERT_EQ(batch.stages.size(), 2u);
  EXPECT_EQ(batch.stages.back().name, "sampling");
}

TEST(Pipeline, SameSeedSameKeyStreamAcrossSessions) {
  // The pipeline decomposition must not perturb determinism: identical
  // config and seed give bit-identical key streams batch by batch.
  QkdLinkSession left(fast_config(), 11);
  QkdLinkSession right(fast_config(), 11);
  for (int i = 0; i < 3; ++i) {
    const BatchResult a = left.run_batch();
    const BatchResult b = right.run_batch();
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_TRUE(a.key == b.key) << "batch " << i;
  }
  EXPECT_EQ(left.totals().distilled_bits, right.totals().distilled_bits);
}

TEST(Pipeline, SamplingDrawsExactlyTheConfiguredFraction) {
  // A 60 % sample is the degenerate case for the old rejection loop (it
  // re-drew already-chosen positions more often than not); the
  // Fisher-Yates draw is O(n) and hits the target exactly.
  QkdLinkConfig config = fast_config();
  config.sample_fraction = 0.6;
  QkdLinkSession session(config, 3);
  const BatchResult batch = session.run_batch();
  ASSERT_GT(batch.sifted_bits, 0u);
  EXPECT_EQ(batch.sampled_bits,
            static_cast<std::size_t>(0.6 * static_cast<double>(
                                               batch.sifted_bits)));
}

/// A do-nothing observer stage, to prove the pipeline is composable.
class TapStage final : public PipelineStage {
 public:
  explicit TapStage(int& counter) : counter_(counter) {}
  const char* name() const override { return "tap"; }
  AbortReason run(BatchContext& ctx) override {
    ++counter_;
    EXPECT_GT(ctx.frame.bob.detected.size(), 0u);
    return AbortReason::kNone;
  }

 private:
  int& counter_;
};

TEST(Pipeline, StagesCanBeSwappedAndInstrumented) {
  QkdLinkSession session(fast_config(), 4);
  int taps = 0;
  auto stages = default_pipeline();
  stages.insert(stages.begin(), std::make_unique<TapStage>(taps));
  session.set_pipeline(std::move(stages));

  const BatchResult batch = session.run_batch();
  ASSERT_TRUE(batch.accepted) << abort_reason_name(batch.reason);
  EXPECT_EQ(taps, 1);
  ASSERT_EQ(batch.stages.size(), 8u);
  EXPECT_EQ(batch.stages.front().name, "tap");
  EXPECT_EQ(batch.stages.front().control_bytes, 0u);
}

TEST(Pipeline, QframeIsATimedTracedChildOfTheBatch) {
  QkdLinkConfig config;
  config.frame_slots = 1 << 16;
  QkdLinkSession session(config, 4);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  obs::MetricsRegistry registry;
  session.set_tracer(&tracer);
  session.bind_metrics(registry, "link");
  const BatchResult batch = session.run_batch();
  EXPECT_GT(batch.qframe_wall_s, 0.0);
  ASSERT_FALSE(batch.stages.empty());
  EXPECT_EQ(batch.stages.front().name, "sifting");  // the frame is no stage

  const std::vector<obs::Span> spans = tracer.spans();
  const obs::Span* root = nullptr;
  const obs::Span* qframe = nullptr;
  for (const obs::Span& span : spans) {
    if (span.name == "qkd.batch") root = &span;
    if (span.name == "qkd.qframe") qframe = &span;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(qframe, nullptr);
  EXPECT_EQ(qframe->parent_span, root->span_id);
  EXPECT_EQ(qframe->trace_id, root->trace_id);
  EXPECT_GE(qframe->wall_start_ns, root->wall_start_ns);
  // The frame runs before the first stage opens.
  for (const obs::Span& span : spans) {
    if (span.name == "qkd.sifting") {
      EXPECT_EQ(span.parent_span, root->span_id);
      EXPECT_LE(qframe->wall_end_ns, span.wall_start_ns);
    }
  }

  double qframe_us = -1.0;
  for (const obs::MetricSample& sample : registry.snapshot())
    if (sample.name == "link_qframe_wall_us") qframe_us = sample.value;
  EXPECT_EQ(qframe_us,
            static_cast<double>(
                static_cast<std::uint64_t>(batch.qframe_wall_s * 1e6)));
}

TEST(Pipeline, FramesReplayedFromThePreviousQframeAreRejected) {
  // Eve records batch 0's frames and plays them back in batch 1 in place
  // of the live ones, once each: Bob's sift announcement, Alice's first
  // sample reveal and her transcript tag. Each replay names batch 0, so
  // the receiver refuses it and the retransmitted live frame goes through.
  QkdLinkSession session(fast_config(), 5);
  const wire::PacketType replayed[] = {wire::PacketType::kSiftAnnounce,
                                       wire::PacketType::kSampleReveal,
                                       wire::PacketType::kTranscriptTag};
  std::map<wire::PacketType, Bytes> recorded;
  std::size_t batch_index = 0;
  std::size_t replays = 0;
  session.channel().set_impairment(
      [&](const Bytes& message, bool) -> std::optional<Bytes> {
        const auto frame = wire::decode_frame(message);
        if (!frame.ok()) return message;
        for (const wire::PacketType type : replayed) {
          if (frame.value.type != type) continue;
          if (batch_index == 0) {
            recorded.emplace(type, message);
          } else if (const auto it = recorded.find(type);
                     it != recorded.end()) {
            const Bytes old = it->second;
            recorded.erase(it);
            ++replays;
            return old;
          }
        }
        return message;
      });
  const BatchResult first = session.run_batch();
  ASSERT_TRUE(first.accepted);
  batch_index = 1;
  const BatchResult second = session.run_batch();
  EXPECT_EQ(replays, 3u);
  ASSERT_TRUE(second.accepted) << abort_reason_name(second.reason);
  EXPECT_FALSE(second.key == first.key);
  // Each refused replay cost one retransmission.
  QkdLinkSession clean(fast_config(), 5);
  clean.run_batch();
  EXPECT_EQ(second.control_messages, clean.run_batch().control_messages + 3);
}

TEST(Pipeline, AReplayedMessageWithoutAFrameIdFailsTheTags) {
  // A message that names no batch (here: batch 0's error-correction
  // summary, replayed in batch 1) is accepted, but it is not what Bob
  // said, so the two transcripts differ and no key is released.
  QkdLinkSession session(fast_config(), 6);
  std::optional<Bytes> recorded;
  bool replayed = false;
  std::size_t batch_index = 0;
  session.channel().set_impairment(
      [&](const Bytes& message, bool) -> std::optional<Bytes> {
        const auto frame = wire::decode_frame(message);
        if (!frame.ok() || frame.value.type != wire::PacketType::kEcSummary)
          return message;
        if (batch_index == 0) recorded = message;
        if (batch_index == 1 && !replayed) {
          replayed = true;
          return *recorded;
        }
        return message;
      });
  ASSERT_TRUE(session.run_batch().accepted);
  batch_index = 1;
  const BatchResult batch = session.run_batch();
  ASSERT_TRUE(replayed);
  ASSERT_NE(wire::decode_frame(*recorded).value.payload,
            wire::EcSummary{}.encode());
  EXPECT_FALSE(batch.accepted);
  EXPECT_TRUE(batch.key.empty());
}

TEST(Pipeline, EveryAbortReasonAndThePadsAreExported) {
  QkdLinkConfig config = fast_config();
  config.preposition_extra_bits = 0;
  config.auth_replenish_bits = 0;
  QkdLinkSession session(config, 7);
  obs::MetricsRegistry registry;
  session.bind_metrics(registry, "link");
  session.run_batch();  // spends the only tags
  session.run_batch();  // refused: auth-exhausted
  std::map<std::string, double> values;
  for (const obs::MetricSample& sample : registry.snapshot())
    values[sample.name] = sample.value;
  for (std::size_t r = 1; r < kAbortReasonCount; ++r) {
    const auto reason = static_cast<AbortReason>(r);
    const std::string name =
        std::string("link_aborted{reason=\"") + abort_reason_name(reason) + "\"}";
    ASSERT_EQ(values.count(name), 1u) << name;
    EXPECT_EQ(values[name], static_cast<double>(session.totals().aborted(reason)))
        << name;
  }
  EXPECT_EQ(values["link_aborted{reason=\"auth-exhausted\"}"], 1.0);
  EXPECT_EQ(values["link_auth_pad_bits"],
            static_cast<double>(session.auth_pad_bits()));
  // The one accepted batch spent a tag each way and replenished nothing.
  EXPECT_EQ(values["link_auth_pad_net_bits_per_accepted"], -64.0);
}

}  // namespace
}  // namespace qkd::proto
