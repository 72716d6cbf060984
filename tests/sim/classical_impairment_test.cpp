// The ClassicalImpairment scenario action: degrading one link's CLASSICAL
// channel (the framed byte stream the distillation dialogue crosses)
// without touching the quantum fiber. Latency stalls the lockstep dialogue
// and lowers the distilled rate; loss inflates the measured control
// traffic through retransmission; an analytic mesh records the action as
// a no-op.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/sim/scenario.hpp"

namespace qkd::sim {
namespace {

using network::MeshSimulation;
using network::NodeId;
using network::Topology;

/// One engine-backed a-b link (the classical channel only exists in engine
/// mode).
MeshSimulation engine_pair(std::uint64_t seed) {
  Topology topo;
  const NodeId a = topo.add_node("a", network::NodeKind::kEndpoint);
  const NodeId b = topo.add_node("b", network::NodeKind::kEndpoint);
  topo.add_link(a, b, {});
  network::LinkKeyService::Config engine;
  // Every distilled bit to the supply; the prepositioned pads then pay
  // one tag each way per accepted batch, a runway of 128 batches.
  engine.proto.auth_replenish_bits = 0;
  engine.threads = 1;
  return MeshSimulation(std::move(topo), seed, engine);
}

std::size_t batches_under(Scenario script, MeshSimulation& mesh,
                          SimTime horizon) {
  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(horizon);
  return mesh.key_service()->session(0).totals().batches;
}

TEST(ClassicalImpairmentScenario, LatencySpikeStallsDistillationNotDeadlock) {
  MeshSimulation baseline_mesh = engine_pair(5);
  const std::size_t baseline = batches_under({}, baseline_mesh, 20 * kSecond);
  ASSERT_GT(baseline, 10u);

  // Same link, but from t=0 every control frame pays 20 ms one way: the
  // lockstep dialogue stalls by latency x messages per batch, so fewer
  // Qframes complete in the same horizon — yet every batch that runs
  // still completes (stall, not deadlock).
  MeshSimulation impaired_mesh = engine_pair(5);
  Scenario script;
  script.at(0, ClassicalImpairment{0, 20 * kMillisecond, 0.0, 0.0});
  const std::size_t impaired =
      batches_under(std::move(script), impaired_mesh, 20 * kSecond);

  EXPECT_GT(impaired, 0u);
  EXPECT_LT(impaired, baseline);
  const auto& totals = impaired_mesh.key_service()->session(0).totals();
  EXPECT_GT(totals.accepted_batches, 0u);
  EXPECT_GT(impaired_mesh.link_pool_bits(0), 0.0);
}

TEST(ClassicalImpairmentScenario, LossInflatesControlTrafficButKeyStillLands) {
  MeshSimulation clean_mesh = engine_pair(9);
  ScenarioRunner clean_runner{Scenario{}};
  clean_runner.attach_mesh(clean_mesh);
  clean_runner.run(10 * kSecond);
  const auto& clean_stats =
      clean_mesh.key_service()->session(0).channel().stats();
  ASSERT_EQ(clean_stats.lost, 0u);
  const std::uint64_t clean_messages =
      clean_stats.messages_ab + clean_stats.messages_ba;

  MeshSimulation lossy_mesh = engine_pair(9);
  Scenario script;
  script.at(0, ClassicalImpairment{0, 0, 0.08, 0.0});
  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(lossy_mesh);
  runner.run(10 * kSecond);

  const auto& lossy_stats =
      lossy_mesh.key_service()->session(0).channel().stats();
  EXPECT_GT(lossy_stats.lost, 0u);
  // Retransmission recovers every lost frame, at the cost of more
  // delivered control messages per distilled bit.
  EXPECT_GT(lossy_stats.messages_ab + lossy_stats.messages_ba,
            clean_messages);
  EXPECT_GT(lossy_mesh.key_service()->session(0).totals().accepted_batches,
            0u);
  EXPECT_GT(lossy_mesh.link_pool_bits(0), 0.0);
}

TEST(ClassicalImpairmentScenario, TwentyPercentLossNeverSplitsTheTranscripts) {
  // One frame in five lost, in both directions: retransmission (and the
  // parity server's answer cache) must leave both sides with the same
  // transcript of every batch, so loss costs traffic, never a failed tag.
  MeshSimulation mesh = engine_pair(21);
  Scenario script;
  script.at(0, ClassicalImpairment{0, 0, 0.2, 0.0});
  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(20 * kSecond);
  const auto& session = mesh.key_service()->session(0);
  EXPECT_GT(session.channel().stats().lost, 1000u);
  EXPECT_GT(session.totals().batches, 15u);
  EXPECT_EQ(session.totals().aborted(qkd::proto::AbortReason::kVerifyFailed),
            0u);
  EXPECT_GE(session.totals().accepted_batches + 1, session.totals().batches);
}

TEST(ClassicalImpairmentScenario, AllZeroActionRestoresACleanChannel) {
  MeshSimulation mesh = engine_pair(13);
  Scenario script;
  script.at(0, ClassicalImpairment{0, 50 * kMillisecond, 0.0, 0.0})
      .at(5 * kSecond, ClassicalImpairment{0});  // lifted
  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(10 * kSecond);

  const auto& channel = mesh.key_service()->session(0).channel();
  EXPECT_EQ(channel.conditions().latency, 0);
  EXPECT_DOUBLE_EQ(channel.conditions().loss_prob, 0.0);
  EXPECT_GT(mesh.key_service()->session(0).totals().batches, 0u);
}

TEST(ClassicalImpairmentScenario, AnalyticMeshRecordsANoOp) {
  // An analytic-rate mesh simulates no classical channel; the action is
  // legal but must announce itself as a no-op on the timeline.
  MeshSimulation mesh(Topology::relay_ring(6), 7);
  Scenario script;
  script.at(kSecond, ClassicalImpairment{0, 10 * kMillisecond, 0.1, 0.1});
  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(2 * kSecond);

  const auto& notes = runner.recorder().notes();
  const bool noted = std::any_of(
      notes.begin(), notes.end(), [](const TimelineNote& note) {
        return note.text.find("no-op: analytic mesh") != std::string::npos;
      });
  EXPECT_TRUE(noted);
}

TEST(ClassicalImpairmentScenario, ActionDescribesItself) {
  const ScenarioAction action =
      ClassicalImpairment{3, 20 * kMillisecond, 0.05, 0.01};
  EXPECT_STREQ(action_name(action), "ClassicalImpairment");
  const std::string text = describe(action);
  EXPECT_NE(text.find("3"), std::string::npos);
  EXPECT_NE(text.find("0.05"), std::string::npos);
}

}  // namespace
}  // namespace qkd::sim
