// Scenario corpus — wire stories. The classical channel misbehaving under
// a live protocol: a latency spike landing mid-distillation (the lockstep
// Cascade dialogue stalls but completes, and the timeline shows the slower
// cadence), and message loss during a KMS get_key_with_id claim (the wire
// adapters' retransmit-idempotent dialogue fulfills the claim exactly
// once, and the claim-TTL ledger still expires what nobody claims).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/kms/wire_service.hpp"
#include "src/net/channel_transport.hpp"
#include "src/network/key_service.hpp"
#include "src/sim/scenario.hpp"

namespace qkd {
namespace {

using network::MeshSimulation;
using network::NodeId;
using network::Topology;
using namespace qkd::sim;

/// One engine-backed a-b link: the only mesh flavor with a real classical
/// channel for ClassicalImpairment to degrade.
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

TEST(CorpusWire, LatencySpikeMidCascadeStallsTheDialogueThenRecovers) {
  // The story: distillation hums along, an operator reroutes the control
  // network at t=6s and every classical frame suddenly pays 2 ms one way
  // — right through the chattiest stage, Cascade's parity ping-pong, whose
  // ~thousand lockstep messages turn that into seconds of stall per batch.
  // At t=14s the spike clears. The link must keep completing batches
  // through the whole episode (stall, never deadlock), and the spike
  // window must visibly depress the batch cadence the self-pacing
  // timeline records.
  constexpr std::uint64_t kSeed = 29;
  MeshSimulation clean_mesh = engine_pair(kSeed);
  ScenarioRunner clean_runner{Scenario{}};
  clean_runner.attach_mesh(clean_mesh);
  clean_runner.run(20 * kSecond);
  const auto& clean = clean_mesh.key_service()->session(0).totals();
  ASSERT_GT(clean.batches, 10u);

  MeshSimulation mesh = engine_pair(kSeed);
  Scenario story;
  story.at(6 * kSecond, ClassicalImpairment{0, 2 * kMillisecond, 0.0, 0.0})
      .at(14 * kSecond, ClassicalImpairment{0});  // spike clears
  ScenarioRunner runner(std::move(story));
  runner.attach_mesh(mesh);
  runner.run(20 * kSecond);

  const auto& totals = mesh.key_service()->session(0).totals();
  // Stalled, not stalled-out: fewer Qframes fit the same horizon, but
  // batches kept completing and key kept landing in the pool.
  EXPECT_LT(totals.batches, clean.batches);
  EXPECT_GT(totals.batches, clean.batches / 2);
  EXPECT_GT(totals.accepted_batches, 0u);
  EXPECT_GT(mesh.link_pool_bits(0), 0.0);
  // The stall the dialogue paid is on the books: latency x messages of
  // wall-clock per spiked batch, so the mean batch got slower even though
  // fewer batches ran.
  EXPECT_GT(totals.duration_s / static_cast<double>(totals.batches),
            clean.duration_s / static_cast<double>(clean.batches));
  // The spike was lifted: the channel ends the day clean.
  const auto& channel = mesh.key_service()->session(0).channel();
  EXPECT_EQ(channel.conditions().latency, 0);
}

/// Client-side transport that pumps the server whenever the client's inbox
/// is drained — the single-threaded stand-in for a server process on the
/// far side of the lossy channel.
class ServedChannel final : public wire::Transport {
 public:
  ServedChannel(net::PublicChannel& channel, kms::KmsWireServer& server)
      : client_side_(channel, net::ChannelTransport::Side::kA),
        server_side_(channel, net::ChannelTransport::Side::kB),
        server_(server) {}

  bool send_frame(const Bytes& frame) override {
    return client_side_.send_frame(frame);
  }

  std::optional<Bytes> recv_frame() override {
    if (auto ready = client_side_.recv_frame()) return ready;
    server_.serve_one(server_side_);
    return client_side_.recv_frame();
  }

 private:
  net::ChannelTransport client_side_;
  net::ChannelTransport server_side_;
  kms::KmsWireServer& server_;
};

TEST(CorpusWire, LossDuringGetKeyWithIdFulfillsOnceAndTtlStillExpires) {
  // The story: alice's gateway draws two keys; bob's gateway claims the
  // first over a classical path losing 30 % of frames — retransmits and
  // the server's duplicate cache must make that claim land exactly once.
  // Nobody ever claims the second key, and the TTL ledger reclaims it on
  // schedule even though the wire stayed noisy the whole time.
  Topology star;
  const NodeId relay = star.add_node("relay", network::NodeKind::kTrustedRelay);
  const NodeId a = star.add_node("a", network::NodeKind::kEndpoint);
  const NodeId b = star.add_node("b", network::NodeKind::kEndpoint);
  qkd::optics::LinkParams optics;
  optics.fiber_km = 1.0;
  optics.pulse_rate_hz = 1e9;
  star.add_link(relay, a, optics);
  star.add_link(relay, b, optics);
  MeshSimulation mesh(std::move(star), 77);
  mesh.step(20.0);  // supply never bounds this story

  qkd::SimClock clock;
  sim::EventScheduler scheduler(clock);
  kms::KeyManagementService::Config config;
  config.claim_ttl = 5 * kSecond;
  kms::KeyManagementService service(mesh, scheduler, config);
  kms::KmsWireServer server(service, scheduler);
  net::PublicChannel channel;
  ServedChannel io(channel, server);
  kms::KmsWireClient client(io);

  const auto alice = client.register_app("alice-gw", 1, 2);
  const auto bob = client.register_app("bob-gw", 2, 1);
  ASSERT_TRUE(alice.has_value());
  ASSERT_TRUE(bob.has_value());

  // The weather turns: 30 % of frames drown, both directions.
  net::ClassicalConditions lossy;
  lossy.loss_prob = 0.3;
  channel.set_conditions(lossy, /*seed=*/2003);

  const auto first = client.get_key(*alice, 256);
  const auto second = client.get_key(*alice, 256);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(first->status, kms::GrantStatus::kGranted);
  ASSERT_EQ(second->status, kms::GrantStatus::kGranted);

  const std::size_t sent_before_claim = client.messages_sent();
  const auto claimed = client.get_key_with_id(*bob, first->key_id);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_TRUE(claimed->bits == first->bits);

  // The loss was real (the dialogue retransmitted its way through)...
  EXPECT_GT(channel.stats().lost, 0u);
  EXPECT_GE(client.messages_sent() - sent_before_claim, 1u);
  // ...yet the claim executed exactly once: retransmitted duplicates were
  // answered from the server's reply cache, not re-run.
  EXPECT_EQ(service.stats().claims_fulfilled, 1u);

  // The unclaimed second key rides the TTL ledger out: past claim_ttl the
  // copy expires, its bits go back into both pools, and a late claim over
  // the still-lossy wire is cleanly refused.
  scheduler.run_until(clock.now() + config.claim_ttl + kSecond);
  const auto late = client.get_key_with_id(*bob, second->key_id);
  EXPECT_FALSE(late.has_value());
  EXPECT_EQ(service.stats().claims_expired, 1u);
  EXPECT_EQ(service.stats().bits_reclaimed, 256u);
  EXPECT_EQ(service.stats().claims_fulfilled, 1u);  // still exactly once
}

}  // namespace
}  // namespace qkd
