// Single-sided peers over a real byte-moving transport. The strongest
// claim under test: the two-process dialogue is the SAME protocol as the
// in-process pipeline — same DRBG draws, same frames, same bytes — so for
// one (config, seed) the peer-distilled key must be bit-identical to the
// QkdLinkSession key. Tier-1 runs the peers on two threads over a
// localhost TCP socket; the fork-per-endpoint variant lives in
// tests/integration/.
#include "src/qkd/peer.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "src/qkd/engine.hpp"
#include "src/wire/transport.hpp"

namespace qkd::proto {
namespace {

constexpr std::uint64_t kSeed = 20030825;

// The default Qframe (2^20 slots) distills ~1500 sifted bits and accepts
// reliably; smaller frames starve the entropy margin and flake on verify.
QkdLinkConfig small_config() { return QkdLinkConfig{}; }

struct PeerRun {
  PeerOutcome alice;
  PeerOutcome bob;
};

/// One batch over localhost TCP, Alice accepting, Bob connecting.
PeerRun run_peers_once(const QkdLinkConfig& config, std::uint64_t seed) {
  wire::TcpListener listener(0);
  PeerRun run;

  std::thread bob_thread([&run, &config, seed, port = listener.port()] {
    BobPeer bob(config, seed);
    auto io = wire::tcp_connect(port);
    ASSERT_NE(io, nullptr);
    io->set_recv_timeout_ms(30000);
    run.bob = bob.run_batch(*io);
  });

  AlicePeer alice(config, seed);
  auto io = listener.accept_transport();
  if (io != nullptr) {
    io->set_recv_timeout_ms(30000);
    run.alice = alice.run_batch(*io);
  }
  bob_thread.join();
  EXPECT_NE(io, nullptr);
  return run;
}

TEST(Peers, DistillByteIdenticalKeysOverTcp) {
  const PeerRun run = run_peers_once(small_config(), kSeed);

  ASSERT_TRUE(run.alice.accepted) << "reason " << static_cast<int>(run.alice.reason);
  ASSERT_TRUE(run.bob.accepted) << "reason " << static_cast<int>(run.bob.reason);

  // The acceptance bar: byte-identical key on both sides of the wire.
  ASSERT_GT(run.alice.key.size(), 0u);
  EXPECT_EQ(run.alice.key, run.bob.key);
  EXPECT_EQ(run.alice.key.to_bytes(), run.bob.key.to_bytes());

  EXPECT_EQ(run.alice.sifted_bits, run.bob.sifted_bits);
  EXPECT_EQ(run.alice.frame_id, run.bob.frame_id);
  EXPECT_DOUBLE_EQ(run.alice.qber_sampled, run.bob.qber_sampled);
  EXPECT_GT(run.alice.control_messages, 0u);
  EXPECT_GT(run.bob.control_messages, 0u);
  EXPECT_GT(run.alice.control_bytes, 0u);
}

TEST(Peers, MatchTheInProcessPipelineBitForBit) {
  const QkdLinkConfig config = small_config();
  const PeerRun run = run_peers_once(config, kSeed);
  ASSERT_TRUE(run.alice.accepted);

  // Same config, same seed, in one process: the pipeline must land on the
  // exact same distilled block — the wire moved the protocol, not the
  // randomness.
  QkdLinkSession session(config, kSeed);
  const BatchResult batch = session.run_batch();
  ASSERT_TRUE(batch.accepted);
  EXPECT_EQ(batch.key, run.alice.key);
  EXPECT_EQ(batch.sifted_bits, run.alice.sifted_bits);
  EXPECT_EQ(batch.errors_corrected, run.alice.errors_corrected);
  EXPECT_DOUBLE_EQ(batch.qber_sampled, run.alice.qber_sampled);
}

TEST(Peers, ConsecutiveBatchesKeepDistilling) {
  const QkdLinkConfig config = small_config();
  wire::TcpListener listener(0);
  PeerOutcome bob_first, bob_second;

  std::thread bob_thread([&, port = listener.port()] {
    BobPeer bob(config, kSeed);
    auto io = wire::tcp_connect(port);
    ASSERT_NE(io, nullptr);
    io->set_recv_timeout_ms(30000);
    bob_first = bob.run_batch(*io);
    bob_second = bob.run_batch(*io);
  });

  AlicePeer alice(config, kSeed);
  auto io = listener.accept_transport();
  ASSERT_NE(io, nullptr);
  io->set_recv_timeout_ms(30000);
  const PeerOutcome alice_first = alice.run_batch(*io);
  const PeerOutcome alice_second = alice.run_batch(*io);
  bob_thread.join();

  ASSERT_TRUE(alice_first.accepted);
  ASSERT_TRUE(alice_second.accepted);
  EXPECT_EQ(alice_first.key, bob_first.key);
  EXPECT_EQ(alice_second.key, bob_second.key);
  // Fresh entropy per frame: consecutive batches never repeat a key.
  EXPECT_FALSE(alice_first.key == alice_second.key);
  EXPECT_EQ(alice_second.frame_id, 1u);
}

/// Each side's outcome of `batches` consecutive batches over one localhost
/// TCP connection, and how long each side's run_batch calls took in all.
struct PeerSeries {
  std::vector<PeerOutcome> alice;
  std::vector<PeerOutcome> bob;
  double alice_s = 0.0;
  double bob_s = 0.0;
};

PeerSeries run_peer_series(const QkdLinkConfig& config, std::uint64_t seed,
                           std::size_t batches, int recv_timeout_ms) {
  using Clock = std::chrono::steady_clock;
  wire::TcpListener listener(0);
  PeerSeries series;

  std::thread bob_thread([&, port = listener.port()] {
    BobPeer bob(config, seed);
    auto io = wire::tcp_connect(port);
    ASSERT_NE(io, nullptr);
    io->set_recv_timeout_ms(recv_timeout_ms);
    for (std::size_t i = 0; i < batches; ++i) {
      const auto start = Clock::now();
      series.bob.push_back(bob.run_batch(*io));
      series.bob_s +=
          std::chrono::duration<double>(Clock::now() - start).count();
    }
  });

  AlicePeer alice(config, seed);
  auto io = listener.accept_transport();
  if (io != nullptr) {
    io->set_recv_timeout_ms(recv_timeout_ms);
    for (std::size_t i = 0; i < batches; ++i) {
      const auto start = Clock::now();
      series.alice.push_back(alice.run_batch(*io));
      series.alice_s +=
          std::chrono::duration<double>(Clock::now() - start).count();
    }
  }
  bob_thread.join();
  EXPECT_NE(io, nullptr);
  return series;
}

TEST(Peers, ZeroRunwayAbortsBothSidesAtOnce) {
  // With no pad beyond the structural minimum, Alice cannot protect her
  // sample reveal. She announces it; Bob must learn the same reason from
  // her notice, not from his receive timeout.
  QkdLinkConfig config;
  config.frame_slots = 1 << 16;
  config.preposition_extra_bits = 0;
  constexpr int kTimeoutMs = 10000;
  const PeerSeries series = run_peer_series(config, kSeed, 1, kTimeoutMs);
  ASSERT_EQ(series.alice.size(), 1u);
  ASSERT_EQ(series.bob.size(), 1u);
  EXPECT_EQ(series.alice[0].reason, AbortReason::kAuthExhausted);
  EXPECT_EQ(series.bob[0].reason, AbortReason::kAuthExhausted);
  EXPECT_LT(series.alice_s, 0.5 * kTimeoutMs / 1000.0);
  EXPECT_LT(series.bob_s, 0.5 * kTimeoutMs / 1000.0);

  QkdLinkSession session(config, kSeed);
  EXPECT_EQ(session.run_batch().reason, AbortReason::kAuthExhausted);
}

TEST(Peers, MatchTheSessionBatchByBatchThroughPadExhaustion) {
  // A short pad runway runs out within the first few Qframes, mid-batch
  // as well as at its start. Each side spends pad on exactly the messages
  // it sends in-process, so batch by batch the peers and the session must
  // reach the same verdict, and the same key whenever they accept.
  QkdLinkConfig config;
  config.preposition_extra_bits = 256;
  constexpr std::size_t kBatches = 8;
  const PeerSeries series = run_peer_series(config, kSeed, kBatches, 10000);
  ASSERT_EQ(series.alice.size(), kBatches);
  ASSERT_EQ(series.bob.size(), kBatches);

  QkdLinkSession session(config, kSeed);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kBatches; ++i) {
    SCOPED_TRACE(i);
    const BatchResult batch = session.run_batch();
    EXPECT_EQ(series.alice[i].reason, batch.reason);
    EXPECT_EQ(series.bob[i].reason, batch.reason);
    if (!batch.accepted) continue;
    ++accepted;
    EXPECT_TRUE(series.alice[i].accepted);
    EXPECT_TRUE(series.bob[i].accepted);
    EXPECT_EQ(series.alice[i].key, batch.key);
    EXPECT_EQ(series.bob[i].key, batch.key);
  }
  // The runway covers the first batches and is gone by the last.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(session.totals().aborted(AbortReason::kAuthExhausted), 0u);
}

TEST(Peers, DeadWireSurfacesAsChannelLostNotHang) {
  wire::TcpListener listener(0);
  std::unique_ptr<wire::TcpTransport> client;
  std::thread connector([&client, port = listener.port()] {
    client = wire::tcp_connect(port);
  });
  auto server = listener.accept_transport();
  connector.join();
  ASSERT_NE(client, nullptr);

  // Bob connects but Alice never speaks, then hangs up.
  client->set_recv_timeout_ms(100);
  server.reset();

  BobPeer bob(small_config(), kSeed);
  const PeerOutcome outcome = bob.run_batch(*client);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason, AbortReason::kChannelLost);
}

}  // namespace
}  // namespace qkd::proto
