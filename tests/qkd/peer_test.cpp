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
  // With no pad beyond the structural minimum (one tag per direction) and
  // no replenishment, the first batch spends the only tags; Alice refuses
  // the second in place of its Qframe feed, and Bob must learn the same
  // reason from her notice, not from his receive timeout.
  QkdLinkConfig config;
  config.preposition_extra_bits = 0;
  config.auth_replenish_bits = 0;
  constexpr int kTimeoutMs = 10000;
  const PeerSeries series = run_peer_series(config, kSeed, 2, kTimeoutMs);
  ASSERT_EQ(series.alice.size(), 2u);
  ASSERT_EQ(series.bob.size(), 2u);
  EXPECT_TRUE(series.alice[0].accepted);
  EXPECT_TRUE(series.bob[0].accepted);
  EXPECT_EQ(series.alice[1].reason, AbortReason::kAuthExhausted);
  EXPECT_EQ(series.bob[1].reason, AbortReason::kAuthExhausted);
  EXPECT_EQ(series.alice[1].control_messages, 1u);  // the notice
  EXPECT_EQ(series.bob[1].control_messages, 0u);
  EXPECT_LT(series.alice_s, 0.5 * kTimeoutMs / 1000.0);
  EXPECT_LT(series.bob_s, 0.5 * kTimeoutMs / 1000.0);

  QkdLinkSession session(config, kSeed);
  EXPECT_TRUE(session.run_batch().accepted);
  EXPECT_EQ(session.run_batch().reason, AbortReason::kAuthExhausted);
}

TEST(Peers, MatchTheSessionBatchByBatchThroughPadExhaustion) {
  // A short pad runway without replenishment: three tags per direction,
  // so three batches are accepted and every later one is refused at its
  // start. Batch by batch the peers and the session must reach the same
  // verdict, and the same key whenever they accept.
  QkdLinkConfig config;
  config.preposition_extra_bits = 2 * 2 * 32;
  config.auth_replenish_bits = 0;
  constexpr std::size_t kBatches = 5;
  const PeerSeries series = run_peer_series(config, kSeed, kBatches, 10000);
  ASSERT_EQ(series.alice.size(), kBatches);
  ASSERT_EQ(series.bob.size(), kBatches);

  QkdLinkSession session(config, kSeed);
  for (std::size_t i = 0; i < kBatches; ++i) {
    SCOPED_TRACE(i);
    const BatchResult batch = session.run_batch();
    EXPECT_EQ(batch.accepted, i < 3);
    EXPECT_EQ(series.alice[i].reason, batch.reason);
    EXPECT_EQ(series.bob[i].reason, batch.reason);
    if (!batch.accepted) continue;
    EXPECT_TRUE(series.alice[i].accepted);
    EXPECT_TRUE(series.bob[i].accepted);
    EXPECT_EQ(series.alice[i].key, batch.key);
    EXPECT_EQ(series.bob[i].key, batch.key);
  }
  EXPECT_EQ(session.totals().aborted(AbortReason::kAuthExhausted), 2u);
}

/// Passes frames through, except that it flips the low bit of the last
/// payload byte of the first frame of type `target` it sends (a change
/// every dialogue packet still decodes): Eve altering one frame in
/// flight.
class TamperOnce final : public wire::Transport {
 public:
  TamperOnce(wire::Transport& inner, wire::PacketType target)
      : inner_(inner), target_(target) {}

  bool send_frame(const Bytes& frame) override {
    const auto decoded = wire::decode_frame(frame);
    if (!done_ && decoded.ok() && decoded.value.type == target_) {
      done_ = true;
      Bytes payload = decoded.value.payload;
      payload.back() ^= 0x01;
      return inner_.send_frame(wire::encode_frame(target_, payload));
    }
    return inner_.send_frame(frame);
  }
  std::optional<Bytes> recv_frame() override { return inner_.recv_frame(); }
  bool tampered() const { return done_; }

 private:
  wire::Transport& inner_;
  wire::PacketType target_;
  bool done_ = false;
};

/// Two batches over TCP with the first `target` frame the chosen side
/// sends in batch 0 altered in flight.
PeerSeries run_tampered_series(wire::PacketType target, bool alice_sends) {
  const QkdLinkConfig config = small_config();
  wire::TcpListener listener(0);
  PeerSeries series;
  bool tampered = false;
  std::thread bob_thread([&, port = listener.port()] {
    BobPeer bob(config, kSeed);
    auto io = wire::tcp_connect(port);
    ASSERT_NE(io, nullptr);
    io->set_recv_timeout_ms(10000);
    TamperOnce eve(*io, target);
    wire::Transport& wire = alice_sends ? *io : static_cast<wire::Transport&>(eve);
    for (int i = 0; i < 2; ++i) series.bob.push_back(bob.run_batch(wire));
    if (!alice_sends) tampered = eve.tampered();
  });
  AlicePeer alice(config, kSeed);
  auto io = listener.accept_transport();
  if (io != nullptr) {
    io->set_recv_timeout_ms(10000);
    TamperOnce eve(*io, target);
    wire::Transport& wire = alice_sends ? static_cast<wire::Transport&>(eve) : *io;
    for (int i = 0; i < 2; ++i) series.alice.push_back(alice.run_batch(wire));
    if (alice_sends) tampered = eve.tampered();
  }
  bob_thread.join();
  EXPECT_TRUE(tampered);
  return series;
}

TEST(Peers, OneTamperedFrameAbortsBothSidesAndReleasesNoKey) {
  // A sift frame, a parity frame and a PA frame, altered in flight: both
  // sides abort the batch and release no key, and the link carries on
  // with the next batch. The in-process session fails the same batch.
  const std::pair<wire::PacketType, bool> cases[] = {
      {wire::PacketType::kSiftAnnounce, false},
      {wire::PacketType::kSiftDecision, true},
      {wire::PacketType::kParityResponse, true},
      {wire::PacketType::kParityRequest, false},
      {wire::PacketType::kPaParams, true},
  };
  for (const auto& [target, alice_sends] : cases) {
    SCOPED_TRACE(wire::packet_type_name(target));
    const PeerSeries series = run_tampered_series(target, alice_sends);
    ASSERT_EQ(series.alice.size(), 2u);
    ASSERT_EQ(series.bob.size(), 2u);
    EXPECT_FALSE(series.alice[0].accepted);
    EXPECT_FALSE(series.bob[0].accepted);
    EXPECT_NE(series.alice[0].reason, AbortReason::kNone);
    EXPECT_NE(series.bob[0].reason, AbortReason::kNone);
    EXPECT_TRUE(series.alice[0].key.empty());
    EXPECT_TRUE(series.bob[0].key.empty());
    EXPECT_TRUE(series.alice[1].accepted);
    EXPECT_TRUE(series.bob[1].accepted);
    EXPECT_EQ(series.alice[1].key, series.bob[1].key);

    // In one process, the same alteration on the session's channel.
    QkdLinkSession session(small_config(), kSeed);
    bool tampered = false;
    session.channel().set_impairment(
        [&, target = target, to_bob = alice_sends](
            const Bytes& message, bool to_b) -> std::optional<Bytes> {
          const auto frame = wire::decode_frame(message);
          if (tampered || to_b != to_bob || !frame.ok() ||
              frame.value.type != target)
            return message;
          tampered = true;
          Bytes payload = frame.value.payload;
          payload.back() ^= 0x01;
          return wire::encode_frame(target, payload);
        });
    const BatchResult batch = session.run_batch();
    EXPECT_TRUE(tampered);
    EXPECT_FALSE(batch.accepted);
    EXPECT_TRUE(batch.key.empty());
    EXPECT_TRUE(session.run_batch().accepted);
  }
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
