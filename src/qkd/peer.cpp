#include "src/qkd/peer.hpp"

#include <optional>

#include "src/qkd/dialogue.hpp"
#include "src/qkd/privacy.hpp"
#include "src/qkd/sifting.hpp"
#include "src/qkd/wire_link.hpp"

namespace qkd::proto {
namespace {

/// One side's view of the conversation: its transport, its authentication
/// service, and the outcome being accounted into.
struct PeerIo {
  wire::Transport& io;
  AuthenticationService& auth;
  PeerOutcome& out;
};

bool send_counted(PeerIo& p, const Bytes& framed) {
  ++p.out.control_messages;
  p.out.control_bytes += framed.size();
  return p.io.send_frame(framed);
}

std::optional<wire::Frame> recv_decoded(wire::Transport& io) {
  const auto raw = io.recv_frame();
  if (!raw.has_value()) return std::nullopt;
  const auto frame = wire::decode_frame(*raw);
  if (!frame.ok()) return std::nullopt;
  return frame.value;
}

/// The reason a bare kAbort frame carries (kChannelLost if malformed).
AbortReason notice_reason(const wire::Frame& frame) {
  const auto notice = wire::AbortPacket::decode(frame.payload);
  if (!notice.ok() || notice.value.reason >= kAbortReasonCount)
    return AbortReason::kChannelLost;
  return static_cast<AbortReason>(notice.value.reason);
}

/// Ends the batch with `reason` and tells the peer with one bare kAbort
/// frame (the convention the in-process engine follows).
PeerOutcome announce_abort(PeerIo& p, AbortReason reason) {
  wire::AbortPacket notice;
  notice.reason = static_cast<std::uint8_t>(reason);
  send_counted(p, wire::to_frame(notice));
  p.out.reason = reason;
  return p.out;
}

/// Bob's end of a verdict both sides reached from shared data: Alice
/// announces it, and Bob consumes her notice (uncounted — she sent it).
PeerOutcome await_abort(PeerIo& p, AbortReason reason) {
  const auto frame = recv_decoded(p.io);
  if (frame.has_value() && frame->type == wire::PacketType::kAbort)
    reason = notice_reason(*frame);
  p.out.reason = reason;
  return p.out;
}

/// Protects and sends one packet. False ends the batch: no pad was left
/// (announced to the peer) or the wire is gone.
template <typename Packet>
bool send_auth(PeerIo& p, const Packet& packet) {
  const auto protected_payload = p.auth.protect(packet.encode());
  if (!protected_payload.has_value()) {
    announce_abort(p, AbortReason::kAuthExhausted);
    return false;
  }
  if (send_counted(p, wire::encode_frame(Packet::kType, *protected_payload)))
    return true;
  p.out.reason = AbortReason::kChannelLost;
  return false;
}

/// Takes a received frame as an authenticated Packet. nullopt ends the
/// batch: the peer's abort notice carries the peer's reason; anything else
/// (wrong type, bad tag, malformed) is announced as kChannelLost.
template <typename Packet>
std::optional<Packet> accept_auth(PeerIo& p, const wire::Frame& frame) {
  if (frame.type == wire::PacketType::kAbort) {
    p.out.reason = notice_reason(frame);
    return std::nullopt;
  }
  if (frame.type == Packet::kType) {
    if (const auto payload = p.auth.verify(frame.payload)) {
      auto packet = Packet::decode(*payload);
      if (packet.ok()) return std::move(packet.value);
    }
  }
  announce_abort(p, AbortReason::kChannelLost);
  return std::nullopt;
}

template <typename Packet>
std::optional<Packet> recv_auth(PeerIo& p) {
  const auto frame = recv_decoded(p.io);
  if (frame.has_value()) return accept_auth<Packet>(p, *frame);
  announce_abort(p, AbortReason::kChannelLost);
  return std::nullopt;
}

}  // namespace

AlicePeer::AlicePeer(QkdLinkConfig config, std::uint64_t seed)
    : config_(config),
      link_(config.link, seed),
      self_(config, seed, /*is_alice=*/true) {}

AlicePeer::~AlicePeer() = default;

PeerOutcome AlicePeer::run_batch(wire::Transport& io) {
  PeerOutcome out;
  out.frame_id = next_frame_id_++;
  PeerIo p{io, self_.auth, out};
  DialogueSide side{config_, self_.drbg, self_.auth, out.frame_id};
  AbortReason reason = AbortReason::kNone;

  // ---- Quantum channel (simulated here, fed to Bob; uncounted). -----------
  const auto frame = link_.run_frame(config_.frame_slots, nullptr);
  wire::QframeFeed feed;
  feed.frame_id = out.frame_id;
  feed.detected = frame.bob.detected;
  feed.bases = frame.bob.bases;
  feed.bits = frame.bob.bits;
  if (!io.send_frame(wire::to_frame(feed)))
    return announce_abort(p, AbortReason::kChannelLost);

  // ---- Sifting: Bob announces, Alice decides. -----------------------------
  const auto announce = recv_auth<wire::SiftAnnounce>(p);
  if (!announce.has_value()) return out;
  AliceSiftResult sifted = alice_sift(frame.alice, *announce);
  if (!send_auth(p, sifted.decision)) return out;
  reason = keep_sifted(side, std::move(sifted.outcome.bits));
  out.sifted_bits = side.bits.size();
  if (reason != AbortReason::kNone) return announce_abort(p, reason);

  // ---- Sampling: Alice reveals first. -------------------------------------
  if (const auto mine = reveal_sample(side)) {
    if (!send_auth(p, *mine)) return out;
    const auto theirs = recv_auth<wire::SampleReveal>(p);
    if (!theirs.has_value()) return out;
    reason = judge_sample(side, *mine, *theirs);
    out.qber_sampled = side.qber_sampled;
    if (reason != AbortReason::kNone) return announce_abort(p, reason);
  }

  // ---- Error correction: answer Bob's parity dialogue until his summary. -
  skip_corrector_seed(side);
  WireParityServer server(side.bits);
  std::optional<wire::EcSummary> summary;
  for (;;) {
    const auto ec_frame = recv_decoded(io);
    if (!ec_frame.has_value()) {
      announce_abort(p, AbortReason::kChannelLost);
      break;
    }
    if (ec_frame->type == wire::PacketType::kParityRequest) {
      server.serve_frame(io, *ec_frame);
      continue;
    }
    summary = accept_auth<wire::EcSummary>(p, *ec_frame);
    break;
  }
  out.control_messages += server.traffic().messages;
  out.control_bytes += server.traffic().bytes;
  if (!summary.has_value()) return out;
  out.errors_corrected = summary->corrections;
  reason = accept_ec_summary(side, *summary, server.disclosed());
  if (reason != AbortReason::kNone) return announce_abort(p, reason);

  // ---- Verify: Alice's hash first. ----------------------------------------
  const wire::VerifyHash mine_hash = verify_hash(side);
  if (!send_auth(p, mine_hash)) return out;
  const auto theirs_hash = recv_auth<wire::VerifyHash>(p);
  if (!theirs_hash.has_value()) return out;
  reason = judge_verify(side, mine_hash, *theirs_hash);
  if (reason != AbortReason::kNone) return announce_abort(p, reason);

  // ---- Entropy. -----------------------------------------------------------
  reason = estimate_usable_bits(side);
  if (reason != AbortReason::kNone) return announce_abort(p, reason);

  // ---- Privacy amplification: Alice derives and announces. ----------------
  for (const PaChunk& chunk : pa_chunks(side)) {
    const wire::PaParamsPacket params =
        make_pa_params(chunk.bits, chunk.out_bits, side.drbg);
    if (!send_auth(p, params)) return out;
    amplify_chunk(side, chunk, params);
  }

  // ---- Replenish + deliver. -----------------------------------------------
  replenish_pads(side);
  out.key = std::move(side.key);
  out.accepted = true;
  return out;
}

BobPeer::BobPeer(QkdLinkConfig config, std::uint64_t seed)
    : config_(config), self_(config, seed, /*is_alice=*/false) {}

BobPeer::~BobPeer() = default;

PeerOutcome BobPeer::run_batch(wire::Transport& io) {
  PeerOutcome out;
  out.frame_id = next_frame_id_++;
  PeerIo p{io, self_.auth, out};
  DialogueSide side{config_, self_.drbg, self_.auth, out.frame_id};
  AbortReason reason = AbortReason::kNone;

  // ---- Quantum channel: receive this batch's detections. ------------------
  const auto feed_frame = recv_decoded(io);
  if (!feed_frame.has_value() ||
      feed_frame->type != wire::PacketType::kQframeFeed)
    return announce_abort(p, AbortReason::kChannelLost);
  const auto feed = wire::QframeFeed::decode(feed_frame->payload);
  if (!feed.ok()) return announce_abort(p, AbortReason::kChannelLost);
  qkd::optics::DetectionRecord detections;
  detections.detected = feed.value.detected;
  detections.bases = feed.value.bases;
  detections.bits = feed.value.bits;

  // ---- Sifting: Bob announces, then applies Alice's decision. -------------
  const wire::SiftAnnounce announce =
      make_sift_message(out.frame_id, detections);
  if (!send_auth(p, announce)) return out;
  const auto decision = recv_auth<wire::SiftDecision>(p);
  if (!decision.has_value()) return out;
  reason = keep_sifted(
      side, bob_apply_response(detections, announce, *decision).bits);
  out.sifted_bits = side.bits.size();
  if (reason != AbortReason::kNone) return await_abort(p, reason);

  // ---- Sampling: Bob reveals second. --------------------------------------
  if (const auto mine = reveal_sample(side)) {
    const auto theirs = recv_auth<wire::SampleReveal>(p);
    if (!theirs.has_value()) return out;
    if (!send_auth(p, *mine)) return out;
    reason = judge_sample(side, *mine, *theirs);
    out.qber_sampled = side.qber_sampled;
    if (reason != AbortReason::kNone) return await_abort(p, reason);
  }

  // ---- Error correction: drive the corrector over the wire. ---------------
  WireParityClient client(io);
  std::optional<wire::EcSummary> summary;
  try {
    summary = correct_errors(side, client);
  } catch (const ChannelLostError&) {
  }
  out.control_messages += client.traffic().messages;
  out.control_bytes += client.traffic().bytes;
  if (!summary.has_value())
    return announce_abort(p, AbortReason::kChannelLost);
  out.errors_corrected = summary->corrections;
  if (!send_auth(p, *summary)) return out;
  reason = accept_ec_summary(side, *summary, client.queries());
  if (reason != AbortReason::kNone) return await_abort(p, reason);

  // ---- Verify: Alice's hash first. ----------------------------------------
  const auto theirs_hash = recv_auth<wire::VerifyHash>(p);
  if (!theirs_hash.has_value()) return out;
  const wire::VerifyHash mine_hash = verify_hash(side);
  if (!send_auth(p, mine_hash)) return out;
  reason = judge_verify(side, mine_hash, *theirs_hash);
  if (reason != AbortReason::kNone) return await_abort(p, reason);

  // ---- Entropy. -----------------------------------------------------------
  reason = estimate_usable_bits(side);
  if (reason != AbortReason::kNone) return await_abort(p, reason);

  // ---- Privacy amplification: Bob derives and cross-checks. Divergence
  // means the DRBG lockstep or the wire is compromised; Alice no longer
  // listens, so the verdict stays local. ------------------------------------
  for (const PaChunk& chunk : pa_chunks(side)) {
    const wire::PaParamsPacket expected =
        make_pa_params(chunk.bits, chunk.out_bits, side.drbg);
    const auto announced = recv_auth<wire::PaParamsPacket>(p);
    if (!announced.has_value()) return out;
    if (!(*announced == expected)) {
      out.reason = AbortReason::kVerifyFailed;
      return out;
    }
    amplify_chunk(side, chunk, expected);
  }

  // ---- Replenish + deliver. -----------------------------------------------
  replenish_pads(side);
  out.key = std::move(side.key);
  out.accepted = true;
  return out;
}

}  // namespace qkd::proto
