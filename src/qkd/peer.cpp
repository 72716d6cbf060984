#include "src/qkd/peer.hpp"

#include <optional>

#include "src/qkd/dialogue.hpp"
#include "src/qkd/privacy.hpp"
#include "src/qkd/sifting.hpp"
#include "src/qkd/wire_link.hpp"

namespace qkd::proto {
namespace {

/// One side's view of the conversation: its transport, its state in the
/// batch (whose transcript logs what it sends and accepts), and the
/// outcome being accounted into.
struct PeerIo {
  wire::Transport& io;
  DialogueSide& side;
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

/// Logs and sends one packet. False ends the batch: the wire is gone.
template <typename Packet>
bool send_packet(PeerIo& p, const Packet& packet) {
  const Bytes payload = packet.encode();
  p.side.transcript.log(Packet::kType, payload);
  if (send_counted(p, wire::encode_frame(Packet::kType, payload))) return true;
  p.out.reason = AbortReason::kChannelLost;
  return false;
}

/// Takes a received frame as a Packet of this batch and logs it. nullopt
/// ends the batch: the peer's abort notice carries the peer's reason;
/// anything else (wrong type, malformed, another batch's) is announced as
/// kChannelLost.
template <typename Packet>
std::optional<Packet> accept_packet(PeerIo& p, const wire::Frame& frame) {
  if (frame.type == wire::PacketType::kAbort) {
    p.out.reason = notice_reason(frame);
    return std::nullopt;
  }
  if (frame.type == Packet::kType) {
    auto packet = Packet::decode(frame.payload);
    if (packet.ok() && accepts(p.side, packet.value)) {
      p.side.transcript.log(Packet::kType, frame.payload);
      return std::move(packet.value);
    }
  }
  announce_abort(p, AbortReason::kChannelLost);
  return std::nullopt;
}

template <typename Packet>
std::optional<Packet> recv_packet(PeerIo& p) {
  const auto frame = recv_decoded(p.io);
  if (frame.has_value()) return accept_packet<Packet>(p, *frame);
  announce_abort(p, AbortReason::kChannelLost);
  return std::nullopt;
}

/// Seals this side's transcript and sends the tag. False ends the batch:
/// no pad was left (announced to the peer) or the wire is gone.
bool send_tag(PeerIo& p) {
  const auto tag = seal_transcript(p.side);
  if (!tag.has_value()) {
    announce_abort(p, AbortReason::kAuthExhausted);
    return false;
  }
  return send_packet(p, *tag);
}

/// Receives the peer's tag and checks it against this side's transcript.
/// False ends the batch with kVerifyFailed on a mismatch, announced only
/// while the peer still listens: the side whose tag crosses last has
/// finished the batch by then, so a mismatch on its tag stays local.
bool accept_tag(PeerIo& p, bool peer_listens) {
  const auto tag = recv_packet<wire::TranscriptTag>(p);
  if (!tag.has_value()) return false;
  const AbortReason reason = check_transcript(p.side, *tag);
  if (reason == AbortReason::kNone) return true;
  if (peer_listens) announce_abort(p, reason);
  p.out.reason = reason;
  return false;
}

/// The end of an accepted batch: the pads take their share, the rest is
/// this side's key.
PeerOutcome release(PeerIo& p) {
  replenish_pads(p.side);
  p.out.key = std::move(p.side.key);
  p.out.accepted = true;
  return p.out;
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
  DialogueSide side{config_, self_, out.frame_id};
  PeerIo p{io, side, out};
  AbortReason reason = AbortReason::kNone;

  // ---- Quantum channel (simulated here, fed to Bob; uncounted). A batch
  // this side could not tag is refused in place of the feed. ---------------
  const auto frame = link_.run_frame(config_.frame_slots, nullptr);
  reason = check_tag_pads(side);
  if (reason != AbortReason::kNone) return announce_abort(p, reason);
  wire::QframeFeed feed;
  feed.frame_id = out.frame_id;
  feed.detected = frame.bob.detected;
  feed.bases = frame.bob.bases;
  feed.bits = frame.bob.bits;
  if (!io.send_frame(wire::to_frame(feed)))
    return announce_abort(p, AbortReason::kChannelLost);

  // ---- Sifting: Bob announces, Alice decides. -----------------------------
  const auto announce = recv_packet<wire::SiftAnnounce>(p);
  if (!announce.has_value()) return out;
  if (announce->detected.size() != frame.alice.size())
    return announce_abort(p, AbortReason::kChannelLost);
  AliceSiftResult sifted = alice_sift(frame.alice, *announce);
  if (!send_packet(p, sifted.decision)) return out;
  reason = keep_sifted(side, std::move(sifted.outcome.bits));
  out.sifted_bits = side.bits.size();
  if (reason != AbortReason::kNone) return announce_abort(p, reason);

  // ---- Sampling: Alice reveals first. -------------------------------------
  if (const auto mine = reveal_sample(side)) {
    if (!send_packet(p, *mine)) return out;
    const auto theirs = recv_packet<wire::SampleReveal>(p);
    if (!theirs.has_value()) return out;
    reason = judge_sample(side, *mine, *theirs);
    out.qber_sampled = side.qber_sampled;
    if (reason != AbortReason::kNone) return announce_abort(p, reason);
  }

  // ---- Error correction: answer Bob's parity dialogue until his summary. -
  skip_corrector_seed(side);
  WireParityServer server(side.bits, side.transcript);
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
    summary = accept_packet<wire::EcSummary>(p, *ec_frame);
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
  if (!send_packet(p, mine_hash)) return out;
  const auto theirs_hash = recv_packet<wire::VerifyHash>(p);
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
    if (!send_packet(p, params)) return out;
    amplify_chunk(side, chunk, params);
  }

  // ---- Transcript tags: Alice's first; then replenish + deliver. ----------
  if (!send_tag(p) || !accept_tag(p, /*peer_listens=*/false)) return out;
  return release(p);
}

BobPeer::BobPeer(QkdLinkConfig config, std::uint64_t seed)
    : config_(config), self_(config, seed, /*is_alice=*/false) {}

BobPeer::~BobPeer() = default;

PeerOutcome BobPeer::run_batch(wire::Transport& io) {
  PeerOutcome out;
  out.frame_id = next_frame_id_++;
  DialogueSide side{config_, self_, out.frame_id};
  PeerIo p{io, side, out};
  AbortReason reason = AbortReason::kNone;

  // ---- Quantum channel: receive this batch's detections (or Alice's
  // refusal to start it). ---------------------------------------------------
  const auto feed_frame = recv_decoded(io);
  if (feed_frame.has_value() && feed_frame->type == wire::PacketType::kAbort) {
    out.reason = notice_reason(*feed_frame);
    return out;
  }
  if (!feed_frame.has_value() ||
      feed_frame->type != wire::PacketType::kQframeFeed)
    return announce_abort(p, AbortReason::kChannelLost);
  const auto feed = wire::QframeFeed::decode(feed_frame->payload);
  if (!feed.ok()) return announce_abort(p, AbortReason::kChannelLost);
  qkd::optics::DetectionRecord detections;
  detections.detected = feed.value.detected;
  detections.bases = feed.value.bases;
  detections.bits = feed.value.bits;
  reason = check_tag_pads(side);
  if (reason != AbortReason::kNone) return announce_abort(p, reason);

  // ---- Sifting: Bob announces, then applies Alice's decision. -------------
  const wire::SiftAnnounce announce =
      make_sift_message(out.frame_id, detections);
  if (!send_packet(p, announce)) return out;
  const auto decision = recv_packet<wire::SiftDecision>(p);
  if (!decision.has_value()) return out;
  if (decision->keep.size() != announce.bob_bases.size())
    return announce_abort(p, AbortReason::kChannelLost);
  reason = keep_sifted(
      side, bob_apply_response(detections, announce, *decision).bits);
  out.sifted_bits = side.bits.size();
  if (reason != AbortReason::kNone) return await_abort(p, reason);

  // ---- Sampling: Bob reveals second. --------------------------------------
  if (const auto mine = reveal_sample(side)) {
    const auto theirs = recv_packet<wire::SampleReveal>(p);
    if (!theirs.has_value()) return out;
    if (!send_packet(p, *mine)) return out;
    reason = judge_sample(side, *mine, *theirs);
    out.qber_sampled = side.qber_sampled;
    if (reason != AbortReason::kNone) return await_abort(p, reason);
  }

  // ---- Error correction: drive the corrector over the wire. ---------------
  WireParityClient client(io, side.transcript);
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
  if (!send_packet(p, *summary)) return out;
  reason = accept_ec_summary(side, *summary, client.queries());
  if (reason != AbortReason::kNone) return await_abort(p, reason);

  // ---- Verify: Alice's hash first. ----------------------------------------
  const auto theirs_hash = recv_packet<wire::VerifyHash>(p);
  if (!theirs_hash.has_value()) return out;
  const wire::VerifyHash mine_hash = verify_hash(side);
  if (!send_packet(p, mine_hash)) return out;
  reason = judge_verify(side, mine_hash, *theirs_hash);
  if (reason != AbortReason::kNone) return await_abort(p, reason);

  // ---- Entropy. -----------------------------------------------------------
  reason = estimate_usable_bits(side);
  if (reason != AbortReason::kNone) return await_abort(p, reason);

  // ---- Privacy amplification: Bob derives and cross-checks. Divergence
  // means the DRBG lockstep or the wire is compromised; Bob still reads
  // the rest of Alice's announcements and her tag, so the stream stays in
  // step, and she learns the verdict from his notice in place of his tag.
  bool params_match = true;
  for (const PaChunk& chunk : pa_chunks(side)) {
    const wire::PaParamsPacket expected =
        make_pa_params(chunk.bits, chunk.out_bits, side.drbg);
    const auto announced = recv_packet<wire::PaParamsPacket>(p);
    if (!announced.has_value()) return out;
    params_match = params_match && *announced == expected;
    if (params_match) amplify_chunk(side, chunk, expected);
  }

  // ---- Transcript tags: Alice's first; then replenish + deliver. ----------
  if (!accept_tag(p, /*peer_listens=*/true)) return out;
  if (!params_match) return announce_abort(p, AbortReason::kVerifyFailed);
  if (!send_tag(p)) return out;
  return release(p);
}

}  // namespace qkd::proto
