#include "src/qkd/pipeline.hpp"

#include <stdexcept>
#include <utility>

#include "src/qkd/privacy.hpp"
#include "src/qkd/sifting.hpp"
#include "src/qkd/wire_link.hpp"

namespace qkd::proto {
namespace {

/// Retransmission budget per authenticated control message before the
/// batch concedes the classical channel is gone.
constexpr int kMaxShipAttempts = 12;

AbortReason to_abort(ShipStatus status) {
  switch (status) {
    case ShipStatus::kOk:
      return AbortReason::kNone;
    case ShipStatus::kAuthExhausted:
      return AbortReason::kAuthExhausted;
    case ShipStatus::kChannelLost:
      return AbortReason::kChannelLost;
  }
  return AbortReason::kChannelLost;
}

}  // namespace

ShipStatus BatchContext::ship_frame(bool from_alice, wire::PacketType type,
                                    const Bytes& packet_payload) {
  AuthenticationService& sender = from_alice ? alice.auth : bob.auth;
  AuthenticationService& receiver = from_alice ? bob.auth : alice.auth;
  wire::Transport& out = from_alice ? alice_wire : bob_wire;
  wire::Transport& in = from_alice ? bob_wire : alice_wire;

  // Protect ONCE: the pad slot is bound to the sequence number, so every
  // retransmission is the identical envelope and costs no extra pad.
  const auto protected_payload = sender.protect(packet_payload);
  if (!protected_payload.has_value()) return ShipStatus::kAuthExhausted;
  const Bytes framed = wire::encode_frame(type, *protected_payload);

  for (int attempt = 0; attempt < kMaxShipAttempts; ++attempt) {
    out.send_frame(framed);
    ++result.control_messages;
    result.control_bytes += framed.size();
    const auto raw = in.recv_frame();
    if (!raw.has_value()) continue;  // lost in transit: retransmit
    const auto frame = wire::decode_frame(*raw);
    if (!frame.ok() || frame.value.type != type) continue;
    const auto verified = receiver.verify(frame.value.payload);
    if (!verified.has_value() || *verified != packet_payload) continue;
    return ShipStatus::kOk;
  }
  return ShipStatus::kChannelLost;
}

AbortReason SiftingStage::run(BatchContext& ctx) {
  const wire::SiftAnnounce announce =
      make_sift_message(ctx.bob.frame_id, ctx.frame.bob);
  if (const auto s = ctx.ship(/*from_alice=*/false, announce);
      s != ShipStatus::kOk)
    return to_abort(s);
  AliceSiftResult alice = alice_sift(ctx.frame.alice, announce);
  if (const auto s = ctx.ship(/*from_alice=*/true, alice.decision);
      s != ShipStatus::kOk)
    return to_abort(s);
  SiftOutcome bob =
      bob_apply_response(ctx.frame.bob, announce, alice.decision);

  keep_sifted(ctx.bob, std::move(bob.bits));
  const AbortReason reason =
      keep_sifted(ctx.alice, std::move(alice.outcome.bits));
  ctx.result.sifted_bits = ctx.alice.bits.size();
  if (reason != AbortReason::kNone) return reason;

  // Ground truth for attack accounting: sifted-slot join with Eve's record.
  ctx.result.qber_actual =
      static_cast<double>(ctx.alice.bits.hamming_distance(ctx.bob.bits)) /
      static_cast<double>(ctx.alice.bits.size());
  for (std::uint32_t slot : alice.outcome.slot_indices)
    if (ctx.frame.eve.known.get(slot)) ++ctx.result.eve_known_sifted;
  return AbortReason::kNone;
}

AbortReason SamplingStage::run(BatchContext& ctx) {
  // Both sides draw the same positions from their own DRBG (never sent);
  // each then reveals its OWN bits there, Alice first.
  const auto alice_reveal = reveal_sample(ctx.alice);
  const auto bob_reveal = reveal_sample(ctx.bob);
  if (!alice_reveal.has_value()) return AbortReason::kNone;
  ctx.result.sampled_bits = alice_reveal->bits.size();
  if (const auto s = ctx.ship(/*from_alice=*/true, *alice_reveal);
      s != ShipStatus::kOk)
    return to_abort(s);
  if (const auto s = ctx.ship(/*from_alice=*/false, *bob_reveal);
      s != ShipStatus::kOk)
    return to_abort(s);
  judge_sample(ctx.bob, *bob_reveal, *alice_reveal);
  const AbortReason reason =
      judge_sample(ctx.alice, *alice_reveal, *bob_reveal);
  ctx.result.qber_sampled = ctx.alice.qber_sampled;
  return reason;
}

AbortReason ErrorCorrectionStage::run(BatchContext& ctx) {
  // Bob drives; every parity question and answer is a real frame on the
  // wire (unauthenticated — see src/qkd/wire_link.hpp for why), answered
  // by Alice's responder on the other end of the channel.
  skip_corrector_seed(ctx.alice);
  WireParityServer alice_server(ctx.alice.bits);
  WireParityClient bob_client(
      ctx.bob_wire, [&] { alice_server.serve_one(ctx.alice_wire); });
  std::optional<wire::EcSummary> summary;
  try {
    summary = correct_errors(ctx.bob, bob_client);
  } catch (const ChannelLostError&) {
  }
  // Wire accounting for EC is measured, not estimated: both sides' sent
  // frames, retransmissions included.
  ctx.result.control_messages +=
      bob_client.traffic().messages + alice_server.traffic().messages;
  ctx.result.control_bytes +=
      bob_client.traffic().bytes + alice_server.traffic().bytes;
  ctx.result.disclosed_bits = alice_server.disclosed();
  if (!summary.has_value()) return AbortReason::kChannelLost;
  ctx.result.errors_corrected = summary->corrections;

  // Bob closes the dialogue with an authenticated summary; Alice needs the
  // correction count for her entropy estimate.
  if (const auto s = ctx.ship(/*from_alice=*/false, *summary);
      s != ShipStatus::kOk)
    return to_abort(s);
  accept_ec_summary(ctx.bob, *summary, bob_client.queries());
  return accept_ec_summary(ctx.alice, *summary, alice_server.disclosed());
}

AbortReason VerifyStage::run(BatchContext& ctx) {
  // Equality verification: BOTH directions exchange a hash of the
  // corrected string, Alice's first.
  const wire::VerifyHash alice_hash = verify_hash(ctx.alice);
  const wire::VerifyHash bob_hash = verify_hash(ctx.bob);
  if (const auto s = ctx.ship(/*from_alice=*/true, alice_hash);
      s != ShipStatus::kOk)
    return to_abort(s);
  if (const auto s = ctx.ship(/*from_alice=*/false, bob_hash);
      s != ShipStatus::kOk)
    return to_abort(s);
  judge_verify(ctx.bob, bob_hash, alice_hash);
  return judge_verify(ctx.alice, alice_hash, bob_hash);
}

AbortReason EntropyStage::run(BatchContext& ctx) {
  estimate_usable_bits(ctx.bob);
  return estimate_usable_bits(ctx.alice);
}

AbortReason PrivacyAmplificationStage::run(BatchContext& ctx) {
  const std::vector<PaChunk> chunks = pa_chunks(ctx.alice);
  if (pa_chunks(ctx.bob) != chunks) return AbortReason::kVerifyFailed;
  for (const PaChunk& chunk : chunks) {
    const wire::PaParamsPacket announce =
        make_pa_params(chunk.bits, chunk.out_bits, ctx.alice.drbg);
    const wire::PaParamsPacket expected =
        make_pa_params(chunk.bits, chunk.out_bits, ctx.bob.drbg);
    if (const auto s = ctx.ship(/*from_alice=*/true, announce);
        s != ShipStatus::kOk)
      return to_abort(s);
    if (!(announce == expected)) return AbortReason::kVerifyFailed;
    amplify_chunk(ctx.alice, chunk, announce);
    amplify_chunk(ctx.bob, chunk, expected);
  }
  if (!(ctx.alice.key == ctx.bob.key))
    throw std::logic_error("QkdLinkSession: PA outputs diverged after verify");
  return AbortReason::kNone;
}

AbortReason AuthReplenishStage::run(BatchContext& ctx) {
  replenish_pads(ctx.alice);
  replenish_pads(ctx.bob);
  ctx.result.distilled_bits = ctx.alice.key.size();
  ctx.result.key = std::move(ctx.alice.key);
  return AbortReason::kNone;
}

std::vector<std::unique_ptr<PipelineStage>> default_pipeline() {
  std::vector<std::unique_ptr<PipelineStage>> stages;
  stages.push_back(std::make_unique<SiftingStage>());
  stages.push_back(std::make_unique<SamplingStage>());
  stages.push_back(std::make_unique<ErrorCorrectionStage>());
  stages.push_back(std::make_unique<VerifyStage>());
  stages.push_back(std::make_unique<EntropyStage>());
  stages.push_back(std::make_unique<PrivacyAmplificationStage>());
  stages.push_back(std::make_unique<AuthReplenishStage>());
  return stages;
}

}  // namespace qkd::proto
