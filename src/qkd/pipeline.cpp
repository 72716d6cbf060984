#include "src/qkd/pipeline.hpp"

#include <stdexcept>
#include <utility>

#include "src/qkd/privacy.hpp"
#include "src/qkd/sifting.hpp"
#include "src/qkd/wire_link.hpp"

namespace qkd::proto {
namespace {

/// Retransmission budget per control message before the batch concedes
/// the classical channel is gone.
constexpr int kMaxShipAttempts = 12;

}  // namespace

bool BatchContext::ship_frame(bool from_alice, wire::PacketType type,
                              const Bytes& payload,
                              const std::function<bool(const Bytes&)>& accept) {
  DialogueSide& sender = from_alice ? alice : bob;
  DialogueSide& receiver = from_alice ? bob : alice;
  wire::Transport& out = from_alice ? alice_wire : bob_wire;
  wire::Transport& in = from_alice ? bob_wire : alice_wire;

  sender.transcript.log(type, payload);
  const Bytes framed = wire::encode_frame(type, payload);
  for (int attempt = 0; attempt < kMaxShipAttempts; ++attempt) {
    out.send_frame(framed);
    ++result.control_messages;
    result.control_bytes += framed.size();
    const auto raw = in.recv_frame();
    if (!raw.has_value()) continue;  // lost in transit: retransmit
    const auto frame = wire::decode_frame(*raw);
    if (!frame.ok() || frame.value.type != type || !accept(frame.value.payload))
      continue;  // mangled past decoding, or not this batch's: retransmit
    receiver.transcript.log(type, frame.value.payload);
    return true;
  }
  return false;
}

AbortReason SiftingStage::run(BatchContext& ctx) {
  for (const DialogueSide* side : {&ctx.alice, &ctx.bob})
    if (const AbortReason r = check_tag_pads(*side); r != AbortReason::kNone)
      return r;
  const wire::SiftAnnounce announce =
      make_sift_message(ctx.bob.frame_id, ctx.frame.bob);
  wire::SiftAnnounce alice_announce;
  if (!ctx.ship(/*from_alice=*/false, announce, alice_announce))
    return AbortReason::kChannelLost;
  // An announcement or decision that does not fit the other side's records
  // belongs to some other dialogue (kChannelLost), as in the peers.
  if (alice_announce.detected.size() != ctx.frame.alice.size())
    return AbortReason::kChannelLost;
  AliceSiftResult alice = alice_sift(ctx.frame.alice, alice_announce);
  wire::SiftDecision bob_decision;
  if (!ctx.ship(/*from_alice=*/true, alice.decision, bob_decision))
    return AbortReason::kChannelLost;
  if (bob_decision.keep.size() != announce.bob_bases.size())
    return AbortReason::kChannelLost;
  SiftOutcome bob = bob_apply_response(ctx.frame.bob, announce, bob_decision);

  keep_sifted(ctx.bob, std::move(bob.bits));
  const AbortReason reason =
      keep_sifted(ctx.alice, std::move(alice.outcome.bits));
  ctx.result.sifted_bits = ctx.alice.bits.size();
  if (reason != AbortReason::kNone) return reason;

  // Ground truth for attack accounting: sifted-slot join with Eve's record.
  if (ctx.alice.bits.size() == ctx.bob.bits.size())
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
  if (!alice_reveal.has_value() || !bob_reveal.has_value())
    return alice_reveal.has_value() == bob_reveal.has_value()
               ? AbortReason::kNone
               : AbortReason::kChannelLost;
  ctx.result.sampled_bits = alice_reveal->bits.size();
  wire::SampleReveal at_bob, at_alice;
  if (!ctx.ship(/*from_alice=*/true, *alice_reveal, at_bob) ||
      !ctx.ship(/*from_alice=*/false, *bob_reveal, at_alice))
    return AbortReason::kChannelLost;
  judge_sample(ctx.bob, *bob_reveal, at_bob);
  const AbortReason reason = judge_sample(ctx.alice, *alice_reveal, at_alice);
  ctx.result.qber_sampled = ctx.alice.qber_sampled;
  return reason;
}

AbortReason ErrorCorrectionStage::run(BatchContext& ctx) {
  // Bob drives; every parity question and answer is a real frame on the
  // wire, logged by both ends into their transcripts, answered by Alice's
  // responder on the other end of the channel.
  skip_corrector_seed(ctx.alice);
  WireParityServer alice_server(ctx.alice.bits, ctx.alice.transcript);
  WireParityClient bob_client(
      ctx.bob_wire, ctx.bob.transcript,
      [&] { alice_server.serve_one(ctx.alice_wire); });
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

  // Bob closes the dialogue with his summary; Alice needs the correction
  // count for her entropy estimate.
  wire::EcSummary at_alice;
  if (!ctx.ship(/*from_alice=*/false, *summary, at_alice))
    return AbortReason::kChannelLost;
  accept_ec_summary(ctx.bob, *summary, bob_client.queries());
  return accept_ec_summary(ctx.alice, at_alice, alice_server.disclosed());
}

AbortReason VerifyStage::run(BatchContext& ctx) {
  // Equality verification: BOTH directions exchange a hash of the
  // corrected string, Alice's first.
  const wire::VerifyHash alice_hash = verify_hash(ctx.alice);
  const wire::VerifyHash bob_hash = verify_hash(ctx.bob);
  wire::VerifyHash at_bob, at_alice;
  if (!ctx.ship(/*from_alice=*/true, alice_hash, at_bob) ||
      !ctx.ship(/*from_alice=*/false, bob_hash, at_alice))
    return AbortReason::kChannelLost;
  judge_verify(ctx.bob, bob_hash, at_bob);
  return judge_verify(ctx.alice, alice_hash, at_alice);
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
    wire::PaParamsPacket at_bob;
    if (!ctx.ship(/*from_alice=*/true, announce, at_bob))
      return AbortReason::kChannelLost;
    if (!(at_bob == expected)) return AbortReason::kVerifyFailed;
    amplify_chunk(ctx.alice, chunk, announce);
    amplify_chunk(ctx.bob, chunk, expected);
  }
  return AbortReason::kNone;
}

AbortReason AuthReplenishStage::run(BatchContext& ctx) {
  // One tag each way over everything both sides sent and accepted; key is
  // released only when both checks pass.
  const auto alice_tag = seal_transcript(ctx.alice);
  if (!alice_tag.has_value()) return AbortReason::kAuthExhausted;
  wire::TranscriptTag at_bob;
  if (!ctx.ship(/*from_alice=*/true, *alice_tag, at_bob))
    return AbortReason::kChannelLost;
  if (const auto r = check_transcript(ctx.bob, at_bob); r != AbortReason::kNone)
    return r;
  const auto bob_tag = seal_transcript(ctx.bob);
  if (!bob_tag.has_value()) return AbortReason::kAuthExhausted;
  wire::TranscriptTag at_alice;
  if (!ctx.ship(/*from_alice=*/false, *bob_tag, at_alice))
    return AbortReason::kChannelLost;
  if (const auto r = check_transcript(ctx.alice, at_alice);
      r != AbortReason::kNone)
    return r;
  if (!(ctx.alice.key == ctx.bob.key))
    throw std::logic_error("QkdLinkSession: keys diverged under matching tags");

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
