// The distillation dialogue of Fig. 9, one side at a time.
//
// Every stage of the pipeline is a short conversation between Alice and
// Bob. This header splits each stage into the steps ONE side takes between
// messages: a step reads and writes only its own side's state (its bits,
// its DRBG, its AuthenticationService, its Transcript) and returns the
// packet that side sends next or the verdict it reaches. No step touches a
// transport. Two callers move the packets, and log every packet a side
// sends or accepts into that side's transcript:
//  * PipelineStage::run (src/qkd/pipeline.cpp) calls both sides' steps in
//    dialogue order inside one process and moves each packet with
//    BatchContext::ship over the in-memory channel;
//  * AlicePeer/BobPeer::run_batch (src/qkd/peer.cpp) call one side's steps
//    and send/receive the packets over their own transport.
// A side accepts a packet only if it decodes and, where the packet names
// its batch, names this one (accepts()); the parity dialogue is logged by
// its wire ends (src/qkd/wire_link.hpp).
//
// Dialogue order, per stage:
//   sifting    each side checks it has pad for the batch's tag;
//              Bob announces -> Alice decides -> Bob applies
//   sampling   each side reveals; Alice's reveal crosses first, then Bob's;
//              each side judges the sampled QBER
//   EC         Bob corrects over the parity dialogue, Alice answers it;
//              Bob's summary closes it; each side records the summary
//   verify     each side hashes its string; Alice's hash first
//   entropy    each side estimates the distillable bits (local)
//   PA         per chunk: Alice derives and announces the parameters ->
//              Bob derives his own and cross-checks the announcement
//   replenish  Alice tags her transcript -> Bob checks it, tags his ->
//              Alice checks it; then each side diverts the key's tail into
//              its own pad pool. No key leaves a side whose check failed.
//
// Both endpoints seed each batch's DRBG alike, and each side's steps draw
// exactly what one shared stream would draw in this order (the sample
// positions, the corrector seed, the PA parameters), so those agree on
// both sides without ever crossing the wire.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/bitvector.hpp"
#include "src/crypto/drbg.hpp"
#include "src/qkd/authentication.hpp"
#include "src/qkd/ec.hpp"
#include "src/qkd/engine.hpp"
#include "src/wire/packets.hpp"

namespace qkd::proto {

/// One side's state through one batch (its DRBG and authentication
/// service come from its DialogueEndpoint, src/qkd/engine.hpp).
struct DialogueSide {
  DialogueSide(const QkdLinkConfig& config, DialogueEndpoint& endpoint,
               std::uint64_t frame_id)
      : config(config),
        drbg(endpoint.batch_drbg(frame_id)),
        auth(endpoint.auth),
        frame_id(frame_id),
        transcript(endpoint.auth.open_transcript()) {}

  const QkdLinkConfig& config;
  qkd::crypto::Drbg drbg;
  AuthenticationService& auth;
  std::uint64_t frame_id = 0;
  // Every packet of the batch this side sent or accepted.
  Transcript transcript;

  // Sifted, then cut down by sampling, then (Bob) corrected in place.
  qkd::BitVector bits;
  double qber_sampled = 0.0;
  // The error-correction summary as this side knows it, plus the parity
  // bits it saw disclosed (the `d` of its entropy estimate).
  std::size_t errors_corrected = 0;
  std::size_t disclosed_bits = 0;
  // Entropy estimate net of the PA margin.
  double usable_bits = 0.0;
  // Privacy-amplified key; after replenish, the part delivered.
  qkd::BitVector key;
};

/// Whether `side` accepts a decoded packet as part of its batch: a packet
/// that carries a frame id must carry this batch's (a frame replayed from
/// an earlier batch is refused at once; any other alteration the
/// transcript tags catch).
template <typename Packet>
bool accepts(const DialogueSide& side, const Packet& packet) {
  if constexpr (requires { packet.frame_id; })
    return packet.frame_id == side.frame_id;
  return true;
}

// ---- Sifting (the steps themselves are in src/qkd/sifting.hpp) ------------

/// Either side, before the batch's first message: a batch whose transcript
/// could not be tagged in both directions is not started.
AbortReason check_tag_pads(const DialogueSide& side);

/// Either side: keeps its sifted bits; nothing sifted rejects the batch.
AbortReason keep_sifted(DialogueSide& side, qkd::BitVector bits);

// ---- Sampling --------------------------------------------------------------

/// Either side, before either reveal crosses: draws the sample positions
/// from the side's DRBG, moves its own bits at those positions into the
/// reveal and keeps the rest. nullopt when the sample is empty (then no
/// reveal crosses in either direction).
std::optional<wire::SampleReveal> reveal_sample(DialogueSide& side);

/// Either side, once both reveals crossed: the sampled QBER and its
/// early-abort gate. Reveals of different lengths mean the peer is not
/// running the same dialogue (kChannelLost).
AbortReason judge_sample(DialogueSide& side, const wire::SampleReveal& mine,
                         const wire::SampleReveal& theirs);

// ---- Error correction ------------------------------------------------------

/// Alice, before answering the parity dialogue: her DRBG skips the
/// corrector seed Bob draws, staying in step with his.
void skip_corrector_seed(DialogueSide& alice);

/// Bob: draws the corrector seed and runs the configured corrector against
/// `alice` (his end of the parity dialogue). Returns the summary that
/// closes the dialogue; throws ChannelLostError if the wire gives out.
wire::EcSummary correct_errors(DialogueSide& bob, ParityOracle& alice);

/// Either side, once the summary crossed: records it and the parity bits
/// this side counted as disclosed; a non-converged corrector rejects.
AbortReason accept_ec_summary(DialogueSide& side,
                              const wire::EcSummary& summary,
                              std::size_t disclosed_bits);

// ---- Verify ----------------------------------------------------------------

/// Either side: the hash of its corrected string.
wire::VerifyHash verify_hash(const DialogueSide& side);

/// Either side, once both hashes crossed: a mismatch rejects, then the
/// canonical QBER alarm on the exact error rate.
AbortReason judge_verify(const DialogueSide& side,
                         const wire::VerifyHash& mine,
                         const wire::VerifyHash& theirs);

// ---- Entropy ---------------------------------------------------------------

/// Either side: the Sec. 6 estimate of the bits that survive Eve's
/// knowledge, less the PA margin; below one bit rejects.
AbortReason estimate_usable_bits(DialogueSide& side);

// ---- Privacy amplification -------------------------------------------------

/// One PA block: `bits` input bits at `offset`, shrunk to `out_bits`.
struct PaChunk {
  std::size_t offset = 0;
  std::size_t bits = 0;
  std::size_t out_bits = 0;
  bool operator==(const PaChunk&) const = default;
};

/// Either side: long strings are amplified in chunks of bounded field
/// width, the output budget spread across them proportionally; chunks whose
/// share rounds to nothing are skipped. Per chunk, each side draws the
/// hash parameters from its own DRBG (make_pa_params(chunk.bits,
/// chunk.out_bits, side.drbg)): Alice announces hers, Bob compares his to
/// her announcement.
std::vector<PaChunk> pa_chunks(const DialogueSide& side);

/// Either side, per chunk: appends the chunk's amplified bits to side.key.
void amplify_chunk(DialogueSide& side, const PaChunk& chunk,
                   const wire::PaParamsPacket& params);

// ---- Authentication replenishment ------------------------------------------

/// Either side, after the last PA announcement: its Wegman-Carter tag over
/// its transcript of the batch. nullopt (kAuthExhausted) when no pad is
/// left.
std::optional<wire::TranscriptTag> seal_transcript(DialogueSide& side);

/// Either side: the peer's tag checked against this side's own transcript.
/// A mismatch means the two sides did not see the same conversation
/// (kVerifyFailed); the side must release nothing.
AbortReason check_transcript(DialogueSide& side,
                             const wire::TranscriptTag& theirs);

/// Either side, once its check passed: diverts the configured tail of its
/// key into its own pad pool; side.key keeps the part delivered to
/// consumers.
void replenish_pads(DialogueSide& side);

}  // namespace qkd::proto
