#include "src/qkd/dialogue.hpp"

#include <algorithm>
#include <numeric>

#include "src/crypto/sha1.hpp"
#include "src/qkd/privacy.hpp"
#include "src/qkd/randomness.hpp"

namespace qkd::proto {

AbortReason check_tag_pads(const DialogueSide& side) {
  return side.auth.can_seal() ? AbortReason::kNone
                              : AbortReason::kAuthExhausted;
}

AbortReason keep_sifted(DialogueSide& side, qkd::BitVector bits) {
  side.bits = std::move(bits);
  return side.bits.empty() ? AbortReason::kNoSiftedBits : AbortReason::kNone;
}

std::optional<wire::SampleReveal> reveal_sample(DialogueSide& side) {
  const std::size_t n = side.bits.size();
  const std::size_t sample_target = static_cast<std::size_t>(
      side.config.sample_fraction * static_cast<double>(n));
  if (sample_target == 0) return std::nullopt;
  // Partial Fisher-Yates: after `sample_target` swap steps the prefix holds
  // a uniform without-replacement draw of the positions, in O(n).
  std::vector<std::uint32_t> positions(n);
  std::iota(positions.begin(), positions.end(), 0u);
  for (std::size_t i = 0; i < sample_target; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(side.drbg.next_u64() % (n - i));
    std::swap(positions[i], positions[j]);
  }
  qkd::BitVector mask(n);
  for (std::size_t i = 0; i < sample_target; ++i) mask.set(positions[i], true);

  wire::SampleReveal reveal;
  reveal.frame_id = side.frame_id;
  qkd::BitVector kept;
  for (std::size_t i = 0; i < n; ++i)
    (mask.get(i) ? reveal.bits : kept).push_back(side.bits.get(i));
  side.bits = std::move(kept);
  return reveal;
}

AbortReason judge_sample(DialogueSide& side, const wire::SampleReveal& mine,
                         const wire::SampleReveal& theirs) {
  if (theirs.bits.size() != mine.bits.size()) return AbortReason::kChannelLost;
  side.qber_sampled =
      static_cast<double>(mine.bits.hamming_distance(theirs.bits)) /
      static_cast<double>(mine.bits.size());
  return side.qber_sampled > side.config.early_abort_qber
             ? AbortReason::kQberTooHigh
             : AbortReason::kNone;
}

void skip_corrector_seed(DialogueSide& alice) { alice.drbg.next_u32(); }

wire::EcSummary correct_errors(DialogueSide& bob, ParityOracle& alice) {
  const QkdLinkConfig& config = bob.config;
  const auto seed = static_cast<std::uint32_t>(bob.drbg.next_u32());
  EcStats ec;
  switch (config.ec_strategy) {
    case EcStrategy::kBbnCascade: {
      BbnCascadeConfig cfg = config.bbn_config;
      cfg.seed_base = seed;
      ec = bbn_cascade_correct(bob.bits, alice, cfg);
      break;
    }
    case EcStrategy::kClassicCascade: {
      ClassicCascadeConfig cfg = config.classic_config;
      cfg.seed_base = seed;
      ec = classic_cascade_correct(bob.bits, alice,
                                   std::max(bob.qber_sampled, 0.01), cfg);
      break;
    }
    case EcStrategy::kNaiveParity: {
      NaiveParityConfig cfg = config.naive_config;
      cfg.perm_seed = seed;
      ec = naive_parity_correct(bob.bits, alice, cfg);
      break;
    }
  }
  wire::EcSummary summary;
  summary.corrections = static_cast<std::uint32_t>(ec.corrections);
  summary.converged = ec.converged;
  return summary;
}

AbortReason accept_ec_summary(DialogueSide& side,
                              const wire::EcSummary& summary,
                              std::size_t disclosed_bits) {
  side.errors_corrected = summary.corrections;
  side.disclosed_bits = disclosed_bits;
  if (side.config.ec_strategy != EcStrategy::kNaiveParity && !summary.converged)
    return AbortReason::kEcNotConverged;
  return AbortReason::kNone;
}

wire::VerifyHash verify_hash(const DialogueSide& side) {
  const auto digest = qkd::crypto::Sha1::hash(side.bits.to_bytes());
  wire::VerifyHash hash;
  hash.frame_id = side.frame_id;
  hash.digest.assign(digest.begin(), digest.end());
  return hash;
}

AbortReason judge_verify(const DialogueSide& side,
                         const wire::VerifyHash& mine,
                         const wire::VerifyHash& theirs) {
  // IKE "has no mechanisms for noticing" key disagreement, so the QKD
  // stack must catch residual errors here (Sec. 7).
  if (theirs.digest != mine.digest) return AbortReason::kVerifyFailed;
  // The exact error count is now known; apply the canonical QBER alarm.
  const double qber_exact = static_cast<double>(side.errors_corrected) /
                            static_cast<double>(side.bits.size());
  return qber_exact > side.config.qber_abort_threshold
             ? AbortReason::kQberTooHigh
             : AbortReason::kNone;
}

AbortReason estimate_usable_bits(DialogueSide& side) {
  const QkdLinkConfig& config = side.config;
  EntropyInputs inputs;
  inputs.sifted_bits = side.bits.size();
  inputs.error_bits = side.errors_corrected;
  inputs.transmitted_pulses = config.frame_slots;
  inputs.disclosed_bits = side.disclosed_bits;
  // The paper left r as "a placeholder ... until randomness testing is put
  // into the system"; our system has the testing (detector bias shows up in
  // the monobit statistic of the corrected bits).
  inputs.non_randomness =
      config.run_randomness_tests
          ? test_randomness(side.bits).non_randomness_bits
          : 0.0;
  inputs.mean_photon_number = config.link.mean_photon_number;
  inputs.confidence = config.confidence;
  inputs.defense = config.defense;
  inputs.link_kind = config.link_kind;
  inputs.multi_photon_policy = config.multi_photon_policy;
  side.usable_bits = estimate_entropy(inputs).distillable_bits -
                     static_cast<double>(config.pa_margin_bits);
  return side.usable_bits < 1.0 ? AbortReason::kEntropyExhausted
                                : AbortReason::kNone;
}

std::vector<PaChunk> pa_chunks(const DialogueSide& side) {
  const std::size_t m_total = static_cast<std::size_t>(side.usable_bits);
  const std::size_t total_in = side.bits.size();
  const std::size_t chunk_max = pa_max_block_bits();
  std::vector<PaChunk> chunks;
  std::size_t m_emitted = 0;
  for (std::size_t offset = 0; offset < total_in;) {
    const std::size_t chunk = std::min(chunk_max, total_in - offset);
    const std::size_t m_target =
        static_cast<std::size_t>(static_cast<double>(m_total) *
                                 static_cast<double>(offset + chunk) /
                                 static_cast<double>(total_in));
    const std::size_t m_chunk = std::min(m_target - m_emitted, chunk);
    if (m_chunk > 0) {
      chunks.push_back({offset, chunk, m_chunk});
      m_emitted += m_chunk;
    }
    offset += chunk;
  }
  return chunks;
}

void amplify_chunk(DialogueSide& side, const PaChunk& chunk,
                   const wire::PaParamsPacket& params) {
  side.key.append(
      privacy_amplify(side.bits.slice(chunk.offset, chunk.bits), params));
}

std::optional<wire::TranscriptTag> seal_transcript(DialogueSide& side) {
  return side.auth.seal(side.transcript, side.frame_id);
}

AbortReason check_transcript(DialogueSide& side,
                             const wire::TranscriptTag& theirs) {
  return side.auth.check(side.transcript, side.frame_id, theirs)
             ? AbortReason::kNone
             : AbortReason::kVerifyFailed;
}

void replenish_pads(DialogueSide& side) {
  const std::size_t replenish =
      std::min(side.config.auth_replenish_bits, side.key.size());
  if (replenish == 0) return;
  side.auth.replenish(side.key.slice(side.key.size() - replenish, replenish));
  side.key.resize(side.key.size() - replenish);
}

}  // namespace qkd::proto
