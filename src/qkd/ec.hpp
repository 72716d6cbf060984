// Error-correction substrate: parity queries between Bob (who drives
// correction) and Alice (who answers as a parity oracle).
//
// All three error-correction protocols in this library — the paper's BBN
// Cascade variant (Sec. 5), classic Brassard-Salvail Cascade [19], and the
// conventional block-parity baseline from the Appendix — reduce to one wire
// primitive: "Alice, what is the parity of this subset of your sifted
// bits?". Subsets are described compactly (an LFSR seed or a permutation
// seed plus a range), never as explicit bit lists. Every answered query
// reveals exactly one bit of parity information to Eve; the oracle counts
// them, and that count is the `d` fed into entropy estimation.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/bitvector.hpp"
#include "src/wire/packets.hpp"

namespace qkd::proto {

/// A parity question about a compactly-described subset of the sifted bits.
struct ParityQuery {
  enum class Kind : std::uint8_t {
    /// Members are the positions where Lfsr32::subset_mask(seed) is 1,
    /// in increasing position order; the query covers members [begin, end).
    kLfsrSubset = 0,
    /// Members are seeded_permutation(seed)[begin..end).
    kPermutedRange = 1,
  };

  Kind kind = Kind::kLfsrSubset;
  std::uint32_t seed = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;

  /// The query as it crosses the wire (its one codec is
  /// wire::ParityRequest's), and back.
  wire::ParityRequest to_request() const;
  static ParityQuery from_request(const wire::ParityRequest& request);
  bool operator==(const ParityQuery&) const = default;
};

/// Answers parity queries against a fixed bit string. The wire protocol and
/// the in-process fast path both go through this interface.
class ParityOracle {
 public:
  virtual ~ParityOracle() = default;
  virtual bool parity(const ParityQuery& query) = 0;
};

/// Alice's oracle over her sifted bits; counts disclosures and caches the
/// expanded subset descriptions.
class LocalParityOracle final : public ParityOracle {
 public:
  explicit LocalParityOracle(const qkd::BitVector& bits);

  bool parity(const ParityQuery& query) override;

  /// Number of parity bits disclosed so far (the `d` of the entropy
  /// estimate).
  std::size_t disclosed() const { return disclosed_; }

 private:
  const qkd::BitVector& bits_;
  std::size_t disclosed_ = 0;
  // seed -> expanded member lists, cached across bisection steps.
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> lfsr_cache_;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> perm_cache_;
};

/// The subset membership mask both sides expand from an announced 32-bit
/// seed (one bit per sifted-bit position; expected density 1/2).
///
/// REPRODUCTION NOTE: the paper says the subsets are "pseudo-random bit
/// strings, from a Linear-Feedback Shift Register (LFSR) ... identified by a
/// 32-bit seed". Taken literally — n-bit windows of one fixed 32-bit LFSR
/// stream — every such mask lies in a <= 32-dimensional subspace of
/// GF(2)^n (windows are linear functions of the 32-bit state, and m-sequences
/// are closed under shift-and-add). At most 32 independent parity
/// constraints can ever be formed, so correction provably stalls beyond ~32
/// errors; we confirmed the stall empirically. BBN's deployed generator must
/// have differed in some detail the paper does not record. We therefore keep
/// the protocol and wire format (a 32-bit seed identifies each subset) but
/// expand the seed through a nonlinear mixer (SplitMix64 -> xoshiro) so that
/// distinct seeds yield effectively independent masks. DESIGN.md section 4
/// records this substitution.
qkd::BitVector subset_mask_from_seed(std::uint32_t seed, std::size_t n);

/// Positions selected by subset_mask_from_seed(seed) over `n` bits.
std::vector<std::uint32_t> lfsr_members(std::uint32_t seed, std::size_t n);

/// Deterministic Fisher-Yates permutation of [0, n) derived from `seed`;
/// both sides of the classic-Cascade exchange derive the same one.
std::vector<std::uint32_t> seeded_permutation(std::uint32_t seed,
                                              std::size_t n);

/// Parity of `bits` over members[begin..end).
bool parity_of_members(const qkd::BitVector& bits,
                       const std::vector<std::uint32_t>& members,
                       std::size_t begin, std::size_t end);

/// Outcome accounting common to all error-correction strategies.
struct EcStats {
  std::size_t parity_queries = 0;  // == parity bits disclosed
  std::size_t corrections = 0;     // bits flipped on Bob's side
  std::size_t rounds = 0;          // protocol rounds / passes executed
  bool converged = false;          // protocol believes the strings now match
};

}  // namespace qkd::proto
