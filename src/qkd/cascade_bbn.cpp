#include "src/qkd/cascade_bbn.hpp"

#include <algorithm>
#include <vector>

namespace qkd::proto {
namespace {

/// One announced subset: its seed, expanded member list, Alice's parity for
/// the full subset, and Bob's current parity.
struct Subset {
  std::uint32_t seed;
  std::vector<std::uint32_t> members;
  bool alice_parity;
  bool bob_parity;

  bool mismatched() const { return alice_parity != bob_parity; }
};

/// Bisects subset `s` down to one erroneous member and flips it in
/// `bob_bits`. Precondition: s.mismatched(). Returns the flipped position.
std::uint32_t bisect_fix(qkd::BitVector& bob_bits, ParityOracle& alice,
                         const Subset& s, EcStats& stats) {
  std::size_t lo = 0, hi = s.members.size();
  // Invariant: parity over members[lo, hi) differs between Alice and Bob.
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ParityQuery q;
    q.kind = ParityQuery::Kind::kLfsrSubset;
    q.seed = s.seed;
    q.begin = static_cast<std::uint32_t>(lo);
    q.end = static_cast<std::uint32_t>(mid);
    const bool alice_left = alice.parity(q);
    ++stats.parity_queries;
    const bool bob_left = parity_of_members(bob_bits, s.members, lo, mid);
    if (alice_left != bob_left)
      hi = mid;  // the odd-error half is the left one
    else
      lo = mid;
  }
  const std::uint32_t pos = s.members[lo];
  bob_bits.flip(pos);
  ++stats.corrections;
  return pos;
}

}  // namespace

EcStats bbn_cascade_correct(qkd::BitVector& bob_bits, ParityOracle& alice,
                            const BbnCascadeConfig& config) {
  EcStats stats;
  const std::size_t n = bob_bits.size();
  if (n == 0) {
    stats.converged = true;
    return stats;
  }

  std::uint32_t next_seed = config.seed_base;
  unsigned clean_rounds = 0;

  for (unsigned round = 0; round < config.max_rounds; ++round) {
    ++stats.rounds;

    // Announce this round's subsets and exchange full-subset parities.
    std::vector<Subset> subsets;
    subsets.reserve(config.subsets_per_round);
    for (unsigned i = 0; i < config.subsets_per_round; ++i) {
      Subset s;
      s.seed = next_seed++;
      s.members = lfsr_members(s.seed, n);
      if (s.members.empty()) continue;
      ParityQuery q;
      q.kind = ParityQuery::Kind::kLfsrSubset;
      q.seed = s.seed;
      q.begin = 0;
      q.end = static_cast<std::uint32_t>(s.members.size());
      s.alice_parity = alice.parity(q);
      ++stats.parity_queries;
      s.bob_parity = parity_of_members(bob_bits, s.members, 0, s.members.size());
      subsets.push_back(std::move(s));
    }

    bool round_had_mismatch = false;
    // "This will clear up some discrepancies but may introduce other new
    // ones, and so the process continues": loop until no subset mismatches.
    for (;;) {
      Subset* target = nullptr;
      for (auto& s : subsets) {
        if (s.mismatched()) {
          target = &s;
          break;
        }
      }
      if (target == nullptr) break;
      round_had_mismatch = true;
      // Honest parities lead every bisection to a real error, so at most n
      // corrections; more means the answers contradict each other (altered
      // in flight) and the loop would never settle.
      if (stats.corrections >= bob_bits.size()) {
        stats.converged = false;
        return stats;
      }

      const std::uint32_t fixed_pos = bisect_fix(bob_bits, alice, *target, stats);

      // Both sides flip the recorded parity of every subset containing the
      // corrected bit (local bookkeeping, nothing on the wire).
      for (auto& s : subsets) {
        const bool contains =
            std::binary_search(s.members.begin(), s.members.end(), fixed_pos);
        if (contains) s.bob_parity = !s.bob_parity;
      }
    }

    if (!round_had_mismatch) {
      if (++clean_rounds >= config.clean_rounds_to_converge) {
        stats.converged = true;
        return stats;
      }
    } else {
      clean_rounds = 0;
    }
  }
  // Round limit hit; convergence unknown — report honestly.
  stats.converged = false;
  return stats;
}

}  // namespace qkd::proto
