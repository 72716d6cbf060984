#include "src/qkd/cascade_classic.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

namespace qkd::proto {
namespace {

/// One pass: a permutation of the bit positions partitioned into fixed-size
/// blocks, with lazily-fetched Alice parities.
struct Pass {
  std::uint32_t perm_seed;
  std::size_t block_size;
  std::vector<std::uint32_t> perm;          // permuted position order
  std::vector<std::uint32_t> inv;           // position -> index in perm
  std::vector<std::optional<bool>> alice;   // per block, once fetched
  std::vector<bool> bob;                    // per block, kept current

  std::size_t num_blocks() const {
    return (perm.size() + block_size - 1) / block_size;
  }
  std::size_t block_begin(std::size_t b) const { return b * block_size; }
  std::size_t block_end(std::size_t b) const {
    return std::min(perm.size(), (b + 1) * block_size);
  }
  std::size_t block_of_position(std::uint32_t pos) const {
    return inv[pos] / block_size;
  }
};

bool fetch_alice_parity(Pass& pass, std::size_t block, ParityOracle& alice,
                        EcStats& stats) {
  auto& cached = pass.alice[block];
  if (!cached.has_value()) {
    ParityQuery q;
    q.kind = ParityQuery::Kind::kPermutedRange;
    q.seed = pass.perm_seed;
    q.begin = static_cast<std::uint32_t>(pass.block_begin(block));
    q.end = static_cast<std::uint32_t>(pass.block_end(block));
    cached = alice.parity(q);
    ++stats.parity_queries;
  }
  return *cached;
}

/// Bisects block `block` of `pass` (whose parities are known to mismatch)
/// down to one bit and flips it. Returns the flipped position.
std::uint32_t bisect_block(qkd::BitVector& bob_bits, Pass& pass,
                           std::size_t block, ParityOracle& alice,
                           EcStats& stats) {
  std::size_t lo = pass.block_begin(block), hi = pass.block_end(block);
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ParityQuery q;
    q.kind = ParityQuery::Kind::kPermutedRange;
    q.seed = pass.perm_seed;
    q.begin = static_cast<std::uint32_t>(lo);
    q.end = static_cast<std::uint32_t>(mid);
    const bool alice_left = alice.parity(q);
    ++stats.parity_queries;
    const bool bob_left = parity_of_members(bob_bits, pass.perm, lo, mid);
    if (alice_left != bob_left)
      hi = mid;
    else
      lo = mid;
  }
  const std::uint32_t pos = pass.perm[lo];
  bob_bits.flip(pos);
  ++stats.corrections;
  return pos;
}

}  // namespace

EcStats classic_cascade_correct(qkd::BitVector& bob_bits, ParityOracle& alice,
                                double qber_estimate,
                                const ClassicCascadeConfig& config) {
  EcStats stats;
  const std::size_t n = bob_bits.size();
  if (n == 0) {
    stats.converged = true;
    return stats;
  }

  const double q = std::max(qber_estimate, 1e-4);
  std::size_t k1 = static_cast<std::size_t>(config.block_factor / q);
  k1 = std::clamp(k1, config.min_block, n);

  std::vector<Pass> passes;
  passes.reserve(config.passes);

  // (pass index, block index) pairs known to mismatch and awaiting bisection.
  std::deque<std::pair<std::size_t, std::size_t>> work;

  auto refresh_bob_parity = [&](Pass& pass, std::size_t block) {
    pass.bob[block] = parity_of_members(bob_bits, pass.perm,
                                        pass.block_begin(block),
                                        pass.block_end(block));
  };

  for (unsigned pi = 0; pi < config.passes; ++pi) {
    ++stats.rounds;
    Pass pass;
    pass.perm_seed = config.seed_base + pi;
    pass.block_size = std::min<std::size_t>(n, k1 << pi);
    pass.perm = seeded_permutation(pass.perm_seed, n);
    pass.inv.resize(n);
    for (std::size_t i = 0; i < n; ++i) pass.inv[pass.perm[i]] = static_cast<std::uint32_t>(i);
    pass.alice.resize(pass.num_blocks());
    pass.bob.resize(pass.num_blocks());
    for (std::size_t b = 0; b < pass.num_blocks(); ++b)
      refresh_bob_parity(pass, b);
    passes.push_back(std::move(pass));
    const std::size_t this_pass = passes.size() - 1;

    // Compare every block of the new pass.
    for (std::size_t b = 0; b < passes[this_pass].num_blocks(); ++b) {
      const bool ap = fetch_alice_parity(passes[this_pass], b, alice, stats);
      if (ap != passes[this_pass].bob[b]) work.emplace_back(this_pass, b);
    }

    // Drain the cascade: each fix may re-open blocks in any earlier pass.
    while (!work.empty()) {
      const auto [wp, wb] = work.front();
      work.pop_front();
      Pass& pass_ref = passes[wp];
      const bool ap = fetch_alice_parity(pass_ref, wb, alice, stats);
      if (ap == pass_ref.bob[wb]) continue;  // already healed by another fix
      // Honest parities lead every bisection to a real error, so at most n
      // corrections; more means the answers contradict each other (altered
      // in flight) and the cascade would never drain.
      if (stats.corrections >= n) {
        stats.converged = false;
        return stats;
      }

      const std::uint32_t fixed = bisect_block(bob_bits, pass_ref, wb, alice, stats);

      // Update Bob's recorded parities in every pass built so far and
      // requeue blocks that now mismatch a known Alice parity.
      for (std::size_t opi = 0; opi < passes.size(); ++opi) {
        Pass& other = passes[opi];
        const std::size_t ob = other.block_of_position(fixed);
        other.bob[ob] = !other.bob[ob];
        if (other.alice[ob].has_value() && *other.alice[ob] != other.bob[ob])
          work.emplace_back(opi, ob);
      }
    }
  }

  // Converged if the final pass ends with all compared parities equal; since
  // the work queue drained, every known parity pair matches.
  stats.converged = true;
  return stats;
}

}  // namespace qkd::proto
