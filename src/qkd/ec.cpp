#include "src/qkd/ec.hpp"

#include <stdexcept>

#include "src/common/rng.hpp"

namespace qkd::proto {

wire::ParityRequest ParityQuery::to_request() const {
  wire::ParityRequest request;
  request.kind = static_cast<std::uint8_t>(kind);
  request.seed = seed;
  request.begin = begin;
  request.end = end;
  return request;
}

ParityQuery ParityQuery::from_request(const wire::ParityRequest& request) {
  ParityQuery query;
  query.kind = static_cast<Kind>(request.kind);
  query.seed = request.seed;
  query.begin = request.begin;
  query.end = request.end;
  return query;
}

qkd::BitVector subset_mask_from_seed(std::uint32_t seed, std::size_t n) {
  std::uint64_t mix = 0x5eedba5e00000000ULL | seed;
  qkd::Rng rng(splitmix64(mix));
  return rng.next_bits(n);
}

std::vector<std::uint32_t> lfsr_members(std::uint32_t seed, std::size_t n) {
  const qkd::BitVector mask = subset_mask_from_seed(seed, n);
  std::vector<std::uint32_t> members;
  members.reserve(n / 2 + 1);
  for (std::size_t i = 0; i < n; ++i)
    if (mask.get(i)) members.push_back(static_cast<std::uint32_t>(i));
  return members;
}

std::vector<std::uint32_t> seeded_permutation(std::uint32_t seed,
                                              std::size_t n) {
  std::vector<std::uint32_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<std::uint32_t>(i);
  qkd::Rng rng(0x9e3779b97f4a7c15ULL ^ (static_cast<std::uint64_t>(seed) << 16));
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

bool parity_of_members(const qkd::BitVector& bits,
                       const std::vector<std::uint32_t>& members,
                       std::size_t begin, std::size_t end) {
  if (begin > end || end > members.size())
    throw std::out_of_range("parity_of_members: bad range");
  bool p = false;
  for (std::size_t i = begin; i < end; ++i) p ^= bits.get(members[i]);
  return p;
}

LocalParityOracle::LocalParityOracle(const qkd::BitVector& bits)
    : bits_(bits) {}

bool LocalParityOracle::parity(const ParityQuery& query) {
  auto& cache = query.kind == ParityQuery::Kind::kLfsrSubset ? lfsr_cache_
                                                             : perm_cache_;
  const std::vector<std::uint32_t>* members = nullptr;
  for (const auto& [seed, m] : cache) {
    if (seed == query.seed) {
      members = &m;
      break;
    }
  }
  if (members == nullptr) {
    if (cache.size() >= 128) cache.erase(cache.begin());
    auto expanded = query.kind == ParityQuery::Kind::kLfsrSubset
                        ? lfsr_members(query.seed, bits_.size())
                        : seeded_permutation(query.seed, bits_.size());
    cache.emplace_back(query.seed, std::move(expanded));
    members = &cache.back().second;
  }
  // Counted only once answered: a range outside the string throws first.
  const bool parity = parity_of_members(bits_, *members, query.begin, query.end);
  ++disclosed_;
  return parity;
}

}  // namespace qkd::proto
