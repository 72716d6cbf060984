#include "src/crypto/drbg.hpp"

#include <algorithm>
#include <array>

namespace qkd::crypto {

Drbg::Drbg(std::span<const std::uint8_t> seed) { state_ = Sha1::hash(seed); }

Drbg::Drbg(std::uint64_t seed) {
  Bytes b;
  put_u64(b, seed);
  state_ = Sha1::hash(b);
}

void Drbg::fill(std::uint8_t* out, std::size_t n_bytes) {
  // Output blocks are SHA-1(state || counter), counter big-endian; each
  // input fits one SHA-1 block, and everything lives on the stack.
  std::array<std::uint8_t, Sha1::kDigestSize + 8> block;
  std::copy(state_.begin(), state_.end(), block.begin());
  for (std::size_t done = 0; done < n_bytes;) {
    for (int i = 0; i < 8; ++i)
      block[Sha1::kDigestSize + i] =
          static_cast<std::uint8_t>(counter_ >> (56 - 8 * i));
    ++counter_;
    const auto digest = Sha1::hash(block);
    const std::size_t take = std::min(n_bytes - done, digest.size());
    std::copy_n(digest.begin(), take, out + done);
    done += take;
  }
  // Ratchet the state forward so earlier output cannot be recovered from a
  // captured state (backtracking resistance).
  std::array<std::uint8_t, Sha1::kDigestSize + 1> ratchet;
  std::copy(state_.begin(), state_.end(), ratchet.begin());
  ratchet.back() = 0xff;
  state_ = Sha1::hash(ratchet);
}

Bytes Drbg::generate(std::size_t n_bytes) {
  Bytes out(n_bytes);
  fill(out.data(), n_bytes);
  return out;
}

qkd::BitVector Drbg::generate_bits(std::size_t n_bits) {
  const Bytes bytes = generate((n_bits + 7) / 8);
  qkd::BitVector bits = qkd::BitVector::from_bytes(bytes);
  bits.resize(n_bits);
  return bits;
}

std::uint32_t Drbg::next_u32() {
  std::array<std::uint8_t, 4> b;
  fill(b.data(), b.size());
  return static_cast<std::uint32_t>(b[0]) << 24 |
         static_cast<std::uint32_t>(b[1]) << 16 |
         static_cast<std::uint32_t>(b[2]) << 8 | b[3];
}

std::uint64_t Drbg::next_u64() {
  // The first draw is the high half (sequenced explicitly: the operands of
  // `|` have no evaluation order of their own).
  const std::uint64_t high = next_u32();
  return high << 32 | next_u32();
}

void Drbg::reseed(std::span<const std::uint8_t> entropy) {
  Bytes mix(state_.begin(), state_.end());
  mix.insert(mix.end(), entropy.begin(), entropy.end());
  state_ = Sha1::hash(mix);
}

}  // namespace qkd::crypto
