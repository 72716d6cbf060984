#include "src/crypto/sha1.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace qkd::crypto {

Sha1::Sha1()
    : h_{0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u},
      buffer_{} {}

void Sha1::update(std::span<const std::uint8_t> data) {
  if (finished_) throw std::logic_error("Sha1::update after finish");
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Sha1::Digest Sha1::finish() {
  if (finished_) throw std::logic_error("Sha1::finish called twice");
  finished_ = true;
  const std::uint64_t bit_len = total_bytes_ * 8;
  std::uint8_t pad = 0x80;
  // Pad with 0x80 then zeros until 8 bytes remain in the block.
  buffer_[buffered_++] = pad;
  if (buffered_ > 56) {
    while (buffered_ < 64) buffer_[buffered_++] = 0;
    process_block(buffer_.data());
    buffered_ = 0;
  }
  while (buffered_ < 56) buffer_[buffered_++] = 0;
  for (int i = 7; i >= 0; --i)
    buffer_[buffered_++] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  process_block(buffer_.data());

  return digest();
}

Sha1::Digest Sha1::digest() const {
  Digest out;
  for (std::size_t i = 0; i < 5; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Sha1::Digest Sha1::hash(std::span<const std::uint8_t> data) {
  Sha1 s;
  if (data.size() > 55) {
    s.update(data);
    return s.finish();
  }
  // Short input: message, 0x80, zeros and the bit length fit one block,
  // padded here directly.
  std::uint8_t block[64] = {};
  std::copy(data.begin(), data.end(), block);
  block[data.size()] = 0x80;
  const std::uint64_t bit_len = data.size() * 8;
  for (int i = 0; i < 8; ++i)
    block[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  s.process_block(block);
  return s.digest();
}

namespace {

struct Choose {
  std::uint32_t operator()(std::uint32_t b, std::uint32_t c,
                           std::uint32_t d) const {
    return (b & c) | (~b & d);
  }
};
struct Parity {
  std::uint32_t operator()(std::uint32_t b, std::uint32_t c,
                           std::uint32_t d) const {
    return b ^ c ^ d;
  }
};
struct Majority {
  std::uint32_t operator()(std::uint32_t b, std::uint32_t c,
                           std::uint32_t d) const {
    return (b & c) | (b & d) | (c & d);
  }
};

/// One round with the five working words passed in rotated order, so a
/// group of five rounds needs no register shuffling.
template <typename F>
inline void sha1_round(std::uint32_t a, std::uint32_t& b, std::uint32_t c,
                       std::uint32_t d, std::uint32_t& e, std::uint32_t k,
                       std::uint32_t w) {
  e += std::rotl(a, 5) + F{}(b, c, d) + k + w;
  b = std::rotl(b, 30);
}

}  // namespace

void Sha1::process_block(const std::uint8_t* block) {
  // The message schedule lives in a 16-word ring (w[i] for i >= 16 is
  // computed in place as the round needs it).
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
           static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  // Rounds 0-15 read the block's words; from 16 on each round first
  // extends the schedule in place.
  auto expand = [&w](int i) {
    w[i & 15] = std::rotl(
        w[(i - 3) & 15] ^ w[(i - 8) & 15] ^ w[(i - 14) & 15] ^ w[i & 15], 1);
    return w[i & 15];
  };
  auto word = [&](int i) { return i < 16 ? w[i] : expand(i); };
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  auto group = [&]<typename F>(F, int first, std::uint32_t k) {
    for (int i = first; i < first + 20; i += 5) {
      sha1_round<F>(a, b, c, d, e, k, word(i));
      sha1_round<F>(e, a, b, c, d, k, word(i + 1));
      sha1_round<F>(d, e, a, b, c, k, word(i + 2));
      sha1_round<F>(c, d, e, a, b, k, word(i + 3));
      sha1_round<F>(b, c, d, e, a, k, word(i + 4));
    }
  };
  group(Choose{}, 0, 0x5A827999u);
  group(Parity{}, 20, 0x6ED9EBA1u);
  group(Majority{}, 40, 0x8F1BBCDCu);
  group(Parity{}, 60, 0xCA62C1D6u);
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

}  // namespace qkd::crypto
