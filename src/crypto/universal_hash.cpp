#include "src/crypto/universal_hash.hpp"

#include <stdexcept>


namespace qkd::crypto {

qkd::BitVector toeplitz_hash(const qkd::BitVector& key,
                             const qkd::BitVector& message,
                             unsigned tag_bits) {
  if (message.empty()) return qkd::BitVector(tag_bits);
  if (key.size() < tag_bits + message.size() - 1)
    throw std::invalid_argument("toeplitz_hash: key too short");
  // Row i of the Toeplitz matrix is key[i .. i+msg_len); equivalently the
  // tag is the windowed inner product of key and message.
  qkd::BitVector tag(tag_bits);
  for (unsigned i = 0; i < tag_bits; ++i) {
    const qkd::BitVector row = key.slice(i, message.size());
    tag.set(i, row.masked_parity(message));
  }
  return tag;
}

namespace {

/// x^64 = x^4 + x^3 + x + 1 in GF(2^64) (the field's table modulus).
constexpr std::uint64_t kPolyTail = 0x1B;

/// v * x in GF(2^64).
constexpr std::uint64_t times_x(std::uint64_t v) {
  return (v << 1) ^ ((v >> 63) != 0 ? kPolyTail : 0);
}

}  // namespace

PolyHash64::PolyHash64(std::uint64_t key) {
  // table_[i][j] = j * x^(4i) * key, so a product splits into one lookup
  // per nibble of the other factor.
  std::uint64_t power = key;  // key * x^(4i)
  for (auto& row : table_) {
    std::uint64_t bit = power;
    for (unsigned b = 1; b < 16; b <<= 1) {
      for (unsigned j = 0; j < b; ++j) row[b | j] = row[j] ^ bit;
      bit = times_x(bit);
    }
    power = bit;  // four doublings past `power`: key * x^(4(i+1))
  }
}

std::uint64_t PolyHash64::times_key(std::uint64_t x) const {
  std::uint64_t product = 0;
  for (const auto& row : table_) {
    product ^= row[x & 15];
    x >>= 4;
  }
  return product;
}

void PolyHash64::update(std::span<const std::uint8_t> data) {
  std::size_t i = 0;
  unsigned filled = static_cast<unsigned>(length_ % 8);
  length_ += data.size();
  // Finish a pending block byte by byte, then take whole blocks.
  for (; filled != 0 && i < data.size(); ++i) {
    partial_ |= static_cast<std::uint64_t>(data[i]) << (8 * filled);
    if (++filled == 8) {
      absorb(partial_);
      partial_ = 0;
      filled = 0;
    }
  }
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t block = 0;
    for (unsigned b = 0; b < 8; ++b)
      block |= static_cast<std::uint64_t>(data[i + b]) << (8 * b);
    absorb(block);
  }
  for (; i < data.size(); ++i, ++filled)
    partial_ |= static_cast<std::uint64_t>(data[i]) << (8 * filled);
}

std::uint64_t PolyHash64::digest() const {
  std::uint64_t acc = acc_;
  // The zero-padded tail block, then the length block, which separates
  // messages that differ only in trailing zero bytes.
  if (length_ % 8 != 0) acc = times_key(acc) ^ partial_;
  return times_key(acc) ^ length_;
}

std::uint64_t poly_hash64(std::uint64_t key,
                          std::span<const std::uint8_t> message) {
  PolyHash64 hash(key);
  hash.update(message);
  return hash.digest();
}

WegmanCarterAuthenticator::WegmanCarterAuthenticator(
    Config config, const qkd::BitVector& initial_secret)
    : config_(config) {
  const std::size_t key_bits = config_.tag_bits + config_.max_message_bits - 1;
  if (initial_secret.size() < key_bits)
    throw std::invalid_argument(
        "WegmanCarterAuthenticator: initial secret shorter than Toeplitz key");
  toeplitz_key_ = initial_secret.slice(0, key_bits);
  // Whatever remains of the prepositioned secret seeds the pad pool.
  pad_pool_ = initial_secret.slice(key_bits, initial_secret.size() - key_bits);
}

void WegmanCarterAuthenticator::replenish(const qkd::BitVector& bits) {
  pad_pool_.append(bits);
}

std::size_t WegmanCarterAuthenticator::pad_bits_available() const {
  return pad_pool_.size() - pad_cursor_;
}

qkd::BitVector WegmanCarterAuthenticator::next_pad() {
  qkd::BitVector pad = pad_pool_.slice(pad_cursor_, config_.tag_bits);
  pad_cursor_ += config_.tag_bits;
  consumed_ += config_.tag_bits;
  return pad;
}

std::optional<qkd::BitVector> WegmanCarterAuthenticator::tag(
    const Bytes& message) {
  if (pad_bits_available() < config_.tag_bits) return std::nullopt;
  if (message.size() * 8 > config_.max_message_bits)
    throw std::invalid_argument("WegmanCarterAuthenticator: message too long");
  const qkd::BitVector msg_bits = qkd::BitVector::from_bytes(message);
  qkd::BitVector t = toeplitz_hash(toeplitz_key_, msg_bits, config_.tag_bits);
  t ^= next_pad();
  return t;
}

bool WegmanCarterAuthenticator::verify(const Bytes& message,
                                       const qkd::BitVector& tag) {
  const auto expected = this->tag(message);
  return expected.has_value() && *expected == tag;
}

std::optional<qkd::BitVector> WegmanCarterAuthenticator::tag_at(
    const Bytes& message, std::size_t slot) {
  const std::size_t offset = slot * config_.tag_bits;
  if (offset + config_.tag_bits > pad_pool_.size()) return std::nullopt;
  if (message.size() * 8 > config_.max_message_bits)
    throw std::invalid_argument("WegmanCarterAuthenticator: message too long");
  const qkd::BitVector msg_bits = qkd::BitVector::from_bytes(message);
  qkd::BitVector t = toeplitz_hash(toeplitz_key_, msg_bits, config_.tag_bits);
  t ^= pad_pool_.slice(offset, config_.tag_bits);
  if (offset + config_.tag_bits > pad_cursor_) {
    consumed_ += offset + config_.tag_bits - pad_cursor_;
    pad_cursor_ = offset + config_.tag_bits;
  }
  return t;
}

bool WegmanCarterAuthenticator::verify_at(const Bytes& message,
                                          const qkd::BitVector& tag,
                                          std::size_t slot) {
  const std::size_t offset = slot * config_.tag_bits;
  if (offset + config_.tag_bits > pad_pool_.size()) return false;
  if (message.size() * 8 > config_.max_message_bits) return false;
  const qkd::BitVector msg_bits = qkd::BitVector::from_bytes(message);
  qkd::BitVector expected =
      toeplitz_hash(toeplitz_key_, msg_bits, config_.tag_bits);
  expected ^= pad_pool_.slice(offset, config_.tag_bits);
  if (!(expected == tag)) return false;
  // Only a SUCCESSFUL verification consumes the slot's pad.
  if (offset + config_.tag_bits > pad_cursor_) {
    consumed_ += offset + config_.tag_bits - pad_cursor_;
    pad_cursor_ = offset + config_.tag_bits;
  }
  return true;
}

}  // namespace qkd::crypto
