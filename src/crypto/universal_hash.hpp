// Universal hashing for QKD authentication (Wegman & Carter).
//
// BB84's original paper sketched authentication via universal families of
// hash functions [Wegman & Carter 1981]: Alice and Bob share a small secret
// key that selects a hash function; any forger who does not know the key has
// probability <= 2^-tag_bits of producing a valid tag, *regardless of
// computational power* — exactly the adversary model of Section 6.
//
// Two families are provided:
//  * ToeplitzHash — an (m x n) Toeplitz matrix over GF(2), described by
//    m+n-1 key bits. XOR-universal; with a fresh one-time pad applied to the
//    tag the Toeplitz key itself is reusable (this is the standard
//    "LFSR/Toeplitz + OTP" construction QKD systems deploy, and is what the
//    WegmanCarterAuthenticator below consumes key bits for).
//  * PolyHash64 — polynomial evaluation over GF(2^64); a constant 64-bit
//    key and eps = blocks/2^64. It compresses a whole Qframe's
//    conversation to one 64-bit digest, which the Toeplitz hash then tags
//    (src/qkd/authentication.hpp), so the Toeplitz key never has to span
//    the conversation itself.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "src/common/bitvector.hpp"
#include "src/common/bytes.hpp"

namespace qkd::crypto {

/// Hash of an arbitrary-length message to `tag_bits` bits using a Toeplitz
/// matrix whose diagonals are `key` (key.size() must be tag_bits+msg_bits-1).
qkd::BitVector toeplitz_hash(const qkd::BitVector& key,
                             const qkd::BitVector& message, unsigned tag_bits);

/// Polynomial-evaluation hash over GF(2^64) (modulus x^64+x^4+x^3+x+1):
/// the message, cut into 8-byte little-endian blocks m_1..m_t (the last
/// zero-padded) and followed by its byte length L, is evaluated at the key
/// point k by Horner's rule (acc <- acc*k ^ block, from acc = 0):
/// H(m) = m_1*k^t + ... + m_t*k + L. Two distinct messages of at most t
/// blocks differ in a nonzero polynomial of degree <= t, so they collide
/// for at most t keys: the family is eps-almost-universal, eps = t/2^64.
std::uint64_t poly_hash64(std::uint64_t key, std::span<const std::uint8_t> message);

/// poly_hash64 in streaming form: update() takes the message in pieces of
/// any size, and digest() equals poly_hash64(key, <everything so far>)
/// without closing the stream. Multiplying by the fixed key goes through a
/// 4-bit table built once per key (16 nibble positions x 16 values), so a
/// block costs 16 lookups and no allocation.
class PolyHash64 {
 public:
  explicit PolyHash64(std::uint64_t key);

  void update(std::span<const std::uint8_t> data);
  std::uint64_t digest() const;

 private:
  std::uint64_t times_key(std::uint64_t x) const;
  void absorb(std::uint64_t block) { acc_ = times_key(acc_) ^ block; }

  std::array<std::array<std::uint64_t, 16>, 16> table_{};
  std::uint64_t acc_ = 0;
  std::uint64_t partial_ = 0;  // bytes of the block not yet complete
  std::uint64_t length_ = 0;   // bytes taken so far
};

/// A Wegman–Carter authenticator bound to a pool of one-time secret bits.
///
/// Construction: tag = toeplitz_hash(K_toeplitz, message) XOR pad, where
/// K_toeplitz is fixed per association (consumed once, at construction time,
/// from the shared secret) and `pad` is `tag_bits` fresh of one-time key per
/// message. The pad is what makes tags single-use-secure; running out of pad
/// bits is the key-exhaustion DoS discussed in Section 2 of the paper.
class WegmanCarterAuthenticator {
 public:
  struct Config {
    unsigned tag_bits = 64;
    /// Maximum message length in bits the Toeplitz key supports.
    unsigned max_message_bits = 1 << 16;
  };

  /// Draws the Toeplitz key from `initial_secret` (throws std::invalid_argument
  /// if it is too short: needs tag_bits + max_message_bits - 1 bits).
  WegmanCarterAuthenticator(Config config, const qkd::BitVector& initial_secret);

  /// Bits of one-time pad required per tag.
  unsigned pad_bits_per_tag() const { return config_.tag_bits; }

  /// Appends fresh secret bits (e.g. distilled QKD output) to the pad pool.
  void replenish(const qkd::BitVector& bits);

  /// Remaining pad bits (== number of tags still issuable * tag_bits).
  std::size_t pad_bits_available() const;

  /// Tags a message, consuming pad bits; returns nullopt if the pad pool is
  /// exhausted (the caller decides whether that is an alarm or a stall).
  std::optional<qkd::BitVector> tag(const Bytes& message);

  /// Verifies and consumes pad bits in lockstep with the peer's tag().
  /// Returns false on mismatch OR exhaustion.
  bool verify(const Bytes& message, const qkd::BitVector& tag);

  /// Slot-addressed variants: pad bits for slot `s` live at a fixed pool
  /// offset (s * tag_bits), so tag and verification stay paired by the
  /// message's sequence number rather than by call count. This is what
  /// lets a lossy wire retransmit an identical envelope: the receiver
  /// verifies the retransmission against the same pad, and a FAILED verify
  /// consumes nothing (a forger cannot burn the pool by spraying frames).
  std::optional<qkd::BitVector> tag_at(const Bytes& message, std::size_t slot);
  bool verify_at(const Bytes& message, const qkd::BitVector& tag,
                 std::size_t slot);

  /// Total pad bits consumed so far (for the key-consumption accounting
  /// benches).
  std::size_t pad_bits_consumed() const { return consumed_; }

 private:
  qkd::BitVector next_pad();

  Config config_;
  qkd::BitVector toeplitz_key_;
  qkd::BitVector pad_pool_;
  std::size_t pad_cursor_ = 0;
  std::size_t consumed_ = 0;
};

}  // namespace qkd::crypto
