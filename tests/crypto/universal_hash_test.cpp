#include "src/crypto/universal_hash.hpp"

#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

#include "src/common/rng.hpp"
#include "src/crypto/gf2n.hpp"

namespace qkd::crypto {
namespace {

TEST(ToeplitzHash, IsLinearInTheMessage) {
  // H(m1 ^ m2) == H(m1) ^ H(m2) — the defining property used by the
  // Toeplitz + one-time-pad construction.
  QKD_SEEDED_RNG(rng, 1);
  const unsigned tag_bits = 64;
  const std::size_t msg_bits = 256;
  const auto key = rng.next_bits(tag_bits + msg_bits - 1);
  const auto m1 = rng.next_bits(msg_bits);
  const auto m2 = rng.next_bits(msg_bits);
  const auto h1 = toeplitz_hash(key, m1, tag_bits);
  const auto h2 = toeplitz_hash(key, m2, tag_bits);
  const auto h12 = toeplitz_hash(key, m1 ^ m2, tag_bits);
  EXPECT_EQ(h12, h1 ^ h2);
}

TEST(ToeplitzHash, ZeroMessageHashesToZero) {
  QKD_SEEDED_RNG(rng, 2);
  const auto key = rng.next_bits(64 + 128 - 1);
  EXPECT_EQ(toeplitz_hash(key, qkd::BitVector(128), 64).popcount(), 0u);
}

TEST(ToeplitzHash, KeyTooShortThrows) {
  QKD_SEEDED_RNG(rng, 3);
  EXPECT_THROW(toeplitz_hash(rng.next_bits(100), rng.next_bits(100), 64),
               std::invalid_argument);
}

TEST(ToeplitzHash, CollisionRateNearTwoToMinusTag) {
  // For random keys, Pr[H(m1) == H(m2)] for fixed m1 != m2 is 2^-t.
  // With t = 8 and 2000 trials we expect ~8 collisions; accept generously.
  QKD_SEEDED_RNG(rng, 4);
  const unsigned tag_bits = 8;
  const std::size_t msg_bits = 64;
  const auto m1 = rng.next_bits(msg_bits);
  auto m2 = m1;
  m2.flip(10);
  int collisions = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const auto key = rng.next_bits(tag_bits + msg_bits - 1);
    collisions +=
        toeplitz_hash(key, m1, tag_bits) == toeplitz_hash(key, m2, tag_bits);
  }
  EXPECT_LT(collisions, 25);  // mean ~7.8, generous ceiling
}

TEST(PolyHash64, DeterministicAndKeySensitive) {
  const Bytes msg = {1, 2, 3, 4, 5};
  EXPECT_EQ(poly_hash64(42, msg), poly_hash64(42, msg));
  EXPECT_NE(poly_hash64(42, msg), poly_hash64(43, msg));
}

TEST(PolyHash64, LengthIsAuthenticated) {
  const Bytes a = {1, 2, 3, 0};
  const Bytes b = {1, 2, 3};
  EXPECT_NE(poly_hash64(7, a), poly_hash64(7, b));
}

/// poly_hash64 as first written: every block multiplied through
/// Gf2Field on BitVectors. The table-driven form must match it bit for bit.
std::uint64_t reference_poly_hash64(std::uint64_t key,
                                    std::span<const std::uint8_t> message) {
  const Gf2Field field(64);
  const qkd::BitVector k = qkd::BitVector::from_uint64(key, 64);
  qkd::BitVector acc(64);
  auto absorb = [&](std::uint64_t block) {
    acc = field.multiply(acc, k);
    acc ^= qkd::BitVector::from_uint64(block, 64);
  };
  for (std::size_t off = 0; off < message.size(); off += 8) {
    std::uint64_t block = 0;
    for (std::size_t i = off; i < std::min(off + 8, message.size()); ++i)
      block |= static_cast<std::uint64_t>(message[i]) << (8 * (i - off));
    absorb(block);
  }
  absorb(static_cast<std::uint64_t>(message.size()));
  return acc.to_uint64();
}

TEST(PolyHash64, MatchesFieldArithmeticOverRandomLengths) {
  // Lengths 0..4 KiB cover the empty message, every tail-block width and
  // the length block; each message is also streamed in random pieces.
  QKD_SEEDED_RNG(rng, 17);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t key = rng.next_u64();
    const std::size_t len = rng.next_u64() % 4097;
    Bytes message(len);
    for (auto& byte : message) byte = static_cast<std::uint8_t>(rng.next_u64());
    const std::uint64_t expected = reference_poly_hash64(key, message);
    ASSERT_EQ(poly_hash64(key, message), expected) << "len " << len;

    PolyHash64 stream(key);
    for (std::size_t off = 0; off < len;) {
      const std::size_t piece = std::min<std::size_t>(rng.next_u64() % 20, len - off);
      stream.update(std::span<const std::uint8_t>(message.data() + off, piece));
      off += piece;
    }
    ASSERT_EQ(stream.digest(), expected) << "streamed, len " << len;
  }
}

TEST(PolyHash64, KnownAnswers) {
  // Recorded from the BitVector/Gf2Field evaluation.
  Bytes message;
  for (int i = 0; i < 100; ++i)
    message.push_back(static_cast<std::uint8_t>(i * 37 + 11));
  const std::uint64_t key = 0x0123456789ABCDEFull;
  const std::pair<std::size_t, std::uint64_t> answers[] = {
      {0, 0x0000000000000000ull},  {1, 0x0a7fe494d7a23948ull},
      {7, 0x06af3817bb3136cdull},  {8, 0x1c3cdc2eb0f787afull},
      {9, 0x51b56a799320f20dull},  {63, 0xbb6e957afa040fceull},
      {64, 0x3a365a891a09951aull}, {100, 0x09cf1dce00eec643ull}};
  for (const auto& [len, digest] : answers)
    EXPECT_EQ(poly_hash64(key, std::span<const std::uint8_t>(message.data(), len)),
              digest)
        << "len " << len;
}

TEST(PolyHash64, DigestLeavesTheStreamOpen) {
  const Bytes a = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const Bytes b = {10, 11, 12};
  Bytes ab = a;
  ab.insert(ab.end(), b.begin(), b.end());
  PolyHash64 stream(99);
  stream.update(a);
  EXPECT_EQ(stream.digest(), poly_hash64(99, a));
  stream.update(b);
  EXPECT_EQ(stream.digest(), poly_hash64(99, ab));
}

TEST(WegmanCarter, TagVerifyRoundTrip) {
  QKD_SEEDED_RNG(rng, 5);
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 64,
                                        .max_message_bits = 1024};
  const auto secret = rng.next_bits(64 + 1024 - 1 + 640);
  WegmanCarterAuthenticator alice(cfg, secret);
  WegmanCarterAuthenticator bob(cfg, secret);
  const Bytes msg = {'s', 'i', 'f', 't'};
  const auto tag = alice.tag(msg);
  ASSERT_TRUE(tag.has_value());
  EXPECT_TRUE(bob.verify(msg, *tag));
}

TEST(WegmanCarter, TamperedMessageRejected) {
  QKD_SEEDED_RNG(rng, 6);
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 64,
                                        .max_message_bits = 1024};
  const auto secret = rng.next_bits(64 + 1024 - 1 + 640);
  WegmanCarterAuthenticator alice(cfg, secret);
  WegmanCarterAuthenticator bob(cfg, secret);
  Bytes msg = {'s', 'i', 'f', 't'};
  const auto tag = alice.tag(msg);
  ASSERT_TRUE(tag.has_value());
  msg[0] ^= 1;
  EXPECT_FALSE(bob.verify(msg, *tag));
}

TEST(WegmanCarter, PadExhaustionReturnsNullopt) {
  QKD_SEEDED_RNG(rng, 7);
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 64,
                                        .max_message_bits = 256};
  // Exactly enough for the Toeplitz key + 2 tags of pad.
  const auto secret = rng.next_bits((64 + 256 - 1) + 128);
  WegmanCarterAuthenticator auth(cfg, secret);
  const Bytes msg = {1};
  EXPECT_TRUE(auth.tag(msg).has_value());
  EXPECT_TRUE(auth.tag(msg).has_value());
  EXPECT_FALSE(auth.tag(msg).has_value());  // exhausted: the DoS of Sec. 2
  EXPECT_EQ(auth.pad_bits_consumed(), 128u);
}

TEST(WegmanCarter, ReplenishRestoresTagging) {
  QKD_SEEDED_RNG(rng, 8);
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 64,
                                        .max_message_bits = 256};
  const auto secret = rng.next_bits(64 + 256 - 1);  // zero pad bits
  WegmanCarterAuthenticator auth(cfg, secret);
  const Bytes msg = {9};
  EXPECT_FALSE(auth.tag(msg).has_value());
  auth.replenish(rng.next_bits(64));
  EXPECT_TRUE(auth.tag(msg).has_value());
}

TEST(WegmanCarter, TagsOfSameMessageDifferAcrossPads) {
  // Fresh pad per message: identical messages must not produce identical
  // tags, or Eve learns hash collisions.
  QKD_SEEDED_RNG(rng, 9);
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 64,
                                        .max_message_bits = 256};
  const auto secret = rng.next_bits(64 + 256 - 1 + 1280);
  WegmanCarterAuthenticator auth(cfg, secret);
  const Bytes msg = {1, 2, 3};
  const auto t1 = auth.tag(msg);
  const auto t2 = auth.tag(msg);
  ASSERT_TRUE(t1 && t2);
  EXPECT_NE(*t1, *t2);
}

TEST(WegmanCarter, OversizeMessageThrows) {
  QKD_SEEDED_RNG(rng, 10);
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 32,
                                        .max_message_bits = 64};
  const auto secret = rng.next_bits(32 + 64 - 1 + 320);
  WegmanCarterAuthenticator auth(cfg, secret);
  EXPECT_THROW(auth.tag(Bytes(9)), std::invalid_argument);
}

TEST(WegmanCarter, ShortInitialSecretThrows) {
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 64,
                                        .max_message_bits = 1024};
  EXPECT_THROW(WegmanCarterAuthenticator(cfg, qkd::BitVector(100)),
               std::invalid_argument);
}

TEST(WegmanCarter, ForgeryProbabilityIsLow) {
  // An attacker without the pad cannot guess a 16-bit tag much better than
  // 2^-16; try 5000 random forgeries and expect ~0 successes.
  QKD_SEEDED_RNG(rng, 11);
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 16,
                                        .max_message_bits = 64};
  const Bytes msg = {0x42};
  int forged = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto secret = rng.next_bits(16 + 64 - 1 + 16);
    WegmanCarterAuthenticator verifier(cfg, secret);
    const auto guess = rng.next_bits(16);
    forged += verifier.verify(msg, guess);
  }
  EXPECT_LE(forged, 1);
}

}  // namespace
}  // namespace qkd::crypto
