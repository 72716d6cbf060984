// The Appendix's run-length encoding of sift messages ("runs of identical
// values (and in particular of 'no detection' values) are compressed to
// take very little space"), as the wire carries it: put_bits_sparse writes
// each click as the length of the run of no-detection slots before it.
#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/wire/packets.hpp"
#include "tests/testing/seeded_rng.hpp"

namespace qkd::wire {
namespace {

Bytes encode(const BitVector& bits) {
  Bytes out;
  put_bits_sparse(out, bits);
  return out;
}

/// Strict decode of one encoded bitmap: malformed input or trailing bytes
/// throw.
BitVector decode(const Bytes& encoded) {
  ByteReader reader(encoded);
  BitVector bits = get_bits_sparse(reader);
  if (!reader.done()) throw std::invalid_argument("trailing bytes");
  return bits;
}

TEST(Rle, EmptyBitmap) {
  const BitVector empty;
  EXPECT_EQ(decode(encode(empty)), empty);
}

TEST(Rle, RoundTripsPatterns) {
  for (const char* pattern :
       {"0", "1", "01", "10", "0000000", "1111111", "010101",
        "0000000100000000000000110000"}) {
    const auto bits = BitVector::from_string(pattern);
    EXPECT_EQ(decode(encode(bits)), bits) << pattern;
  }
}

TEST(Rle, RoundTripsRandomDense) {
  QKD_SEEDED_RNG(rng, 1);
  for (std::size_t n : {1u, 63u, 64u, 65u, 1000u}) {
    const auto bits = rng.next_bits(n);
    EXPECT_EQ(decode(encode(bits)), bits) << n;
  }
}

TEST(Rle, RoundTripsSparseDetectionBitmap) {
  // The actual use case: ~0.3 % detection probability over a 1 M slot frame.
  QKD_SEEDED_RNG(rng, 2);
  BitVector bits(100000);
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (rng.next_bool(0.003)) bits.set(i, true);
  EXPECT_EQ(decode(encode(bits)), bits);
}

TEST(Rle, CompressesSparseBitmapsHard) {
  // Appendix: runs of "no detection" must take very little space.
  QKD_SEEDED_RNG(rng, 3);
  BitVector bits(1 << 20);
  std::size_t detections = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (rng.next_bool(0.003)) {
      bits.set(i, true);
      ++detections;
    }
  }
  const Bytes encoded = encode(bits);
  const std::size_t raw = (bits.size() + 7) / 8;
  // ~1.7 bytes per detection vs 128 KiB raw: at least 10x smaller here.
  EXPECT_LT(encoded.size(), raw / 10);
  EXPECT_LT(encoded.size(), detections * 5 + 16);
}

TEST(Rle, DenseBitmapDoesNotExplode) {
  // Worst case (alternating bits) must stay within ~2 bytes/transition.
  BitVector bits(1000);
  for (std::size_t i = 0; i < bits.size(); i += 2) bits.set(i, true);
  EXPECT_LT(encode(bits).size(), 2 * bits.size() + 16);
}

TEST(Rle, RejectsMalformedInput) {
  EXPECT_ANY_THROW(decode(Bytes{}));
  // Header says 8 bits but no runs follow.
  Bytes truncated;
  put_varint(truncated, 8);
  EXPECT_ANY_THROW(decode(truncated));
  // Run overflowing the declared size.
  Bytes overflow;
  put_varint(overflow, 4);
  put_varint(overflow, 1);
  put_varint(overflow, 100);
  EXPECT_ANY_THROW(decode(overflow));
  // Trailing junk after a complete bitmap.
  Bytes trailing = encode(BitVector::from_string("0101"));
  trailing.push_back(0x00);
  EXPECT_ANY_THROW(decode(trailing));
}

}  // namespace
}  // namespace qkd::wire
