#include "src/wire/packets.hpp"

#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

namespace qkd::wire {
namespace {

/// Frame -> decode_packet must hand back exactly the packet that went in.
template <typename Packet>
Packet round_trip(const Packet& packet) {
  const Bytes framed = to_frame(packet);
  const auto frame = decode_frame(framed);
  EXPECT_TRUE(frame.ok());
  const auto decoded = decode_packet(frame.value);
  EXPECT_TRUE(decoded.ok()) << packet_type_name(Packet::kType);
  EXPECT_TRUE(std::holds_alternative<Packet>(decoded.value));
  return std::get<Packet>(decoded.value);
}

TEST(Packets, QframeFeedRoundTrips) {
  QKD_SEEDED_RNG(rng, 31);
  QframeFeed packet;
  packet.frame_id = 7;
  packet.detected = rng.next_bits(512);
  packet.bases = rng.next_bits(512);
  packet.bits = rng.next_bits(512);
  EXPECT_EQ(round_trip(packet), packet);
}

TEST(Packets, SiftAnnounceRoundTripsSparseMask) {
  // ~1% detection density: the sparse codec's home turf.
  BitVector detected(4096);
  for (std::size_t i = 0; i < detected.size(); i += 97) detected.set(i, true);
  SiftAnnounce packet;
  packet.frame_id = 42;
  packet.detected = detected;
  packet.bob_bases = BitVector(detected.popcount());  // one basis per click
  for (std::size_t i = 0; i < packet.bob_bases.size(); i += 2)
    packet.bob_bases.set(i, true);
  EXPECT_EQ(round_trip(packet), packet);

  // The sparse encoding must beat dense packing at this density.
  Bytes sparse;
  put_bits_sparse(sparse, detected);
  Bytes dense;
  put_bits_dense(dense, detected);
  EXPECT_LT(sparse.size(), dense.size());
}

TEST(Packets, CompactBitmapSendsTheSmallerForm) {
  // A click bitmap at the paper's ~0.3% goes sparse for one byte over the
  // bare sparse form; at 25% and 50% it goes dense for one byte over the
  // raw bitmap, where the sparse form would be two to four times larger.
  QKD_SEEDED_RNG(rng, 91);
  for (const std::uint64_t one_in : {333u, 4u, 2u}) {
    BitVector bits(1 << 16);
    for (std::size_t i = 0; i < bits.size(); ++i)
      if (rng.next_below(one_in) == 0) bits.set(i, true);
    Bytes sparse, dense, compact;
    put_bits_sparse(sparse, bits);
    put_bits_dense(dense, bits);
    put_bits_compact(compact, bits);
    EXPECT_EQ(compact.size(), std::min(sparse.size(), dense.size()) + 1)
        << "1 in " << one_in;
    EXPECT_EQ(compact[0], one_in == 333 ? 0 : 1);
    ByteReader reader(compact);
    EXPECT_EQ(get_bits_compact(reader), bits);
    EXPECT_TRUE(reader.done());
  }
}

TEST(Packets, CompactBitmapInTheLargerFormIsMalformed) {
  // The form tag is canonical: a dense bitmap announced in the sparse form
  // (or the reverse) does not decode.
  BitVector dense_bits(64);
  for (std::size_t i = 0; i < 64; i += 2) dense_bits.set(i, true);
  Bytes wrong;
  put_u8(wrong, 0);
  put_bits_sparse(wrong, dense_bits);
  ByteReader reader(wrong);
  EXPECT_ANY_THROW(get_bits_compact(reader));

  BitVector sparse_bits(4096);
  sparse_bits.set(7, true);
  Bytes wrong_dense;
  put_u8(wrong_dense, 1);
  put_bits_dense(wrong_dense, sparse_bits);
  ByteReader dense_reader(wrong_dense);
  EXPECT_ANY_THROW(get_bits_compact(dense_reader));
}

TEST(Packets, TranscriptTagRoundTrips) {
  TranscriptTag packet;
  packet.frame_id = 125;
  packet.seq = 124;
  packet.tag = BitVector::from_uint64(0xDEADBEEF, 32);
  EXPECT_EQ(round_trip(packet), packet);
}

TEST(Packets, SiftDecisionRoundTrips) {
  SiftDecision packet;
  packet.frame_id = 3;
  packet.keep = BitVector{1, 1, 0, 1, 0, 0, 0, 1, 1};
  EXPECT_EQ(round_trip(packet), packet);
}

TEST(Packets, SampleRevealRoundTrips) {
  QKD_SEEDED_RNG(rng, 77);
  SampleReveal packet;
  packet.frame_id = 11;
  packet.bits = rng.next_bits(101);
  EXPECT_EQ(round_trip(packet), packet);
}

TEST(Packets, ParityDialogueRoundTrips) {
  ParityRequest request;
  request.kind = 1;
  request.seed = 0xDEADBEEF;
  request.begin = 128;
  request.end = 4096;
  EXPECT_EQ(round_trip(request), request);

  ParityResponse response;
  response.parity = true;
  EXPECT_EQ(round_trip(response), response);
  response.parity = false;
  EXPECT_EQ(round_trip(response), response);
}

TEST(Packets, EcSummaryRoundTrips) {
  EcSummary packet;
  packet.corrections = 19;
  packet.converged = true;
  EXPECT_EQ(round_trip(packet), packet);
}

TEST(Packets, VerifyHashRoundTrips) {
  VerifyHash packet;
  packet.frame_id = 5;
  packet.digest.assign(20, 0xAB);
  EXPECT_EQ(round_trip(packet), packet);
}

TEST(Packets, PaParamsRoundTrips) {
  QKD_SEEDED_RNG(rng, 5);
  PaParamsPacket packet;
  packet.n = 4096;
  packet.m = 3200;
  packet.modulus_exponents = {4096, 27, 0};
  packet.multiplier = rng.next_bits(4096);
  packet.addend = rng.next_bits(3200);
  EXPECT_EQ(round_trip(packet), packet);
}

TEST(Packets, AbortRoundTrips) {
  AbortPacket abort_packet;
  abort_packet.reason = 4;
  EXPECT_EQ(round_trip(abort_packet), abort_packet);
}

TEST(Packets, EmptyBitVectorsSurvive) {
  SiftDecision packet;  // zero detections kept
  packet.frame_id = 1;
  EXPECT_EQ(round_trip(packet), packet);

  SampleReveal reveal;  // zero-bit sample
  reveal.frame_id = 2;
  EXPECT_EQ(round_trip(reveal), reveal);
}

TEST(Packets, TruncatedPayloadIsMalformed) {
  QKD_SEEDED_RNG(rng, 3);
  SiftAnnounce packet;
  packet.frame_id = 1;
  packet.detected = rng.next_bits(256);
  packet.bob_bases = rng.next_bits(100);
  Bytes payload = packet.encode();
  payload.pop_back();
  EXPECT_EQ(SiftAnnounce::decode(payload).error, WireError::kMalformedPayload);
}

TEST(Packets, TrailingPayloadBytesAreRejected) {
  EcSummary packet;
  packet.corrections = 2;
  Bytes payload = packet.encode();
  payload.push_back(0);
  EXPECT_EQ(EcSummary::decode(payload).error, WireError::kTrailingBytes);
}

TEST(Packets, SemanticallyInvalidFieldsAreMalformed) {
  // Structurally parseable, semantically impossible: a parity question
  // over an inverted range, an unknown subset kind.
  ParityRequest inverted;
  inverted.kind = 0;
  inverted.begin = 10;
  inverted.end = 3;
  EXPECT_EQ(ParityRequest::decode(inverted.encode()).error,
            WireError::kMalformedPayload);

  ParityRequest unknown_kind;
  unknown_kind.kind = 9;
  EXPECT_EQ(ParityRequest::decode(unknown_kind.encode()).error,
            WireError::kMalformedPayload);

  // One basis bit per detection, enforced on decode.
  SiftAnnounce lopsided;
  lopsided.detected = BitVector{1, 0, 1};
  lopsided.bob_bases = BitVector{1};  // two detections, one basis
  EXPECT_EQ(SiftAnnounce::decode(lopsided.encode()).error,
            WireError::kMalformedPayload);
}

TEST(Packets, NonzeroDensePaddingIsMalformed) {
  // 9 bits occupy 2 bytes; the top 7 bits of the last byte are padding and
  // must decode as zero — a nonzero pad bit means a corrupt or non-canonical
  // encoding.
  SiftDecision packet;
  packet.frame_id = 0;
  packet.keep = BitVector(9);
  Bytes payload = packet.encode();
  payload.back() |= 0x80;
  EXPECT_EQ(SiftDecision::decode(payload).error, WireError::kMalformedPayload);
}

TEST(Packets, DecodePacketRejectsKmsFrames) {
  const Frame frame{PacketType::kKmsGetKey, {}};
  EXPECT_EQ(decode_packet(frame).error, WireError::kMalformedPayload);
}

TEST(Packets, DecodePacketBytesIsTheFullStrictPath) {
  SampleReveal packet;
  packet.frame_id = 8;
  packet.bits = BitVector{1, 0, 1};
  const Bytes framed = to_frame(packet);
  const auto decoded = decode_packet_bytes(framed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<SampleReveal>(decoded.value), packet);

  Bytes corrupt = framed;
  corrupt[1] ^= 0xFF;
  EXPECT_EQ(decode_packet_bytes(corrupt).error, WireError::kBadMagic);
}

/// The bit-at-a-time encoder the word scan replaced: absolute first
/// position, then gap-1 to each following set bit.
Bytes reference_sparse(const BitVector& bits) {
  Bytes out;
  put_varint(out, bits.size());
  put_varint(out, bits.popcount());
  std::uint64_t previous = 0;
  bool first = true;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (!bits.get(i)) continue;
    put_varint(out, first ? i : i - previous - 1);
    previous = i;
    first = false;
  }
  return out;
}

TEST(Packets, SparseEncoderMatchesTheBitwiseReference) {
  QKD_SEEDED_RNG(rng, 65573);
  std::vector<BitVector> inputs;
  inputs.emplace_back();                       // empty
  inputs.emplace_back(65573);                  // no bit set
  BitVector all(65573);
  for (auto& word : all.words()) word = ~std::uint64_t{0};
  all.normalize_tail();
  inputs.push_back(all);                       // every bit set
  BitVector sparse(65573);                     // ~1 %, plus both ends
  for (std::size_t i = 0; i < sparse.size(); ++i)
    if (rng.next_below(100) == 0) sparse.set(i, true);
  sparse.set(0, true);
  sparse.set(sparse.size() - 1, true);
  inputs.push_back(sparse);
  inputs.push_back(rng.next_bits(65573));      // dense random
  inputs.push_back(BitVector{0, 0, 0, 1});     // one short word
  for (const BitVector& bits : inputs) {
    SCOPED_TRACE(bits.size());
    Bytes got;
    put_bits_sparse(got, bits);
    EXPECT_EQ(got, reference_sparse(bits));
    ByteReader reader(got);
    EXPECT_EQ(get_bits_sparse(reader), bits);
  }
}

}  // namespace
}  // namespace qkd::wire
