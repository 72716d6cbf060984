#include "src/qkd/authentication.hpp"

#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

#include "src/common/rng.hpp"

namespace qkd::proto {
namespace {

struct Pair {
  AuthenticationService alice;
  AuthenticationService bob;
};

Pair make_pair(std::size_t extra_pad_bits = 8192,
               AuthenticationService::Config config = {}) {
  ::qkd::testing::SeededRng rng(42);  // trace-free: helper scope ends before asserts
  const auto secret = rng.next_bits(
      AuthenticationService::required_secret_bits(config) + extra_pad_bits);
  return Pair{AuthenticationService(config, secret, true),
              AuthenticationService(config, secret, false)};
}

/// Logs the same conversation into a transcript of each side.
struct Conversation {
  Transcript alice;
  Transcript bob;

  explicit Conversation(const Pair& p)
      : alice(p.alice.open_transcript()), bob(p.bob.open_transcript()) {}

  void say(wire::PacketType type, const Bytes& payload) {
    alice.log(type, payload);
    bob.log(type, payload);
  }
};

TEST(Authentication, ProtectVerifyRoundTrip) {
  Pair p = make_pair();
  Conversation c(p);
  c.say(wire::PacketType::kSiftAnnounce, Bytes{'s', 'i', 'f', 't', '!'});
  c.say(wire::PacketType::kSiftDecision, Bytes{1, 0, 1});
  const auto tag = p.alice.seal(c.alice, /*frame_id=*/0);
  ASSERT_TRUE(tag.has_value());
  EXPECT_EQ(tag->tag.size(), 64u);
  EXPECT_TRUE(p.bob.check(c.bob, 0, *tag));
}

TEST(Authentication, BothDirectionsWork) {
  Pair p = make_pair();
  Conversation c(p);
  c.say(wire::PacketType::kEcSummary, Bytes{1});
  const auto from_alice = p.alice.seal(c.alice, 3);
  const auto from_bob = p.bob.seal(c.bob, 3);
  ASSERT_TRUE(from_alice && from_bob);
  EXPECT_TRUE(p.bob.check(c.bob, 3, *from_alice));
  EXPECT_TRUE(p.alice.check(c.alice, 3, *from_bob));
}

TEST(Authentication, TamperedPayloadRejected) {
  // One altered message anywhere in the conversation: the two transcripts
  // differ and the tag does not check.
  Pair p = make_pair();
  Conversation c(p);
  c.say(wire::PacketType::kSampleReveal, Bytes{9, 9, 9});
  c.alice.log(wire::PacketType::kParityResponse, Bytes{1});
  c.bob.log(wire::PacketType::kParityResponse, Bytes{0});  // flipped
  const auto tag = p.alice.seal(c.alice, 0);
  ASSERT_TRUE(tag.has_value());
  EXPECT_FALSE(p.bob.check(c.bob, 0, *tag));
  EXPECT_EQ(p.bob.stats().rejected, 1u);
}

TEST(Authentication, TamperedTagRejected) {
  Pair p = make_pair();
  Conversation c(p);
  c.say(wire::PacketType::kSiftAnnounce, Bytes{1, 2, 3});
  auto tag = p.alice.seal(c.alice, 0);
  ASSERT_TRUE(tag.has_value());
  tag->tag.flip(63);
  EXPECT_FALSE(p.bob.check(c.bob, 0, *tag));
}

TEST(Authentication, ReplayRejected) {
  // A tag is good once: replayed at the next batch it fails on its frame
  // id, and replayed as is on its spent sequence number.
  Pair p = make_pair();
  Conversation c(p);
  c.say(wire::PacketType::kSiftAnnounce, Bytes{5});
  const auto tag = p.alice.seal(c.alice, 0);
  ASSERT_TRUE(tag.has_value());
  ASSERT_TRUE(p.bob.check(c.bob, 0, *tag));
  EXPECT_FALSE(p.bob.check(c.bob, 0, *tag));
  EXPECT_FALSE(p.bob.check(c.bob, 1, *tag));
}

TEST(Authentication, ReflectionRejected) {
  // A tag Alice sent must not check at Alice (direction separation).
  Pair p = make_pair();
  Conversation c(p);
  c.say(wire::PacketType::kSiftAnnounce, Bytes{7});
  const auto tag = p.alice.seal(c.alice, 0);
  ASSERT_TRUE(tag.has_value());
  EXPECT_FALSE(p.alice.check(c.alice, 0, *tag));
}

TEST(Authentication, TruncatedFrameRejected) {
  Pair p = make_pair();
  Conversation c(p);
  auto tag = p.alice.seal(c.alice, 0);
  ASSERT_TRUE(tag.has_value());
  tag->tag.resize(40);
  EXPECT_FALSE(p.bob.check(c.bob, 0, *tag));
}

TEST(Authentication, ExhaustionStallsThenReplenishmentRestores) {
  AuthenticationService::Config config;
  config.tag_bits = 64;
  // required_secret_bits already includes one tag of pad per direction; the
  // extra 4*64 split across two directions adds two more: three tags total.
  Pair p = make_pair(4 * 64, config);
  // Each batch costs one send-pad tag at Alice and one recv-pad tag at
  // Bob; three batches exhaust the initial pads.
  for (std::uint64_t frame = 0; frame < 3; ++frame) {
    Conversation c(p);
    c.say(wire::PacketType::kEcSummary, Bytes{1});
    ASSERT_TRUE(p.alice.can_seal()) << frame;
    const auto tag = p.alice.seal(c.alice, frame);
    ASSERT_TRUE(tag.has_value()) << frame;
    ASSERT_TRUE(p.bob.check(c.bob, frame, *tag)) << frame;
  }
  Conversation c(p);
  EXPECT_FALSE(p.alice.can_seal());
  EXPECT_FALSE(p.alice.seal(c.alice, 3).has_value());
  EXPECT_EQ(p.alice.stats().stalls, 1u);

  // Replenish both sides with the same distilled bits; tagging resumes and
  // the pads pair correctly across the direction split.
  QKD_SEEDED_RNG(rng, 7);
  const auto fresh = rng.next_bits(512);
  p.alice.replenish(fresh);
  p.bob.replenish(fresh);
  EXPECT_TRUE(p.alice.can_seal());
  const auto tag = p.alice.seal(c.alice, 3);
  ASSERT_TRUE(tag.has_value());
  EXPECT_TRUE(p.bob.check(c.bob, 3, *tag));
  const auto reverse = p.bob.seal(c.bob, 3);
  ASSERT_TRUE(reverse.has_value());
  EXPECT_TRUE(p.alice.check(c.alice, 3, *reverse));
}

TEST(Authentication, NeedsReplenishmentSignal) {
  AuthenticationService::Config config;
  config.low_water_bits = 1 << 20;  // absurdly high: always below water
  Pair p = make_pair(8192, config);
  EXPECT_TRUE(p.alice.needs_replenishment());
}

TEST(Authentication, PadAccountingAddsUp) {
  // One tag per direction per batch, however long the conversation.
  Pair p = make_pair();
  Conversation c(p);
  for (int i = 0; i < 500; ++i)
    c.say(wire::PacketType::kParityRequest, Bytes(13, static_cast<std::uint8_t>(i)));
  const std::size_t before = p.alice.pad_bits_available();
  const auto tag = p.alice.seal(c.alice, 0);
  ASSERT_TRUE(tag.has_value());
  EXPECT_EQ(p.alice.pad_bits_available(), before - 64);
  EXPECT_EQ(p.alice.pad_bits_consumed(), 64u);
  ASSERT_TRUE(p.bob.check(c.bob, 0, *tag));
  EXPECT_EQ(p.bob.pad_bits_consumed(), 64u);
}

TEST(Authentication, RejectsTinySecret) {
  AuthenticationService::Config config;
  QKD_SEEDED_RNG(rng, 1);
  EXPECT_THROW(
      AuthenticationService(config, rng.next_bits(100), true),
      std::invalid_argument);
}

TEST(Authentication, SequencedStreamSurvivesManyMessages) {
  // 100 batches, each its own conversation; a batch whose tag Bob refused
  // (every tenth, tampered) leaves a gap in the sequence that the next
  // batch steps over.
  Pair p = make_pair(1 << 16);
  for (std::uint64_t frame = 0; frame < 100; ++frame) {
    Conversation c(p);
    const Bytes msg(static_cast<std::size_t>(frame % 37 + 1),
                    static_cast<std::uint8_t>(frame));
    c.say(wire::PacketType::kPaParams, msg);
    auto tag = p.alice.seal(c.alice, frame);
    ASSERT_TRUE(tag.has_value()) << frame;
    if (frame % 10 == 9) tag->tag.flip(0);
    EXPECT_EQ(p.bob.check(c.bob, frame, *tag), frame % 10 != 9) << frame;
  }
  EXPECT_EQ(p.bob.stats().verified, 90u);
  EXPECT_EQ(p.bob.stats().rejected, 10u);
}

TEST(Authentication, TranscriptTagsAreNotPartOfTheTranscript) {
  // Bob's tag covers the same conversation as Alice's, not Alice's tag.
  Pair p = make_pair();
  Conversation c(p);
  c.say(wire::PacketType::kVerifyHash, Bytes{4, 4});
  const auto from_alice = p.alice.seal(c.alice, 0);
  ASSERT_TRUE(from_alice.has_value());
  c.bob.log(wire::PacketType::kTranscriptTag, from_alice->encode());
  ASSERT_TRUE(p.bob.check(c.bob, 0, *from_alice));
  const auto from_bob = p.bob.seal(c.bob, 0);
  ASSERT_TRUE(from_bob.has_value());
  EXPECT_TRUE(p.alice.check(c.alice, 0, *from_bob));
}

}  // namespace
}  // namespace qkd::proto
