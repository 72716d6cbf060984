#include "src/qkd/sifting.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/optics/link.hpp"
#include "tests/testing/seeded_rng.hpp"

namespace qkd::proto {
namespace {

qkd::optics::FrameResult small_frame(std::uint64_t seed,
                                     std::size_t slots = 200000) {
  qkd::optics::WeakCoherentLink link(qkd::optics::LinkParams{}, seed);
  return link.run_frame(slots);
}

TEST(Sifting, MessageSerializationRoundTrips) {
  const auto frame = small_frame(1);
  const wire::SiftAnnounce msg = make_sift_message(42, frame.bob);
  const auto back = wire::SiftAnnounce::decode(msg.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value.frame_id, 42u);
  EXPECT_EQ(back.value.detected, msg.detected);
  EXPECT_EQ(back.value.bob_bases, msg.bob_bases);
}

TEST(Sifting, ResponseSerializationRoundTrips) {
  wire::SiftDecision r;
  r.frame_id = 7;
  r.keep = qkd::BitVector::from_string("1011001");
  const auto back = wire::SiftDecision::decode(r.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value.frame_id, 7u);
  EXPECT_EQ(back.value.keep, r.keep);
}

TEST(Sifting, DeserializeRejectsGarbage) {
  EXPECT_FALSE(wire::SiftAnnounce::decode(Bytes{1, 2, 3}).ok());
  EXPECT_FALSE(wire::SiftDecision::decode(Bytes{}).ok());
}

TEST(Sifting, BothSidesAgreeOnSlotIndices) {
  const auto frame = small_frame(2);
  const wire::SiftAnnounce msg = make_sift_message(0, frame.bob);
  const AliceSiftResult alice = alice_sift(frame.alice, msg);
  const SiftOutcome bob = bob_apply_response(frame.bob, msg, alice.decision);
  EXPECT_EQ(alice.outcome.slot_indices, bob.slot_indices);
  EXPECT_EQ(alice.outcome.bits.size(), bob.bits.size());
}

TEST(Sifting, KeepsOnlyMatchingBasisDetections) {
  const auto frame = small_frame(3);
  const wire::SiftAnnounce msg = make_sift_message(0, frame.bob);
  const AliceSiftResult alice = alice_sift(frame.alice, msg);
  for (std::uint32_t slot : alice.outcome.slot_indices) {
    EXPECT_TRUE(frame.bob.detected.get(slot));
    EXPECT_EQ(frame.alice.bases.get(slot), frame.bob.bases.get(slot));
  }
}

TEST(Sifting, SiftedFractionIsHalfOfDetections) {
  const auto frame = small_frame(4, 500000);
  const wire::SiftAnnounce msg = make_sift_message(0, frame.bob);
  const AliceSiftResult alice = alice_sift(frame.alice, msg);
  const double detections =
      static_cast<double>(frame.bob.detected.popcount());
  ASSERT_GT(detections, 100);
  EXPECT_NEAR(static_cast<double>(alice.outcome.bits.size()) / detections,
              0.5, 0.08);
}

TEST(Sifting, SiftedBitsMostlyAgree) {
  // At the paper's operating point the sifted strings differ only by the
  // 6-8 % QBER.
  const auto frame = small_frame(5, 500000);
  const wire::SiftAnnounce msg = make_sift_message(0, frame.bob);
  const AliceSiftResult alice = alice_sift(frame.alice, msg);
  const SiftOutcome bob = bob_apply_response(frame.bob, msg, alice.decision);
  ASSERT_GT(alice.outcome.bits.size(), 100u);
  const double qber =
      static_cast<double>(alice.outcome.bits.hamming_distance(bob.bits)) /
      static_cast<double>(alice.outcome.bits.size());
  EXPECT_GT(qber, 0.02);
  EXPECT_LT(qber, 0.12);
}

TEST(Sifting, AliceRejectsWrongFrameSize) {
  const auto frame = small_frame(6, 10000);
  wire::SiftAnnounce msg = make_sift_message(0, frame.bob);
  msg.detected.resize(5000);
  EXPECT_THROW(alice_sift(frame.alice, msg), std::invalid_argument);
}

TEST(Sifting, BobRejectsMismatchedResponse) {
  const auto frame = small_frame(7, 10000);
  const wire::SiftAnnounce msg = make_sift_message(3, frame.bob);
  wire::SiftDecision bad;
  bad.frame_id = 3;
  bad.keep = qkd::BitVector(msg.bob_bases.size() + 1);
  EXPECT_THROW(bob_apply_response(frame.bob, msg, bad), std::invalid_argument);
  wire::SiftDecision wrong_frame;
  wrong_frame.frame_id = 4;
  wrong_frame.keep = qkd::BitVector(msg.bob_bases.size());
  EXPECT_THROW(bob_apply_response(frame.bob, msg, wrong_frame),
               std::invalid_argument);
}

TEST(Sifting, DeserializeRejectsInconsistentBasisCount) {
  const auto frame = small_frame(8, 10000);
  wire::SiftAnnounce msg = make_sift_message(0, frame.bob);
  msg.bob_bases.push_back(true);  // one basis too many
  EXPECT_EQ(wire::SiftAnnounce::decode(msg.encode()).error,
            wire::WireError::kMalformedPayload);
}

// ---- Bitwise reference: the slot-by-slot loops the word scans replaced. --

wire::SiftAnnounce reference_sift_message(
    std::uint64_t frame_id, const qkd::optics::DetectionRecord& bob) {
  wire::SiftAnnounce msg;
  msg.frame_id = frame_id;
  msg.detected = bob.detected;
  for (std::size_t i = 0; i < bob.size(); ++i)
    if (bob.detected.get(i)) msg.bob_bases.push_back(bob.bases.get(i));
  return msg;
}

AliceSiftResult reference_alice_sift(const qkd::optics::PulseTrainRecord& alice,
                                     const wire::SiftAnnounce& msg) {
  AliceSiftResult result;
  result.decision.frame_id = msg.frame_id;
  std::size_t det_index = 0;
  for (std::size_t slot = 0; slot < alice.size(); ++slot) {
    if (!msg.detected.get(slot)) continue;
    const bool match = msg.bob_bases.get(det_index) == alice.bases.get(slot);
    result.decision.keep.push_back(match);
    if (match) {
      result.outcome.bits.push_back(alice.values.get(slot));
      result.outcome.slot_indices.push_back(static_cast<std::uint32_t>(slot));
    }
    ++det_index;
  }
  return result;
}

SiftOutcome reference_bob_apply(const qkd::optics::DetectionRecord& bob,
                                const wire::SiftDecision& response) {
  SiftOutcome outcome;
  std::size_t det_index = 0;
  for (std::size_t slot = 0; slot < bob.size(); ++slot) {
    if (!bob.detected.get(slot)) continue;
    if (response.keep.get(det_index)) {
      outcome.bits.push_back(bob.bits.get(slot));
      outcome.slot_indices.push_back(static_cast<std::uint32_t>(slot));
    }
    ++det_index;
  }
  return outcome;
}

struct SiftInput {
  std::string name;
  qkd::optics::PulseTrainRecord alice;
  qkd::optics::DetectionRecord bob;
};

SiftInput random_input(std::string name, qkd::Rng& rng, std::size_t slots,
                       std::uint64_t detect_one_in) {
  SiftInput in{std::move(name), {}, {}};
  in.alice.bases = rng.next_bits(slots);
  in.alice.values = rng.next_bits(slots);
  in.bob.bases = rng.next_bits(slots);
  in.bob.bits = rng.next_bits(slots);
  in.bob.detected = qkd::BitVector(slots);
  for (std::size_t i = 0; i < slots; ++i)
    if (rng.next_below(detect_one_in) == 0) in.bob.detected.set(i, true);
  return in;
}

TEST(Sifting, WordScansMatchTheBitwiseReference) {
  QKD_SEEDED_RNG(rng, 65573);
  std::vector<SiftInput> inputs;
  inputs.push_back(random_input("empty", rng, 0, 1));
  inputs.push_back(random_input("all_set", rng, 65573, 1));
  inputs.push_back(random_input("sparse_65573", rng, 65573, 300));
  inputs.push_back(random_input("half_65573", rng, 65573, 2));
  SiftInput ends = random_input("both_ends", rng, 65573, 1000);
  ends.bob.detected.set(0, true);
  ends.bob.detected.set(65572, true);
  inputs.push_back(std::move(ends));
  SiftInput frame{"link_frame", {}, {}};
  auto link_frame = small_frame(9, 65573);
  frame.alice = std::move(link_frame.alice);
  frame.bob = std::move(link_frame.bob);
  inputs.push_back(std::move(frame));

  for (const SiftInput& in : inputs) {
    SCOPED_TRACE(in.name);
    const wire::SiftAnnounce msg = make_sift_message(5, in.bob);
    const wire::SiftAnnounce ref_msg = reference_sift_message(5, in.bob);
    EXPECT_EQ(msg.frame_id, ref_msg.frame_id);
    EXPECT_EQ(msg.detected, ref_msg.detected);
    EXPECT_EQ(msg.bob_bases, ref_msg.bob_bases);

    const AliceSiftResult alice = alice_sift(in.alice, msg);
    const AliceSiftResult ref_alice = reference_alice_sift(in.alice, ref_msg);
    EXPECT_EQ(alice.decision.frame_id, ref_alice.decision.frame_id);
    EXPECT_EQ(alice.decision.keep, ref_alice.decision.keep);
    EXPECT_EQ(alice.outcome.bits, ref_alice.outcome.bits);
    EXPECT_EQ(alice.outcome.slot_indices, ref_alice.outcome.slot_indices);

    const SiftOutcome bob = bob_apply_response(in.bob, msg, alice.decision);
    const SiftOutcome ref_bob = reference_bob_apply(in.bob, ref_alice.decision);
    EXPECT_EQ(bob.bits, ref_bob.bits);
    EXPECT_EQ(bob.slot_indices, ref_bob.slot_indices);
  }
}

TEST(Sifting, ShortRecordsAreRejectedNotOverrun) {
  QKD_SEEDED_RNG(rng, 4);
  SiftInput in = random_input("short", rng, 1000, 3);
  wire::SiftAnnounce msg = make_sift_message(0, in.bob);
  wire::SiftAnnounce missing_basis = msg;
  missing_basis.bob_bases.resize(msg.bob_bases.size() - 1);
  EXPECT_THROW(alice_sift(in.alice, missing_basis), std::out_of_range);

  qkd::optics::DetectionRecord short_bases = in.bob;
  short_bases.bases.resize(500);
  EXPECT_THROW(make_sift_message(0, short_bases), std::out_of_range);

  const AliceSiftResult alice = alice_sift(in.alice, msg);
  qkd::optics::DetectionRecord extra_click = in.bob;
  for (std::size_t i = 0; i < extra_click.size(); ++i)
    extra_click.detected.set(i, true);  // more clicks than `keep` covers
  EXPECT_THROW(bob_apply_response(extra_click, msg, alice.decision),
               std::out_of_range);
}

}  // namespace
}  // namespace qkd::proto
