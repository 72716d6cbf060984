#include "src/qkd/sifting.hpp"

#include <stdexcept>

namespace qkd::proto {

wire::SiftAnnounce make_sift_message(std::uint64_t frame_id,
                                     const qkd::optics::DetectionRecord& bob) {
  wire::SiftAnnounce announce;
  announce.frame_id = frame_id;
  announce.detected = bob.detected;
  bob.detected.for_each_set_bit([&](std::size_t slot) {
    announce.bob_bases.push_back(bob.bases.get(slot));
  });
  return announce;
}

AliceSiftResult alice_sift(const qkd::optics::PulseTrainRecord& alice,
                           const wire::SiftAnnounce& announce) {
  if (announce.detected.size() != alice.size())
    throw std::invalid_argument("alice_sift: frame size mismatch");
  AliceSiftResult result;
  result.decision.frame_id = announce.frame_id;
  std::size_t det_index = 0;
  announce.detected.for_each_set_bit([&](std::size_t slot) {
    const bool match =
        announce.bob_bases.get(det_index) == alice.bases.get(slot);
    result.decision.keep.push_back(match);
    if (match) {
      result.outcome.bits.push_back(alice.values.get(slot));
      result.outcome.slot_indices.push_back(static_cast<std::uint32_t>(slot));
    }
    ++det_index;
  });
  return result;
}

SiftOutcome bob_apply_response(const qkd::optics::DetectionRecord& bob,
                               const wire::SiftAnnounce& announce,
                               const wire::SiftDecision& decision) {
  if (decision.keep.size() != announce.bob_bases.size())
    throw std::invalid_argument("bob_apply_response: keep length mismatch");
  if (decision.frame_id != announce.frame_id)
    throw std::invalid_argument("bob_apply_response: frame id mismatch");
  SiftOutcome outcome;
  std::size_t det_index = 0;
  bob.detected.for_each_set_bit([&](std::size_t slot) {
    if (decision.keep.get(det_index)) {
      outcome.bits.push_back(bob.bits.get(slot));
      outcome.slot_indices.push_back(static_cast<std::uint32_t>(slot));
    }
    ++det_index;
  });
  return outcome;
}

}  // namespace qkd::proto
