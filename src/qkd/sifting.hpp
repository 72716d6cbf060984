// Sifting: winnowing the failed qubits (Section 5).
//
// After a frame, Bob tells Alice which slots produced a usable detection and
// which basis he measured each in (the SIFT message, whose detected-slot
// bitmap travels as the run lengths between clicks: src/wire/packets.hpp).
// Alice replies with the subset of those detections where her transmission
// basis matched (the SIFT RESPONSE). Both sides then discard everything
// else, keeping only the sifted bits. "A transmitted stream of 1,000 bits
// therefore would boil down to about 5 sifted bits."
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/bitvector.hpp"
#include "src/optics/types.hpp"
#include "src/wire/packets.hpp"

namespace qkd::proto {

/// Outcome on either side: the sifted key bits plus, for ground-truth joins
/// (attack accounting, diagnostics), the original slot index of each bit.
struct SiftOutcome {
  qkd::BitVector bits;
  std::vector<std::uint32_t> slot_indices;
};

/// Bob's half: the SIFT message for his detection record — the slots that
/// registered a single click, and his basis for each (detection order).
wire::SiftAnnounce make_sift_message(std::uint64_t frame_id,
                                     const qkd::optics::DetectionRecord& bob);

/// Alice's half: compares bases, producing the SIFT RESPONSE (one keep bit
/// per detection, detection order) and her sifted bits.
struct AliceSiftResult {
  wire::SiftDecision decision;
  SiftOutcome outcome;
};
AliceSiftResult alice_sift(const qkd::optics::PulseTrainRecord& alice,
                           const wire::SiftAnnounce& announce);

/// Bob's completion: applies Alice's decision to his detections.
SiftOutcome bob_apply_response(const qkd::optics::DetectionRecord& bob,
                               const wire::SiftAnnounce& announce,
                               const wire::SiftDecision& decision);

}  // namespace qkd::proto
