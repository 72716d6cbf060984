// Single-sided distillation peers: Alice's half and Bob's half of the
// Fig. 9 dialogue, each runnable in its OWN process over any
// wire::Transport (in practice the TCP transport — the integration suite
// forks one process per endpoint and connects them over localhost).
//
// A peer runs its own side's steps of the dialogue (src/qkd/dialogue.hpp),
// the same steps the in-process pipeline runs for both sides, and moves
// their packets with send/receive on its transport: SiftAnnounce/
// SiftDecision, two SampleReveals, the parity dialogue, EcSummary, two
// VerifyHashes, PaParams per chunk, then the two TranscriptTags (Alice's
// first). Every packet a side sends or accepts goes into its transcript.
// Both peers seed each batch's DRBG alike, so sample positions, corrector
// seeds and PA parameters agree without crossing the wire (Bob
// cross-checks Alice's announced PA parameters against his own
// derivation). Each side spends pad on its one tag, exactly as in
// process, so the peers exhaust their pads on the same batch
// QkdLinkSession does.
//
// Rejection: Alice announces every verdict reached from shared data
// (nothing sifted, QBER alarms, non-convergence, hash mismatch, entropy
// exhausted) with one bare kAbort frame, which Bob, having reached the
// same verdict, consumes. A side that aborts on its own (no pad left for
// the batch's tag, a dead wire, a packet that does not decode or names
// another batch, Bob's PA cross-check, a tag that does not check)
// announces that too, so the other side learns the reason at once instead
// of at its receive timeout. The one exception is Alice's check of Bob's
// tag, the last message of the batch: Bob has finished by then, so that
// verdict stays with Alice (and Bob keeps a key she discarded; only an
// altered last tag can cause this).
//
// QframeFeed is the one frame type outside the dialogue: Alice simulates
// the optics and feeds Bob his detection record — the QUANTUM channel,
// bootstrapped — and it is excluded from control-traffic accounting.
#pragma once

#include <cstdint>

#include "src/optics/link.hpp"
#include "src/qkd/engine.hpp"
#include "src/wire/transport.hpp"

namespace qkd::proto {

/// One batch's outcome as seen from one side of the wire.
struct PeerOutcome {
  bool accepted = false;
  AbortReason reason = AbortReason::kNone;
  qkd::BitVector key;             // this side's distilled block
  std::uint64_t frame_id = 0;
  std::size_t sifted_bits = 0;
  std::size_t errors_corrected = 0;
  double qber_sampled = 0.0;
  // Control frames THIS side put on the wire (QframeFeed excluded,
  // matching the in-process accounting).
  std::size_t control_messages = 0;
  std::size_t control_bytes = 0;
};

/// Alice's endpoint: simulates the quantum channel, feeds Bob his
/// detections, then runs her half of the distillation dialogue.
class AlicePeer {
 public:
  AlicePeer(QkdLinkConfig config, std::uint64_t seed);
  ~AlicePeer();

  PeerOutcome run_batch(wire::Transport& io);

  const AuthenticationService& auth() const { return self_.auth; }

 private:
  QkdLinkConfig config_;
  qkd::optics::WeakCoherentLink link_;
  DialogueEndpoint self_;
  std::uint64_t next_frame_id_ = 0;
};

/// Bob's endpoint: receives the Qframe feed, then drives sifting
/// announcements and error correction from his side of the wire.
class BobPeer {
 public:
  BobPeer(QkdLinkConfig config, std::uint64_t seed);
  ~BobPeer();

  PeerOutcome run_batch(wire::Transport& io);

  const AuthenticationService& auth() const { return self_.auth; }

 private:
  QkdLinkConfig config_;
  DialogueEndpoint self_;
  std::uint64_t next_frame_id_ = 0;
};

}  // namespace qkd::proto
