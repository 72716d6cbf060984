// Ongoing authentication of key-management traffic (Section 5).
//
// "Authentication must be performed on an ongoing basis for all key
// management traffic, since Eve may insert herself into the conversation
// between Alice and Bob at any stage." ... "a complete authenticated
// conversation can validate a large number of new, shared secret bits from
// QKD, and a small number of these may be used to replenish the pool."
//
// So the unit of authentication is the conversation, not the message.
// Each side logs every message of a batch it sends or accepts into a
// Transcript: a keyed GF(2^64) polynomial hash (crypto::PolyHash64, an
// eps-almost-universal family) of the messages in dialogue order, computed
// under both directions' hash keys. Before any key is released each
// direction sends ONE Wegman-Carter tag over
//
//   frame_id (u64) | direction (u8: 0 Alice->Bob, 1 Bob->Alice) | digest (u64)
//
// = Toeplitz(frame_id | direction | digest) XOR pad[seq]. `seq` is the
// direction's tag counter, carried in the clear; it names the one-time-pad
// slot, strictly increases (a replayed or reflected tag is refused), and a
// failed check consumes nothing. A batch therefore spends two tags of pad
// however many messages it exchanged. The hash keys and the Toeplitz key
// are drawn once per direction from the prepositioned secret and reused,
// which one-time pads make safe; the composition is still an
// information-theoretic MAC (no unkeyed digest such as SHA-1 is involved).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "src/common/bitvector.hpp"
#include "src/crypto/universal_hash.hpp"
#include "src/wire/packets.hpp"

namespace qkd::proto {

/// One side's log of one batch: every message it sent or accepted, in
/// dialogue order, digested under both directions' hash keys. Both sides
/// of an untampered batch log the same messages in the same order.
class Transcript {
 public:
  /// Logs one message: its packet type, payload length and payload bytes
  /// (the length framing keeps message boundaries unambiguous). The tags
  /// themselves are not logged: both directions' tags cover the same log.
  void log(wire::PacketType type, std::span<const std::uint8_t> payload);

 private:
  friend class AuthenticationService;
  Transcript(const qkd::crypto::PolyHash64& outbound,
             const qkd::crypto::PolyHash64& inbound)
      : outbound_(outbound), inbound_(inbound) {}

  qkd::crypto::PolyHash64 outbound_;  // under this side's sending key
  qkd::crypto::PolyHash64 inbound_;   // under the peer's sending key
};

class AuthenticationService {
 public:
  struct Config {
    unsigned tag_bits = 64;
    unsigned max_message_bits = 1 << 16;
    /// Pad bits below which needs_replenishment() turns on.
    std::size_t low_water_bits = 1024;
  };

  struct Stats {
    std::size_t tagged = 0;
    std::size_t verified = 0;
    std::size_t rejected = 0;
    std::size_t stalls = 0;  // tag requests refused for lack of pad
  };

  /// Both endpoints construct from the same prepositioned secret; the
  /// initiator flag splits it into two direction-specific authenticators.
  AuthenticationService(Config config, const qkd::BitVector& shared_secret,
                        bool is_initiator);

  /// Bits of prepositioned secret a Config requires: per direction, the
  /// Toeplitz key, the 64-bit transcript-hash key and one tag of pad.
  static std::size_t required_secret_bits(const Config& config);

  /// An empty transcript for a new batch.
  Transcript open_transcript() const { return {outbound_hash_, inbound_hash_}; }

  /// True while one more batch can be authenticated: a tag's pad is left
  /// in both directions.
  bool can_seal() const;

  /// This side's tag over `transcript` for batch `frame_id`; consumes one
  /// tag of pad. nullopt when the pad pool is exhausted (the exhaustion DoS
  /// of Sec. 2).
  std::optional<wire::TranscriptTag> seal(const Transcript& transcript,
                                          std::uint64_t frame_id);

  /// Checks the peer's tag against this side's own transcript of batch
  /// `frame_id`. False on a mismatch (the transcripts differ: some message
  /// was altered, dropped, injected or replayed), a replayed or reflected
  /// tag, or a tag for another batch; a failed check consumes no pad.
  bool check(const Transcript& transcript, std::uint64_t frame_id,
             const wire::TranscriptTag& tag);

  /// Feeds fresh distilled bits into both directions' pad pools.
  void replenish(const qkd::BitVector& bits);

  bool needs_replenishment() const;
  std::size_t pad_bits_available() const;
  std::size_t pad_bits_consumed() const;
  const Stats& stats() const { return stats_; }

 private:
  Config config_;
  bool is_initiator_;
  qkd::crypto::WegmanCarterAuthenticator send_auth_;
  qkd::crypto::WegmanCarterAuthenticator recv_auth_;
  qkd::crypto::PolyHash64 outbound_hash_;
  qkd::crypto::PolyHash64 inbound_hash_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_expected_ = 0;
  Stats stats_;
};

}  // namespace qkd::proto
