#include "src/qkd/authentication.hpp"

#include <stdexcept>

namespace qkd::proto {
namespace {

constexpr std::size_t kHashKeyBits = 64;

/// One direction's half of the prepositioned secret: the transcript-hash
/// key, then the Toeplitz key and the pad pool.
qkd::BitVector direction_secret(const qkd::BitVector& shared_secret,
                                std::size_t index) {
  const std::size_t per_direction = shared_secret.size() / 2;
  if (per_direction < kHashKeyBits)
    throw std::invalid_argument(
        "AuthenticationService: prepositioned secret too small");
  return shared_secret.slice(index * per_direction, per_direction);
}

qkd::crypto::PolyHash64 make_hash(const qkd::BitVector& shared_secret,
                                  std::size_t index) {
  return qkd::crypto::PolyHash64(
      direction_secret(shared_secret, index).slice(0, kHashKeyBits).to_uint64());
}

qkd::crypto::WegmanCarterAuthenticator make_direction(
    const AuthenticationService::Config& config,
    const qkd::BitVector& shared_secret, std::size_t index) {
  const qkd::BitVector half = direction_secret(shared_secret, index);
  const qkd::crypto::WegmanCarterAuthenticator::Config wc{
      .tag_bits = config.tag_bits,
      .max_message_bits = config.max_message_bits};
  return qkd::crypto::WegmanCarterAuthenticator(
      wc, half.slice(kHashKeyBits, half.size() - kHashKeyBits));
}

/// What a tag covers: frame_id | direction | transcript digest.
Bytes tagged_message(std::uint64_t frame_id, bool from_initiator,
                     std::uint64_t digest) {
  Bytes message;
  put_u64(message, frame_id);
  put_u8(message, from_initiator ? 0 : 1);
  put_u64(message, digest);
  return message;
}

}  // namespace

void Transcript::log(wire::PacketType type,
                     std::span<const std::uint8_t> payload) {
  // The tags authenticate the transcript; they are not part of it.
  if (type == wire::PacketType::kTranscriptTag) return;
  const auto size = static_cast<std::uint32_t>(payload.size());
  const std::uint8_t header[5] = {static_cast<std::uint8_t>(type),
                                  static_cast<std::uint8_t>(size >> 24),
                                  static_cast<std::uint8_t>(size >> 16),
                                  static_cast<std::uint8_t>(size >> 8),
                                  static_cast<std::uint8_t>(size)};
  outbound_.update(header);
  outbound_.update(payload);
  inbound_.update(header);
  inbound_.update(payload);
}

std::size_t AuthenticationService::required_secret_bits(const Config& config) {
  // Per direction: hash key, Toeplitz key, and at least one tag of pad.
  const std::size_t per_direction = kHashKeyBits +
                                    (config.tag_bits + config.max_message_bits -
                                     1) +
                                    config.tag_bits;
  return 2 * per_direction;
}

AuthenticationService::AuthenticationService(Config config,
                                             const qkd::BitVector& shared_secret,
                                             bool is_initiator)
    : config_(config),
      is_initiator_(is_initiator),
      send_auth_(make_direction(config, shared_secret, is_initiator ? 0 : 1)),
      recv_auth_(make_direction(config, shared_secret, is_initiator ? 1 : 0)),
      outbound_hash_(make_hash(shared_secret, is_initiator ? 0 : 1)),
      inbound_hash_(make_hash(shared_secret, is_initiator ? 1 : 0)) {
  if (shared_secret.size() < required_secret_bits(config))
    throw std::invalid_argument(
        "AuthenticationService: prepositioned secret too small");
}

bool AuthenticationService::can_seal() const {
  return send_auth_.pad_bits_available() >= config_.tag_bits &&
         recv_auth_.pad_bits_available() >= config_.tag_bits;
}

std::optional<wire::TranscriptTag> AuthenticationService::seal(
    const Transcript& transcript, std::uint64_t frame_id) {
  const auto tag = send_auth_.tag_at(
      tagged_message(frame_id, is_initiator_, transcript.outbound_.digest()),
      send_seq_);
  if (!tag.has_value()) {
    ++stats_.stalls;
    return std::nullopt;
  }
  wire::TranscriptTag packet;
  packet.frame_id = frame_id;
  packet.seq = send_seq_++;
  packet.tag = *tag;
  ++stats_.tagged;
  return packet;
}

bool AuthenticationService::check(const Transcript& transcript,
                                  std::uint64_t frame_id,
                                  const wire::TranscriptTag& tag) {
  // Strictly increasing seq, gaps allowed: a replay (seq below the
  // watermark) is refused outright; a gap means the peer spent a tag this
  // side never verified (a batch that failed here), and the slot
  // addressing skips its pad in lockstep. A forged high seq fails its tag
  // check without consuming anything.
  if (tag.frame_id != frame_id || tag.seq < recv_seq_expected_ ||
      tag.tag.size() != config_.tag_bits ||
      !recv_auth_.verify_at(
          tagged_message(frame_id, !is_initiator_,
                         transcript.inbound_.digest()),
          tag.tag, tag.seq)) {
    ++stats_.rejected;
    return false;
  }
  recv_seq_expected_ = tag.seq + 1;
  ++stats_.verified;
  return true;
}

void AuthenticationService::replenish(const qkd::BitVector& bits) {
  // Split replenishment between the two directions. Both endpoints call this
  // with the same bits; the initiator's send pool must pair with the
  // responder's receive pool, so the halves swap with the role.
  const std::size_t half = bits.size() / 2;
  const qkd::BitVector first = bits.slice(0, half);
  const qkd::BitVector second = bits.slice(half, bits.size() - half);
  if (is_initiator_) {
    send_auth_.replenish(first);
    recv_auth_.replenish(second);
  } else {
    send_auth_.replenish(second);
    recv_auth_.replenish(first);
  }
}

bool AuthenticationService::needs_replenishment() const {
  return pad_bits_available() < config_.low_water_bits;
}

std::size_t AuthenticationService::pad_bits_available() const {
  return send_auth_.pad_bits_available() + recv_auth_.pad_bits_available();
}

std::size_t AuthenticationService::pad_bits_consumed() const {
  return send_auth_.pad_bits_consumed() + recv_auth_.pad_bits_consumed();
}

}  // namespace qkd::proto
