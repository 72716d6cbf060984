// The parity dialogue of error correction, bound to the wire: Bob's
// corrector drives a ParityOracle whose every query becomes a real
// kParityRequest frame on a Transport, answered by a kParityResponse frame
// from Alice's responder. In-process the two are colocated over one
// PublicChannel (the client's pump runs the server between send and
// receive); across processes each side holds only its half and the TCP
// socket sits in between — same frames either way.
//
// Parity frames carry no tag of their own: Cascade asks hundreds of
// one-bit questions per batch, and a tag on each would spend more pad
// than the batch distills. They are authenticated with the rest of the
// batch instead: both ends log every question and its answer into their
// transcripts (src/qkd/authentication.hpp), once per distinct question —
// a retransmitted question, re-answered from cache, is logged once — so
// a lossy channel leaves the two logs equal while an altered, injected or
// dropped question or answer makes the batch's transcript tags disagree
// and no key is released. Lost or mangled frames are retransmitted; a
// persistently dead channel surfaces as ChannelLostError
// (-> AbortReason::kChannelLost).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>

#include "src/qkd/authentication.hpp"
#include "src/qkd/ec.hpp"
#include "src/wire/packets.hpp"
#include "src/wire/transport.hpp"

namespace qkd::proto {

/// Sent-side wire accounting (messages and bytes PUT on the wire,
/// retransmits included — loss inflates these, visibly).
struct WireTraffic {
  std::size_t messages = 0;
  std::size_t bytes = 0;
};

/// Thrown when retransmission gives up on the classical channel; the
/// pipeline maps it to AbortReason::kChannelLost.
class ChannelLostError : public std::runtime_error {
 public:
  ChannelLostError() : std::runtime_error("wire: classical channel lost") {}
};

/// Alice's side: answers parity requests arriving on a transport against
/// her sifted bits, logging each new question and its answer into
/// `transcript`. Retransmitted duplicates of the last query are re-answered
/// from cache (and not logged again) so a lossy channel cannot inflate the
/// disclosure count the entropy estimate charges for.
class WireParityServer {
 public:
  WireParityServer(const qkd::BitVector& bits, Transcript& transcript)
      : oracle_(bits), transcript_(transcript) {}

  /// Serves at most one pending request on `io` (receive, compute,
  /// respond). Returns false when nothing decodable was waiting;
  /// malformed frames and questions outside the sifted string are
  /// consumed and dropped unanswered (the client retransmits).
  bool serve_one(wire::Transport& io);

  /// Serves an already-received frame (two-process receive loops dispatch
  /// frames by type and hand parity requests here); the response goes out
  /// on `io`. Returns false if the frame is not a decodable parity request.
  bool serve_frame(wire::Transport& io, const wire::Frame& frame);

  /// Distinct parity bits disclosed (the `d` of the entropy estimate).
  std::size_t disclosed() const { return oracle_.disclosed(); }

  const WireTraffic& traffic() const { return traffic_; }

 private:
  LocalParityOracle oracle_;
  Transcript& transcript_;
  std::optional<ParityQuery> last_query_;
  bool last_parity_ = false;
  WireTraffic traffic_;
};

/// Bob's side: a ParityOracle that ships each query as a frame and blocks
/// on the response, retransmitting through loss, and logs each new
/// question with the answer it accepted into `transcript` (a back-to-back
/// repeat of a question is logged again only if its answer changed, which
/// an honest server never does). `pump` (in-process runs only) is invoked
/// between send and receive to let the colocated WireParityServer take its
/// turn.
class WireParityClient final : public ParityOracle {
 public:
  static constexpr int kMaxAttempts = 12;

  WireParityClient(wire::Transport& io, Transcript& transcript,
                   std::function<void()> pump = {})
      : io_(io), transcript_(transcript), pump_(std::move(pump)) {}

  /// Throws ChannelLostError after kMaxAttempts fruitless retransmits.
  bool parity(const ParityQuery& query) override;

  const WireTraffic& traffic() const { return traffic_; }

  /// Parity bits disclosed, counted exactly as WireParityServer counts
  /// them (retransmits and back-to-back repeats of one question excluded):
  /// Bob's side of the `d` his entropy estimate charges, equal to Alice's
  /// disclosed() whenever the channel only loses or reorders frames.
  std::size_t queries() const { return queries_; }

 private:
  wire::Transport& io_;
  Transcript& transcript_;
  std::function<void()> pump_;
  WireTraffic traffic_;
  std::size_t queries_ = 0;
  std::optional<ParityQuery> last_query_;
  bool last_parity_ = false;
};

}  // namespace qkd::proto
