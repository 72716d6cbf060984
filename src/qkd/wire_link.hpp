// The parity dialogue of error correction, bound to the wire: Bob's
// corrector drives a ParityOracle whose every query becomes a real
// kParityRequest frame on a Transport, answered by a kParityResponse frame
// from Alice's responder. In-process the two are colocated over one
// PublicChannel (the client's pump runs the server between send and
// receive); across processes each side holds only its half and the TCP
// socket sits in between — same frames either way.
//
// Parity frames travel UNAUTHENTICATED by design: Cascade asks thousands
// of one-bit questions per batch, and spending Wegman-Carter pad on each
// would exhaust the very key being distilled. Tampering with them corrupts
// the correction and is caught by the verify stage's hash exchange, which
// is the paper's containment for this surface. Lost or mangled frames are
// retransmitted; a persistently dead channel surfaces as ChannelLostError
// (-> AbortReason::kChannelLost).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>

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
/// her sifted bits. Retransmitted duplicates of the last query are
/// re-answered from cache so a lossy channel cannot inflate the disclosure
/// count the entropy estimate charges for.
class WireParityServer {
 public:
  explicit WireParityServer(const qkd::BitVector& bits) : oracle_(bits) {}

  /// Serves at most one pending request on `io` (receive, compute,
  /// respond). Returns false when nothing decodable was waiting;
  /// malformed frames are consumed and dropped (the client retransmits).
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
  std::optional<ParityQuery> last_query_;
  bool last_parity_ = false;
  WireTraffic traffic_;
};

/// Bob's side: a ParityOracle that ships each query as a frame and blocks
/// on the response, retransmitting through loss. `pump` (in-process runs
/// only) is invoked between send and receive to let the colocated
/// WireParityServer take its turn.
class WireParityClient final : public ParityOracle {
 public:
  static constexpr int kMaxAttempts = 12;

  explicit WireParityClient(wire::Transport& io,
                            std::function<void()> pump = {})
      : io_(io), pump_(std::move(pump)) {}

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
  std::function<void()> pump_;
  WireTraffic traffic_;
  std::size_t queries_ = 0;
  std::optional<ParityQuery> last_query_;
};

}  // namespace qkd::proto
