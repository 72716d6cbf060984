#include "src/qkd/wire_link.hpp"

namespace qkd::proto {

bool WireParityServer::serve_one(wire::Transport& io) {
  const auto raw = io.recv_frame();
  if (!raw.has_value()) return false;
  const auto frame = wire::decode_frame(*raw);
  if (!frame.ok()) return false;
  return serve_frame(io, frame.value);
}

bool WireParityServer::serve_frame(wire::Transport& io,
                                   const wire::Frame& frame) {
  if (frame.type != wire::PacketType::kParityRequest) return false;
  const auto request = wire::ParityRequest::decode(frame.payload);
  if (!request.ok()) return false;

  const ParityQuery query = ParityQuery::from_request(request.value);
  // A retransmitted duplicate re-answers from cache: the same parity bit
  // said twice is one disclosure, not two.
  if (!(last_query_.has_value() && *last_query_ == query)) {
    last_parity_ = oracle_.parity(query);
    last_query_ = query;
  }

  wire::ParityResponse response;
  response.parity = last_parity_;
  const Bytes framed = wire::to_frame(response);
  io.send_frame(framed);
  ++traffic_.messages;
  traffic_.bytes += framed.size();
  return true;
}

bool WireParityClient::parity(const ParityQuery& query) {
  // Counted the way the server counts: the same question asked twice in a
  // row discloses one parity bit, not two.
  if (!(last_query_.has_value() && *last_query_ == query)) ++queries_;
  last_query_ = query;
  const Bytes framed = wire::to_frame(query.to_request());
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    io_.send_frame(framed);
    ++traffic_.messages;
    traffic_.bytes += framed.size();
    if (pump_) pump_();
    const auto raw = io_.recv_frame();
    if (!raw.has_value()) continue;  // lost in either direction
    const auto frame = wire::decode_frame(*raw);
    if (!frame.ok() || frame.value.type != wire::PacketType::kParityResponse)
      continue;  // corrupted: retransmit, verify will audit the result
    const auto response = wire::ParityResponse::decode(frame.value.payload);
    if (!response.ok()) continue;
    return response.value.parity;
  }
  throw ChannelLostError();
}

}  // namespace qkd::proto
