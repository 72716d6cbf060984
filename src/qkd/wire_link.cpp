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
  wire::ParityResponse response;
  // A retransmitted duplicate re-answers from cache: the same parity bit
  // said twice is one disclosure, not two, and one entry in the log.
  const bool repeat = last_query_.has_value() && *last_query_ == query;
  if (!repeat) {
    try {
      last_parity_ = oracle_.parity(query);
    } catch (const std::out_of_range&) {
      return false;  // a question about bits Alice does not hold
    }
    last_query_ = query;
  }
  response.parity = last_parity_;
  const Bytes payload = response.encode();
  if (!repeat) {
    transcript_.log(wire::PacketType::kParityRequest, frame.payload);
    transcript_.log(wire::PacketType::kParityResponse, payload);
  }
  const Bytes framed = wire::encode_frame(wire::ParityResponse::kType, payload);
  io.send_frame(framed);
  ++traffic_.messages;
  traffic_.bytes += framed.size();
  return true;
}

bool WireParityClient::parity(const ParityQuery& query) {
  // Counted (and logged) the way the server counts: the same question
  // asked twice in a row discloses one parity bit, not two.
  const bool repeat = last_query_.has_value() && *last_query_ == query;
  if (!repeat) ++queries_;
  last_query_ = query;
  const Bytes request = query.to_request().encode();
  const Bytes framed = wire::encode_frame(wire::ParityRequest::kType, request);
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
    if (!repeat || response.value.parity != last_parity_) {
      transcript_.log(wire::PacketType::kParityRequest, request);
      transcript_.log(wire::PacketType::kParityResponse, frame.value.payload);
    }
    last_parity_ = response.value.parity;
    return last_parity_;
  }
  throw ChannelLostError();
}

}  // namespace qkd::proto
