#include "src/wire/frame.hpp"

namespace qkd::wire {

bool packet_type_known(std::uint8_t raw) {
  switch (static_cast<PacketType>(raw)) {
    case PacketType::kQframeFeed:
    case PacketType::kSiftAnnounce:
    case PacketType::kSiftDecision:
    case PacketType::kSampleReveal:
    case PacketType::kParityRequest:
    case PacketType::kParityResponse:
    case PacketType::kEcSummary:
    case PacketType::kVerifyHash:
    case PacketType::kPaParams:
    case PacketType::kAbort:
    case PacketType::kTranscriptTag:
    case PacketType::kKmsRegister:
    case PacketType::kKmsRegisterReply:
    case PacketType::kKmsGetKey:
    case PacketType::kKmsGrant:
    case PacketType::kKmsGetKeyWithId:
    case PacketType::kKmsKeyWithIdReply:
    case PacketType::kKmsStatus:
    case PacketType::kKmsStatusReply:
    case PacketType::kKmsReject:
    case PacketType::kKmsBye:
    case PacketType::kRelayHeader:
      return true;
  }
  return false;
}

const char* packet_type_name(PacketType type) {
  switch (type) {
    case PacketType::kQframeFeed: return "qframe-feed";
    case PacketType::kSiftAnnounce: return "sift-announce";
    case PacketType::kSiftDecision: return "sift-decision";
    case PacketType::kSampleReveal: return "sample-reveal";
    case PacketType::kParityRequest: return "parity-request";
    case PacketType::kParityResponse: return "parity-response";
    case PacketType::kEcSummary: return "ec-summary";
    case PacketType::kVerifyHash: return "verify-hash";
    case PacketType::kPaParams: return "pa-params";
    case PacketType::kAbort: return "abort";
    case PacketType::kTranscriptTag: return "transcript-tag";
    case PacketType::kKmsRegister: return "kms-register";
    case PacketType::kKmsRegisterReply: return "kms-register-reply";
    case PacketType::kKmsGetKey: return "kms-get-key";
    case PacketType::kKmsGrant: return "kms-grant";
    case PacketType::kKmsGetKeyWithId: return "kms-get-key-with-id";
    case PacketType::kKmsKeyWithIdReply: return "kms-key-with-id-reply";
    case PacketType::kKmsStatus: return "kms-status";
    case PacketType::kKmsStatusReply: return "kms-status-reply";
    case PacketType::kKmsReject: return "kms-reject";
    case PacketType::kKmsBye: return "kms-bye";
    case PacketType::kRelayHeader: return "relay-header";
  }
  return "?";
}

const char* wire_error_name(WireError error) {
  switch (error) {
    case WireError::kNone: return "none";
    case WireError::kShortFrame: return "short-frame";
    case WireError::kBadMagic: return "bad-magic";
    case WireError::kBadVersion: return "bad-version";
    case WireError::kUnknownType: return "unknown-type";
    case WireError::kOversizedFrame: return "oversized-frame";
    case WireError::kTrailingBytes: return "trailing-bytes";
    case WireError::kMalformedPayload: return "malformed-payload";
    case WireError::kClosed: return "closed";
  }
  return "?";
}

Bytes encode_frame(PacketType type, const Bytes& payload) {
  return encode_frame(type, payload, obs::TraceContext{});
}

Bytes encode_frame(PacketType type, const Bytes& payload,
                   obs::TraceContext trace) {
  const bool traced = trace.valid();
  Bytes out;
  out.reserve(kHeaderBytes + (traced ? kTraceExtensionBytes : 0) +
              payload.size());
  put_u16(out, kMagic);
  put_u8(out, traced ? kWireVersionTraced : kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  if (traced) {
    put_u64(out, trace.trace_id);
    put_u64(out, trace.parent_span);
  }
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Result<std::size_t> frame_total_length(
    std::span<const std::uint8_t> prefix) {
  if (prefix.size() < kHeaderBytes)
    return Result<std::size_t>::failure(WireError::kShortFrame);
  ByteReader reader(prefix.first(kHeaderBytes));
  if (reader.u16() != kMagic)
    return Result<std::size_t>::failure(WireError::kBadMagic);
  const std::uint8_t version = reader.u8();
  if (version != kWireVersion && version != kWireVersionTraced)
    return Result<std::size_t>::failure(WireError::kBadVersion);
  if (!packet_type_known(reader.u8()))
    return Result<std::size_t>::failure(WireError::kUnknownType);
  const std::uint32_t payload_len = reader.u32();
  if (payload_len > kMaxPayloadBytes)
    return Result<std::size_t>::failure(WireError::kOversizedFrame);
  const std::size_t extension =
      version == kWireVersionTraced ? kTraceExtensionBytes : 0;
  return Result<std::size_t>::success(kHeaderBytes + extension + payload_len);
}

Result<Frame> decode_frame(std::span<const std::uint8_t> buffer) {
  const auto total = frame_total_length(buffer);
  if (!total.ok()) return Result<Frame>::failure(total.error);
  if (buffer.size() < total.value)
    return Result<Frame>::failure(WireError::kShortFrame);
  if (buffer.size() > total.value)
    return Result<Frame>::failure(WireError::kTrailingBytes);
  Frame frame;
  frame.type = static_cast<PacketType>(buffer[3]);
  std::size_t payload_start = kHeaderBytes;
  if (buffer[2] == kWireVersionTraced) {
    ByteReader reader(buffer.subspan(kHeaderBytes, kTraceExtensionBytes));
    frame.trace.trace_id = reader.u64();
    frame.trace.parent_span = reader.u64();
    payload_start += kTraceExtensionBytes;
  }
  frame.payload.assign(buffer.begin() + payload_start, buffer.end());
  return Result<Frame>::success(std::move(frame));
}

}  // namespace qkd::wire
