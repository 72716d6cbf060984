// The stage-decomposed QKD protocol pipeline.
//
// run_batch() used to be one monolith; it is now an ordered run of
// PipelineStage objects sharing a BatchContext. Gilbert & Hamrick
// (quant-ph/0106043) argue that the computational load and rate of *each*
// distillation stage must be measurable independently to assess
// practicality — so every stage is timed and its wire traffic attributed
// separately (BatchResult::stages), and stages can be reordered, swapped,
// or replaced wholesale via QkdLinkSession::set_pipeline().
//
// Default order (paper Fig. 9, left to right):
//   SiftingStage -> SamplingStage -> ErrorCorrectionStage -> VerifyStage
//     -> EntropyStage -> PrivacyAmplificationStage -> AuthReplenishStage
//
// Each stage runs both sides' steps of its part of the dialogue
// (src/qkd/dialogue.hpp) in dialogue order, moving every packet between
// them with BatchContext::ship; the two-process peers (src/qkd/peer.hpp)
// run the same steps one side each. A stage returns AbortReason::kNone to
// pass control to the next stage, or the reason the batch must be
// rejected; the runner stops at the first abort. The physical layer (one
// Qframe through the optics) runs before the pipeline and fills
// BatchContext::frame.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/qkd/dialogue.hpp"
#include "src/qkd/engine.hpp"
#include "src/wire/packets.hpp"
#include "src/wire/transport.hpp"

namespace qkd::proto {

/// Per-frame working state threaded through the stages: each side's own
/// state, its end of the classical channel, the Qframe, and the batch's
/// accounting. A stage's steps for one side touch only that side's state.
struct BatchContext {
  DialogueSide alice;
  DialogueSide bob;
  // Each side's end of the classical channel (Alice = side A). The
  // in-memory session hands in two ChannelTransports over one
  // PublicChannel.
  wire::Transport& alice_wire;
  wire::Transport& bob_wire;
  const qkd::optics::FrameResult& frame;

  // Accounting sink; also where the final key lands.
  BatchResult& result;

  /// Ships one typed packet from one side to the other as a real encoded
  /// frame over the transports, retransmitting through loss, until the
  /// receiving side accepts a frame (it decodes, and accepts() it);
  /// `received` is what it accepted, which the receiver's steps then use.
  /// The sender's transcript logs what it sent, the receiver's what it
  /// accepted. Counts every frame actually put on the wire into `result`.
  /// False when retransmission gave up (kChannelLost).
  template <typename Packet>
  bool ship(bool from_alice, const Packet& packet, Packet& received) {
    const DialogueSide& receiver = from_alice ? bob : alice;
    return ship_frame(from_alice, Packet::kType, packet.encode(),
                      [&](const Bytes& payload) {
                        auto decoded = Packet::decode(payload);
                        if (!decoded.ok() || !accepts(receiver, decoded.value))
                          return false;
                        received = std::move(decoded.value);
                        return true;
                      });
  }

  /// The transport-level primitive behind ship().
  bool ship_frame(bool from_alice, wire::PacketType type, const Bytes& payload,
                  const std::function<bool(const Bytes&)>& accept);
};

/// One stage of the distillation pipeline.
class PipelineStage {
 public:
  virtual ~PipelineStage() = default;

  /// Stable identifier used in BatchResult::stages and the benches.
  virtual const char* name() const = 0;

  /// Runs the stage. Returning anything but kNone rejects the batch.
  virtual AbortReason run(BatchContext& ctx) = 0;
};

/// Bob announces detections; Alice replies with the compatible-basis
/// subset; both sides keep the sifted bits (Sec. 5).
class SiftingStage final : public PipelineStage {
 public:
  const char* name() const override { return "sifting"; }
  AbortReason run(BatchContext& ctx) override;
};

/// Sacrifices a random `sample_fraction` of the sifted bits to estimate the
/// error rate in the clear; early-aborts at intercept-resend QBER levels.
class SamplingStage final : public PipelineStage {
 public:
  const char* name() const override { return "sampling"; }
  AbortReason run(BatchContext& ctx) override;
};

/// Bob drives the configured corrector against Alice's parity oracle; his
/// summary closes the dialogue.
class ErrorCorrectionStage final : public PipelineStage {
 public:
  const char* name() const override { return "error-correction"; }
  AbortReason run(BatchContext& ctx) override;
};

/// Exchanges a hash of the corrected strings (IKE "has no mechanisms for
/// noticing" key disagreement, so the QKD stack must catch residual errors
/// here), then applies the canonical 11 % alarm on the exact error rate.
class VerifyStage final : public PipelineStage {
 public:
  const char* name() const override { return "verify"; }
  AbortReason run(BatchContext& ctx) override;
};

/// The Sec. 6 entropy estimate: how many bits survive Eve's knowledge.
class EntropyStage final : public PipelineStage {
 public:
  const char* name() const override { return "entropy"; }
  AbortReason run(BatchContext& ctx) override;
};

/// GF(2^n) linear-hash privacy amplification, chunked to the field-width
/// ladder (Sec. 5): Alice announces each chunk's parameters, Bob
/// cross-checks them against his own derivation.
class PrivacyAmplificationStage final : public PipelineStage {
 public:
  const char* name() const override { return "privacy-amplification"; }
  AbortReason run(BatchContext& ctx) override;
};

/// Diverts the configured slice of distilled key into both endpoints'
/// Wegman-Carter pad pools and delivers the remainder (Sec. 5).
class AuthReplenishStage final : public PipelineStage {
 public:
  const char* name() const override { return "auth-replenish"; }
  AbortReason run(BatchContext& ctx) override;
};

/// The Fig. 9 default: all seven stages in protocol order.
std::vector<std::unique_ptr<PipelineStage>> default_pipeline();

}  // namespace qkd::proto
