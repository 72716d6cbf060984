#include "links.hpp"

#include "spans.hpp"

namespace qkdbench {

Layers layers_template() {
  Layers layers;
  for (const std::string& stage : default_stage_names())
    layers.stage_busy_ms_per_qframe.emplace_back(stage, 0.0);
  for (std::size_t r = 1; r < qkd::proto::kAbortReasonCount; ++r)
    layers.qkd_aborted.emplace_back(
        qkd::proto::abort_reason_name(static_cast<qkd::proto::AbortReason>(r)),
        0.0);
  return layers;
}

void QkdSums::add_session(const qkd::proto::QkdLinkSession& session,
                          std::size_t pad_bits_at_start) {
  const auto& totals = session.totals();
  qframes += static_cast<double>(totals.batches);
  accepted += static_cast<double>(totals.accepted_batches);
  sifted_bits += static_cast<double>(totals.sifted_bits);
  distilled_bits += static_cast<double>(totals.distilled_bits);
  link_seconds += totals.duration_s;
  for (std::size_t r = 0; r < by_reason.size(); ++r)
    by_reason[r] += static_cast<double>(totals.by_reason[r]);
  const auto& optics = session.link().stats();
  pulses += static_cast<double>(optics.pulses);
  detections += static_cast<double>(optics.detections);
  double_clicks += static_cast<double>(optics.double_clicks);
  pad_net_bits += static_cast<double>(session.alice_auth().pad_bits_available()) -
                  static_cast<double>(pad_bits_at_start);
  const auto& wire = session.channel().stats();
  control_msgs += static_cast<double>(wire.messages_ab + wire.messages_ba);
  control_bytes += static_cast<double>(wire.bytes_ab + wire.bytes_ba);
  frames_lost += static_cast<double>(wire.lost);
}

void fill_qkd_layers(const QkdSums& sums,
                     const std::map<std::string, double>& self_s,
                     double traced_qframes, double units, Layers& layers) {
  const auto self = [&self_s](const std::string& name) {
    const auto it = self_s.find(name);
    return it == self_s.end() ? 0.0 : it->second;
  };
  const double q = sums.qframes;
  // run_batch's own time, outside every stage span, is the optics Qframe.
  const double optics_s = self(kRunBatchSpan);
  layers.optics_busy_ms_per_qframe = 1e3 * ratio(optics_s, traced_qframes);
  layers.optics_ns_per_slot =
      1e9 * ratio(optics_s, traced_qframes * ratio(sums.pulses, q));
  layers.optics_click_frac = ratio(sums.detections, sums.pulses);
  layers.optics_double_click_frac = ratio(sums.double_clicks, sums.pulses);
  for (auto& [stage, ms] : layers.stage_busy_ms_per_qframe)
    ms = 1e3 * ratio(self(stage_span_name(stage.c_str())), traced_qframes);
  layers.qkd_sifted_bits_per_qframe = ratio(sums.sifted_bits, q);
  layers.qkd_disclosed_bits_per_qframe = ratio(sums.disclosed_bits, q);
  layers.qkd_distill_yield = ratio(sums.distilled_bits, sums.sifted_bits);
  layers.qkd_accepted_frac = ratio(sums.accepted, q);
  for (std::size_t r = 1; r < qkd::proto::kAbortReasonCount; ++r)
    layers.qkd_aborted[r - 1].second = ratio(sums.by_reason[r], units);
  layers.qkd_auth_pad_net_bits_per_qframe = ratio(sums.pad_net_bits, q);
  layers.wire_control_msgs_per_qframe = ratio(sums.control_msgs, q);
  layers.wire_control_bytes_per_qframe = ratio(sums.control_bytes, q);
  layers.net_frames_lost_frac = ratio(sums.frames_lost, sums.control_msgs);
}

}  // namespace qkdbench
