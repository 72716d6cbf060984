// Per-link QKD accounting shared by the workloads that run the protocol
// engine (qframe_distill, engine_day): raw sums over link sessions, turned
// into the optics / qkd / wire / net per-layer metrics.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "harness.hpp"
#include "src/qkd/engine.hpp"

namespace qkdbench {

/// A Layers with every stage and abort-reason row present at zero, so each
/// workload reports the same per-layer metric names.
Layers layers_template();

struct QkdSums {
  double qframes = 0.0;
  double accepted = 0.0;
  double pulses = 0.0;
  double detections = 0.0;
  double double_clicks = 0.0;
  double sifted_bits = 0.0;
  double disclosed_bits = 0.0;  // fed by the traced pipeline decorator
  double distilled_bits = 0.0;
  double link_seconds = 0.0;    // simulated link time
  double pad_net_bits = 0.0;    // Alice's auth pad: end minus start
  double control_msgs = 0.0;
  double control_bytes = 0.0;
  double frames_lost = 0.0;
  std::array<double, qkd::proto::kAbortReasonCount> by_reason{};

  /// Adds one session's lifetime totals; `pad_bits_at_start` is Alice's
  /// pad_bits_available() right after construction.
  void add_session(const qkd::proto::QkdLinkSession& session,
                   std::size_t pad_bits_at_start);
};

/// Fills the optics, qkd, wire and net rows from `sums`, with stage and
/// run_batch self times from `self_s` (span name -> seconds) spread over
/// the `traced_qframes` Qframes the spans cover. Abort counts are per unit:
/// `units` is how many units `sums` covers.
void fill_qkd_layers(const QkdSums& sums,
                     const std::map<std::string, double>& self_s,
                     double traced_qframes, double units, Layers& layers);

}  // namespace qkdbench
