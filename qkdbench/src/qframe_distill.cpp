// Workload qframe_distill: one QkdLinkSession at the paper-default
// QkdLinkConfig (10 km, mu = 0.1, 1 MHz, 2^20-slot Qframes), calling
// run_batch back to back in a closed loop. It isolates per-link
// distillation (optics plus the seven stages), which dominates every
// engine-backed run; keystore, mesh, KMS and scheduler do nothing here.
#include <cmath>

#include "links.hpp"
#include "spans.hpp"
#include "src/optics/link_model.hpp"

namespace qkdbench {
namespace {

/// One unit is a fresh session running this many Qframes (~3.7 simulated
/// minutes). The session's Wegman-Carter pads drain by 64 bits per Qframe
/// at the default config, so from about Qframe 125 on every batch aborts
/// auth-exhausted: a unit this long shows that defect on every run.
constexpr std::size_t kQframesPerUnit = 200;
/// Wall seconds of one unit on the reference host (see README).
constexpr double kUnitWallS = 13.0;

/// The paper's operating point, Sec. 4: "approximately a 6-8% QBER".
constexpr double kQberLow = 0.06;
constexpr double kQberHigh = 0.08;

struct DistillWorld {
  explicit DistillWorld(std::uint64_t seed)
      : session(qkd::proto::QkdLinkConfig{}, seed),
        pad_bits_at_start(session.alice_auth().pad_bits_available()) {}

  qkd::proto::QkdLinkSession session;
  std::size_t pad_bits_at_start;
};

/// The detection fraction must sit in the tier-1 band around the analytic
/// single-click probability, and the QBER over every sifted bit of the unit
/// in the paper's 6-8% band. The band test allows for the sampling error
/// of the measured QBER: it fails only when the 4-sigma interval around
/// the measurement lies wholly outside the band.
void check_physics(const QkdSums& unit, double errors) {
  const qkd::optics::LinkModel model(qkd::proto::QkdLinkConfig{}.link);
  const double predicted = model.p_single_click();
  const double measured = ratio(unit.detections, unit.pulses);
  check(std::abs(measured - predicted) <= 0.15 * predicted + 1e-5,
        "detection fraction " + std::to_string(measured) +
            " is outside the band around p_single_click " +
            std::to_string(predicted));
  check(unit.sifted_bits > 0.0, "no sifted bits");
  const double qber = errors / unit.sifted_bits;
  const double sigma = std::sqrt(qber * (1.0 - qber) / unit.sifted_bits);
  check(qber + 4.0 * sigma >= kQberLow && qber - 4.0 * sigma <= kQberHigh,
        "QBER " + std::to_string(qber) + " is outside the paper's 6-8% band");
}

}  // namespace

Report run_qframe_distill(const Options& options) {
  Report report;
  std::vector<double> setup_s;
  std::vector<double> qframe_s;         // untraced run_batch wall times
  std::vector<double> traced_qframe_s;  // traced ones (--trace 1 only)
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double units = 0.0;
  QkdSums sums;
  double sim_base_s = 0.0;  // the trace's timeline: link time across units
  const qkd::proto::QkdLinkSession* live = nullptr;
  SpanRecorder recorder;
  recorder.set_sim_time_source([&] {
    return qkd::seconds_to_sim(
        sim_base_s + (live != nullptr ? live->totals().duration_s : 0.0));
  });

  warm_setups<DistillWorld>(setup_s, unit_seed(options.seed, 1u << 20));
  DistillWorld warm(unit_seed(options.seed, 1u << 21));
  warm_up([&warm] { warm.session.run_batch(); });
  const std::size_t n_units = unit_count(options.seconds, kUnitWallS, 1);
  for (std::size_t u = 0; u < n_units; ++u) {
    auto world = timed_build<DistillWorld>(setup_s, unit_seed(options.seed, u));
    qkd::proto::QkdLinkSession& session = world->session;
    if (options.trace) install_traced_pipeline(session, recorder, sums.disclosed_bits);
    live = &session;

    double errors = 0.0;
    const double wall0 = wall_now();
    const double cpu0 = cpu_now();
    for (std::size_t i = 0; i < kQframesPerUnit; ++i) {
      // A traced run traces every other Qframe: the untraced neighbours
      // are the baseline of the tracing overhead, measured under the same
      // host conditions.
      const bool tracing = options.trace && i % 2 == 0;
      recorder.set_recording(tracing);
      qkd::proto::BatchResult batch;
      const double start = wall_now();
      {
        SpanRecorder::Scope span(recorder, kRunBatchSpan);
        batch = session.run_batch();
      }
      (tracing ? traced_qframe_s : qframe_s).push_back(wall_now() - start);
      check(batch.accepted == (batch.reason == qkd::proto::AbortReason::kNone),
            "accepted flag disagrees with the abort reason");
      check(batch.key.size() == batch.distilled_bits,
            "delivered key size disagrees with distilled_bits");
      errors += batch.qber_actual * static_cast<double>(batch.sifted_bits);
    }
    units += 1.0;
    wall_s += wall_now() - wall0;
    cpu_s += cpu_now() - cpu0;

    QkdSums unit;
    unit.add_session(session, world->pad_bits_at_start);
    check_physics(unit, errors);
    sums.add_session(session, world->pad_bits_at_start);
    report.attempted += session.totals().batches;
    report.failed += session.totals().batches - session.totals().accepted_batches;
    sim_base_s += session.totals().duration_s;
    live = nullptr;
  }
  warm_setups<DistillWorld>(setup_s, unit_seed(options.seed, 1u << 20));

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = quantile(setup_s, kPaceQuantile);
    e2e.wall_s_per_sim_hour =
        3600.0 * ratio(at_pace(wall_s, qframe_s), sums.link_seconds);
    e2e.distilled_bits_per_cpu_s =
        ratio(sums.distilled_bits, at_pace(cpu_s, qframe_s));
    e2e.qframe_ms_p10 = 1e3 * quantile(qframe_s, kPaceQuantile);
    e2e.key_rate_bps = ratio(sums.distilled_bits, sums.link_seconds);
    // A grant here is an accepted Qframe's key block handed to the caller.
    e2e.grants_per_wall_s = ratio(sums.accepted, at_pace(wall_s, qframe_s));
    e2e.peak_rss_mb = peak_rss_mb();
    emit(e2e, report);
    return report;
  }

  const auto self_s = recorder.self_seconds();
  Layers layers = layers_template();
  const auto traced = static_cast<double>(traced_qframe_s.size());
  fill_qkd_layers(sums, self_s, traced, units, layers);
  layers.qframe_ms_p90 = 1e3 * quantile(qframe_s, 0.90);
  double spanned_s = 0.0;
  for (const auto& [name, seconds] : self_s) spanned_s += seconds;
  double traced_wall_s = 0.0;
  for (double s : traced_qframe_s) traced_wall_s += s;
  double untraced_wall_s = 0.0;
  for (double s : qframe_s) untraced_wall_s += s;
  layers.rest_busy_s = traced_wall_s - spanned_s;
  layers.trace_unattributed_frac = ratio(layers.rest_busy_s, traced_wall_s);
  layers.trace_overhead_frac =
      ratio(traced_wall_s / traced,
            untraced_wall_s / static_cast<double>(qframe_s.size())) -
      1.0;
  write_trace(recorder, options);
  emit(layers, report);
  return report;
}

}  // namespace qkdbench
