#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

namespace qkdbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t unit_seed(std::uint64_t seed, std::size_t unit) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + unit + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double at_pace(double seconds, const std::vector<double>& pieces) {
  double sum = 0.0;
  for (double piece : pieces) sum += piece;
  if (sum <= 0.0) return 0.0;
  const double mean = sum / static_cast<double>(pieces.size());
  return seconds * quantile(pieces, kPaceQuantile) / mean;
}

std::size_t unit_count(double seconds, double unit_wall_s,
                       std::size_t min_units) {
  const auto units =
      static_cast<std::size_t>(std::llround(seconds / unit_wall_s));
  return std::max(units, min_units);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void emit(const EndToEnd& e, Report& r) {
  r.add("setup_s", e.setup_s, "s");
  r.add("wall_s_per_sim_hour", e.wall_s_per_sim_hour, "s");
  r.add("distilled_bits_per_cpu_s", e.distilled_bits_per_cpu_s, "bit/s");
  r.add("qframe_ms_p10", e.qframe_ms_p10, "ms");
  r.add("key_rate_bps", e.key_rate_bps, "bit/s");
  r.add("grants_per_wall_s", e.grants_per_wall_s, "1/s");
  r.add("peak_rss_mb", e.peak_rss_mb, "MiB");
}

void emit(const Layers& l, Report& r) {
  r.add("optics.busy_ms_per_qframe", l.optics_busy_ms_per_qframe, "ms");
  r.add("optics.ns_per_slot", l.optics_ns_per_slot, "ns");
  r.add("optics.click_frac", l.optics_click_frac, "fraction");
  r.add("optics.double_click_frac", l.optics_double_click_frac, "fraction");
  for (const auto& [stage, ms] : l.stage_busy_ms_per_qframe)
    r.add("qkd." + stage + ".busy_ms_per_qframe", ms, "ms");
  r.add("qkd.sifted_bits_per_qframe", l.qkd_sifted_bits_per_qframe, "bit");
  r.add("qkd.disclosed_bits_per_qframe", l.qkd_disclosed_bits_per_qframe, "bit");
  r.add("qkd.distill_yield", l.qkd_distill_yield, "fraction");
  r.add("qkd.accepted_frac", l.qkd_accepted_frac, "fraction");
  for (const auto& [reason, count] : l.qkd_aborted)
    r.add("qkd.aborted." + reason, count, "count");
  r.add("qkd.auth_pad_net_bits_per_qframe", l.qkd_auth_pad_net_bits_per_qframe,
        "bit");
  r.add("wire.control_msgs_per_qframe", l.wire_control_msgs_per_qframe, "count");
  r.add("wire.control_bytes_per_qframe", l.wire_control_bytes_per_qframe, "B");
  r.add("net.frames_lost_frac", l.net_frames_lost_frac, "fraction");
  r.add("keystore.link_bits_deposited", l.keystore_link_bits_deposited, "bit");
  r.add("keystore.link_bits_withdrawn", l.keystore_link_bits_withdrawn, "bit");
  r.add("keystore.failed_withdrawals", l.keystore_failed_withdrawals, "count");
  r.add("network.transports_attempted", l.network_transports_attempted, "count");
  r.add("network.transport_success_frac", l.network_transport_success_frac,
        "fraction");
  r.add("network.transports_starved", l.network_transports_starved, "count");
  r.add("network.reroutes", l.network_reroutes, "count");
  r.add("network.pad_bits_per_granted_bit", l.network_pad_bits_per_granted_bit,
        "ratio");
  r.add("kms.service_rounds", l.kms_service_rounds, "count");
  r.add("kms.frames", l.kms_frames, "count");
  r.add("kms.grants_per_frame", l.kms_grants_per_frame, "ratio");
  r.add("kms.starved_rounds", l.kms_starved_rounds, "count");
  r.add("kms.shed", l.kms_shed, "count");
  r.add("kms.rejected", l.kms_rejected, "count");
  r.add("kms.replenish_wakeups", l.kms_replenish_wakeups, "count");
  r.add("kms.claims_mismatched", l.kms_claims_mismatched, "count");
  r.add("qframe_ms_p90", l.qframe_ms_p90, "ms");
  r.add("grant_latency_ms_p50", l.grant_latency_ms_p50, "ms");
  r.add("grant_latency_ms_p99", l.grant_latency_ms_p99, "ms");
  r.add("sim.events", l.sim_events, "count");
  r.add("sim.events_per_wall_s", l.sim_events_per_wall_s, "1/s");
  r.add("ipsec.packets_delivered_frac", l.ipsec_packets_delivered_frac,
        "fraction");
  r.add("ipsec.phase2_completed", l.ipsec_phase2_completed, "count");
  r.add("ipsec.supply_exhausted", l.ipsec_supply_exhausted, "count");
  r.add("ipsec.bridge_refills_granted_frac",
        l.ipsec_bridge_refills_granted_frac, "fraction");
  r.add("obs.evaluate_busy_s", l.obs_evaluate_busy_s, "s");
  r.add("obs.evaluate_share", l.obs_evaluate_share, "fraction");
  r.add("rest.busy_s", l.rest_busy_s, "s");
  r.add("trace.overhead_frac", l.trace_overhead_frac, "fraction");
  r.add("trace.unattributed_frac", l.trace_unattributed_frac, "fraction");
}

}  // namespace qkdbench
