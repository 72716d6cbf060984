// Shared plumbing of the end-to-end benchmark: options, clocks, order
// statistics, correctness checks and the result every workload returns.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace qkdbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: measure the end-to-end metrics untraced. true: the per-layer
  /// run (spans, self times, tracing overhead).
  bool trace = false;
  /// Where a traced run writes its Chrome trace JSON.
  std::string trace_dir = ".";
};

/// A correctness check failed: the run exits non-zero and reports nothing.
class CheckFailed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

/// Steady-clock seconds since an arbitrary epoch.
double wall_now();
/// CPU seconds this process has used (all threads).
double cpu_now();
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Linearly interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

/// The quantile of a run's host times that its timing metrics report. The
/// reference host alternates, in phases of seconds to a minute, between its
/// full speed and one up to 70% slower (a neighbour contending for the
/// core), and how much of a run falls into slow phases is chance: a run's
/// mean or median moves by 20-40% with it, its first decile by about 5%.
inline constexpr double kPaceQuantile = 0.10;

/// `seconds` of host time taken at the run's pace: `pieces` are the host
/// times of equal slices of the run's work, and the result is `seconds`
/// scaled from the pieces' mean to their kPaceQuantile.
double at_pace(double seconds, const std::vector<double>& pieces);

/// How a workload's set-up is timed: every run builds the workload's
/// objects kSetupSamples times before and again after its timed units, plus
/// once per unit, and reports their kPaceQuantile.
inline constexpr std::size_t kSetupSamples = 15;

/// Wall seconds of untimed workload run before measuring, so the host's
/// clock ramp and cold caches stay out of the numbers.
inline constexpr double kWarmUpSeconds = 1.0;

/// Calls `step()` until kWarmUpSeconds have passed.
template <typename Fn>
void warm_up(Fn&& step) {
  const double start = wall_now();
  while (wall_now() - start < kWarmUpSeconds) step();
}

/// Builds a World, appending its construction time to `samples`.
template <typename World, typename... Args>
std::unique_ptr<World> timed_build(std::vector<double>& samples,
                                   Args&&... args) {
  const double start = wall_now();
  auto world = std::make_unique<World>(std::forward<Args>(args)...);
  samples.push_back(wall_now() - start);
  return world;
}

/// Builds and discards kSetupSamples Worlds. Before measuring, this warms
/// the allocator; after it, it samples set-up in another host phase.
template <typename World, typename... Args>
void warm_setups(std::vector<double>& samples, const Args&... args) {
  for (std::size_t i = 0; i < kSetupSamples; ++i)
    timed_build<World>(samples, args...);
}

/// Independent per-unit seed derived from the run's --seed (splitmix64).
std::uint64_t unit_seed(std::uint64_t seed, std::size_t unit);

/// How many units a run of `seconds` does: `seconds` over `unit_wall_s`,
/// the wall time of one unit on the reference host, rounded to the nearest
/// whole unit and at least `min_units`. A unit is a fixed amount of
/// simulated work, and the count depends on the options alone, never on
/// the clock: the same seed and seconds run the same units and fail the
/// same operations on every run, however fast the host is at the time.
std::size_t unit_count(double seconds, double unit_wall_s,
                       std::size_t min_units);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operations attempted and failed, plus metrics.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Safe ratio: 0 when the denominator is 0.
inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// The end-to-end metrics, measured untraced. Every workload reports all
/// of them (see qkdbench/README.md for what each means per workload).
struct EndToEnd {
  double setup_s = 0.0;
  double wall_s_per_sim_hour = 0.0;
  double distilled_bits_per_cpu_s = 0.0;
  double qframe_ms_p10 = 0.0;
  double key_rate_bps = 0.0;
  double grants_per_wall_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// The per-layer metrics of a traced run; a layer the workload does not
/// exercise reports 0.
struct Layers {
  double optics_busy_ms_per_qframe = 0.0;
  double optics_ns_per_slot = 0.0;
  double optics_click_frac = 0.0;
  double optics_double_click_frac = 0.0;
  /// Stage self time per Qframe, by PipelineStage::name().
  std::vector<std::pair<std::string, double>> stage_busy_ms_per_qframe;
  double qkd_sifted_bits_per_qframe = 0.0;
  double qkd_disclosed_bits_per_qframe = 0.0;
  double qkd_distill_yield = 0.0;
  double qkd_accepted_frac = 0.0;
  /// Aborted Qframes by abort_reason_name(), kNone excluded.
  std::vector<std::pair<std::string, double>> qkd_aborted;
  double qkd_auth_pad_net_bits_per_qframe = 0.0;
  double wire_control_msgs_per_qframe = 0.0;
  double wire_control_bytes_per_qframe = 0.0;
  double net_frames_lost_frac = 0.0;
  double keystore_link_bits_deposited = 0.0;
  double keystore_link_bits_withdrawn = 0.0;
  double keystore_failed_withdrawals = 0.0;
  double network_transports_attempted = 0.0;
  double network_transport_success_frac = 0.0;
  double network_transports_starved = 0.0;
  double network_reroutes = 0.0;
  double network_pad_bits_per_granted_bit = 0.0;
  double kms_service_rounds = 0.0;
  double kms_frames = 0.0;
  double kms_grants_per_frame = 0.0;
  double kms_starved_rounds = 0.0;
  double kms_shed = 0.0;
  double kms_rejected = 0.0;
  double kms_replenish_wakeups = 0.0;
  double kms_claims_mismatched = 0.0;
  /// The untraced pieces' tail (see at_pace): on the reference host it
  /// measures mostly the neighbours' load, so it is reported, not bounded.
  double qframe_ms_p90 = 0.0;
  double grant_latency_ms_p50 = 0.0;
  double grant_latency_ms_p99 = 0.0;
  double sim_events = 0.0;
  double sim_events_per_wall_s = 0.0;
  double ipsec_packets_delivered_frac = 0.0;
  double ipsec_phase2_completed = 0.0;
  double ipsec_supply_exhausted = 0.0;
  double ipsec_bridge_refills_granted_frac = 0.0;
  double obs_evaluate_busy_s = 0.0;
  double obs_evaluate_share = 0.0;
  double rest_busy_s = 0.0;
  double trace_overhead_frac = 0.0;
  double trace_unattributed_frac = 0.0;
};

void emit(const EndToEnd& e2e, Report& report);
void emit(const Layers& layers, Report& report);

Report run_qframe_distill(const Options& options);
Report run_engine_day(const Options& options);
Report run_kms_fleet(const Options& options);

}  // namespace qkdbench
