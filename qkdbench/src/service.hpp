// What the two mesh workloads (engine_day, kms_fleet) share: the built-in
// alert rule pack the benchmark evaluates itself, the Qframe-period probe
// behind qframe_ms_* on a scripted timeline, and the mesh / keystore / KMS
// accounting and correctness checks.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "spans.hpp"
#include "src/kms/client_fleet.hpp"
#include "src/kms/kms.hpp"
#include "src/network/key_transport.hpp"
#include "src/obs/health/alert.hpp"
#include "src/obs/metrics.hpp"

namespace qkdbench {

using Pair = std::pair<qkd::network::NodeId, qkd::network::NodeId>;

/// Simulated length of one paper Qframe: 2^20 slots at the 1 MHz trigger.
double paper_qframe_period_s();

/// Metrics registry plus alert engine loaded with the built-in rule pack:
/// a QBER spike rule per link, a pool drought rule per endpoint pair, an
/// SLO burn and a shed surge rule per QoS class and the distillation
/// watchdog. The benchmark schedules evaluate() every simulated second
/// itself (see schedule_evaluation), so it can time each call.
struct AlertPack {
  AlertPack(qkd::network::MeshSimulation& mesh,
            qkd::kms::KeyManagementService& kms,
            const std::vector<Pair>& pairs);

  qkd::obs::MetricsRegistry registry;
  qkd::obs::health::AlertEngine alerts;

  /// Evaluates the pack every simulated second on `scheduler`, inside a
  /// span when `recorder` is set.
  void schedule_evaluation(qkd::sim::EventScheduler& scheduler,
                           SpanRecorder* recorder);
};

/// Records the host time of every Qframe period of a scripted timeline
/// (qframe_ms_* on the mesh workloads). Arm before the runner schedules
/// its own events, so the probe fires first at each period boundary. With
/// `qframes` (a running count of Qframes the links have run), each period's
/// host time is divided by the Qframes run in it: host time per Qframe,
/// everything else on the timeline included.
class PeriodProbe {
 public:
  void arm(qkd::sim::EventScheduler& scheduler, std::vector<double>* out,
           std::function<double()> qframes = {});
  /// Marks the start of the timed run.
  void start();

 private:
  std::vector<double>* out_ = nullptr;
  std::function<double()> qframes_;
  double last_ = 0.0;
  double last_qframes_ = 0.0;
};

/// Request-to-grant latencies (simulated seconds) of every granted request.
void observe_grant_latency(qkd::kms::KeyManagementService& kms,
                           std::vector<double>& latencies_s);

/// Fails the run unless every peer claim matched its grant and every KMS
/// endpoint pair's mirrored stores agree on bits, key ids and counters.
void check_kms(const qkd::kms::KeyManagementService& kms,
               const qkd::kms::KmsClientFleet& fleet);

/// Bits and requests the KMS granted, over all classes.
double kms_granted_bits(const qkd::kms::KeyManagementService& kms);
double kms_grants(const qkd::kms::KeyManagementService& kms);

/// Raw sums behind the keystore / network / kms / sim rows, over units.
struct ServiceSums {
  double keystore_deposited = 0.0;
  double keystore_withdrawn = 0.0;
  double keystore_failed = 0.0;
  double transports_attempted = 0.0;
  double transports_succeeded = 0.0;
  double transports_starved = 0.0;
  double reroutes = 0.0;
  double pad_bits_consumed = 0.0;  // hop pads the relay frames spent
  double granted_bits = 0.0;
  double grants = 0.0;
  double service_rounds = 0.0;
  double frames = 0.0;
  double starved_rounds = 0.0;
  double shed = 0.0;
  double rejected = 0.0;
  double replenish_wakeups = 0.0;
  double claims_mismatched = 0.0;
  double sim_events = 0.0;
  std::vector<double> grant_latency_s;

  /// Adds one unit's mesh, KMS and fleet counters (the KMS pair stores
  /// count toward the keystore rows; an engine-backed workload adds its
  /// link supplies itself); `pad_bits_consumed` is the unit's hop-pad spend.
  void add(const qkd::network::MeshSimulation& mesh,
           const qkd::kms::KeyManagementService& kms,
           const qkd::kms::KmsClientFleet& fleet, double pad_bits_consumed,
           double sim_events);
};

/// Fills the keystore, network, kms, grant latency and sim rows; counts
/// are per unit (`units` is how many units `sums` covers).
void fill_service_layers(const ServiceSums& sums, double traced_wall_s,
                         double units, Layers& layers);

/// Fills the obs, rest and trace rows of a mesh workload from span self
/// times: rest is traced wall time outside every stage and evaluate span.
void fill_time_layers(const std::map<std::string, double>& self_s,
                      double traced_wall_s, double untraced_s_per_sim_s,
                      double traced_s_per_sim_s, Layers& layers);

}  // namespace qkdbench
