// Workload kms_fleet: a supply-rich analytic-rate mesh (a ring of four
// trusted relays, one endpoint on each) with four endpoint pairs crossing
// relays. A thousand KmsClientFleet clients in three QoS classes request
// key at 10 Hz each; every grant is claimed by the peer, and the built-in
// alert rule pack is evaluated every simulated second. The grant path, DRR,
// batching, mesh planning, scheduler and observability do all the work and
// optics does none: the control for a distillation change and the home of
// a grant-path change.
#include <random>

#include "links.hpp"
#include "service.hpp"
#include "spans.hpp"
#include "src/sim/scenario.hpp"

namespace qkdbench {
namespace {

using qkd::SimTime;
using qkd::kSecond;
using qkd::network::NodeId;
using qkd::network::NodeKind;

/// One unit is this many simulated seconds of the fleet.
constexpr double kHorizonS = 20.0;
constexpr std::size_t kRelays = 4;
/// Clients per endpoint pair and class, request sizes, and the rate.
constexpr std::size_t kClients[3] = {50, 100, 100};
constexpr std::size_t kBits[3] = {32, 64, 128};
constexpr double kRequestHz = 10.0;
/// Trigger rate of every link: the analytic supply is several times the
/// fleet's demand, so no request should wait on key.
constexpr double kPulseRateHz = 1e10;
/// Simulated seconds of distillation before the fleet arrives.
constexpr double kPrefillS = 10.0;
/// Wall seconds of one unit on the reference host (see README).
constexpr double kUnitWallS = 0.28;

/// Relays 0..3 in a ring (links 0..3); endpoint 4+i hangs off relay i.
qkd::network::Topology relay_ring() {
  qkd::network::Topology topology;
  qkd::optics::LinkParams optics;
  optics.pulse_rate_hz = kPulseRateHz;
  for (std::size_t i = 0; i < kRelays; ++i)
    topology.add_node("relay-" + std::to_string(i), NodeKind::kTrustedRelay);
  for (std::size_t i = 0; i < kRelays; ++i)
    topology.add_node("site-" + std::to_string(i), NodeKind::kEndpoint);
  for (NodeId i = 0; i < kRelays; ++i)
    topology.add_link(i, (i + 1) % kRelays, optics);
  for (NodeId i = 0; i < kRelays; ++i) topology.add_link(i, kRelays + i, optics);
  return topology;
}

const std::vector<Pair>& fleet_pairs() {
  static const std::vector<Pair> pairs = {{4, 6}, {5, 7}, {4, 5}, {6, 7}};
  return pairs;
}

/// Every cohort arrives within the first simulated second, at a seeded
/// instant, so client phases differ from seed to seed.
qkd::sim::Scenario fleet_script(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<SimTime> arrival(0, kSecond);
  qkd::sim::Scenario script;
  for (const auto& [src, dst] : fleet_pairs())
    for (unsigned qos = 0; qos < 3; ++qos)
      script.at(arrival(rng),
                qkd::sim::ClientArrival{src, dst, qos, kClients[qos],
                                        kRequestHz, kBits[qos]});
  return script;
}

struct FleetWorld {
  FleetWorld(std::uint64_t seed, SpanRecorder* recorder,
             std::vector<double>* periods)
      : mesh(relay_ring(), seed), runner(fleet_script(seed)) {
    mesh.step(kPrefillS);
    for (const auto& link : mesh.topology().links())
      pool_bits_at_start.push_back(mesh.link_pool_bits(link.id));
    runner.attach_mesh(mesh);
    probe.arm(runner.scheduler(), periods);
    qkd::kms::KeyManagementService::Config config;
    config.seed = seed;
    kms = std::make_unique<qkd::kms::KeyManagementService>(
        mesh, runner.scheduler(), config);
    fleet = std::make_unique<qkd::kms::KmsClientFleet>(*kms, runner.scheduler());
    runner.attach_client_driver(*fleet);
    pack = std::make_unique<AlertPack>(mesh, *kms, fleet_pairs());
    pack->schedule_evaluation(runner.scheduler(), recorder);
    if (recorder != nullptr) observe_grant_latency(*kms, grant_latency_s);
  }

  // Declared first: the KMS's grant observer writes it.
  std::vector<double> grant_latency_s;
  std::vector<double> pool_bits_at_start;
  qkd::network::MeshSimulation mesh;
  qkd::sim::ScenarioRunner runner;
  PeriodProbe probe;
  std::unique_ptr<qkd::kms::KeyManagementService> kms;
  std::unique_ptr<qkd::kms::KmsClientFleet> fleet;
  std::unique_ptr<AlertPack> pack;
};

struct Totals {
  double units = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double sim_s = 0.0;
  double link_s = 0.0;
  double distilled_bits = 0.0;  // accrued during the timed runs
  double grants = 0.0;
  ServiceSums service;
};

}  // namespace

Report run_kms_fleet(const Options& options) {
  Report report;
  std::vector<double> setup_s;
  std::vector<double> period_s;
  Totals untraced;
  Totals traced;
  SpanRecorder recorder;

  warm_setups<FleetWorld>(setup_s, unit_seed(options.seed, 1u << 20), nullptr,
                          nullptr);
  warm_up([&options] {
    FleetWorld warm(unit_seed(options.seed, 1u << 21), nullptr, nullptr);
    warm.runner.run(qkd::seconds_to_sim(kHorizonS));
  });
  const std::size_t n_units =
      unit_count(options.seconds, kUnitWallS, options.trace ? 2 : 1);
  for (std::size_t u = 0; u < n_units; ++u) {
    const bool tracing = options.trace && u % 2 == 1;
    Totals& into = tracing ? traced : untraced;
    auto world = timed_build<FleetWorld>(setup_s, unit_seed(options.seed, u),
                                         tracing ? &recorder : nullptr,
                                         tracing ? nullptr : &period_s);
    FleetWorld& w = *world;
    if (tracing) {
      const double base_s = traced.sim_s;
      recorder.set_sim_time_source([&w, base_s] {
        return qkd::seconds_to_sim(base_s) + w.runner.scheduler().now();
      });
    }

    const double wall0 = wall_now();
    const double cpu0 = cpu_now();
    w.probe.start();
    std::size_t events = 0;
    if (tracing) {
      SpanRecorder::Scope span(recorder, kScenarioRunSpan);
      events = w.runner.run(qkd::seconds_to_sim(kHorizonS));
    } else {
      events = w.runner.run(qkd::seconds_to_sim(kHorizonS));
    }
    into.units += 1.0;
    into.wall_s += wall_now() - wall0;
    into.cpu_s += cpu_now() - cpu0;
    into.sim_s += kHorizonS;
    into.link_s += kHorizonS * static_cast<double>(w.mesh.topology().link_count());

    // The analytic mesh distills each link at its closed-form rate; what
    // left a pool went out as hop pads.
    double available = 0.0;  // prefill plus everything accrued
    double pad_bits = 0.0;
    for (const auto& link : w.mesh.topology().links()) {
      const double accrued =
          qkd::network::link_distill_rate_bps(link) * kHorizonS;
      into.distilled_bits += accrued;
      available += w.pool_bits_at_start[link.id] + accrued;
      pad_bits += w.pool_bits_at_start[link.id] + accrued -
                  w.mesh.link_pool_bits(link.id);
    }

    check_kms(*w.kms, *w.fleet);
    check(kms_granted_bits(*w.kms) <= available,
          "the KMS granted more bits than the links distilled");

    // A request ungranted at the horizon counts as failed, those still in
    // flight there too. A supply-rich KMS keeps up, so no more requests may
    // be in flight than there are clients.
    const auto& fleet = w.fleet->stats();
    const std::uint64_t in_flight = fleet.requests_issued - fleet.granted -
                                    fleet.rejected - fleet.shed - fleet.departed;
    check(in_flight <= w.fleet->active_clients(),
          std::to_string(in_flight) + " requests in flight at the horizon, " +
              "more than the " + std::to_string(w.fleet->active_clients()) +
              " clients");
    report.attempted += fleet.requests_issued;
    report.failed += fleet.requests_issued - fleet.granted;
    into.grants += static_cast<double>(fleet.granted);
    into.service.add(w.mesh, *w.kms, *w.fleet, pad_bits,
                     static_cast<double>(events));
    into.service.grant_latency_s.insert(into.service.grant_latency_s.end(),
                                        w.grant_latency_s.begin(),
                                        w.grant_latency_s.end());
  }
  warm_setups<FleetWorld>(setup_s, unit_seed(options.seed, 1u << 20), nullptr,
                          nullptr);

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = quantile(setup_s, kPaceQuantile);
    const double wall_s = at_pace(untraced.wall_s, period_s);
    e2e.wall_s_per_sim_hour = 3600.0 * ratio(wall_s, untraced.sim_s);
    e2e.distilled_bits_per_cpu_s =
        ratio(untraced.distilled_bits, at_pace(untraced.cpu_s, period_s));
    e2e.qframe_ms_p10 = 1e3 * quantile(period_s, kPaceQuantile);
    e2e.key_rate_bps = ratio(untraced.distilled_bits, untraced.link_s);
    e2e.grants_per_wall_s = ratio(untraced.grants, wall_s);
    e2e.peak_rss_mb = peak_rss_mb();
    emit(e2e, report);
    return report;
  }

  const auto self_s = recorder.self_seconds();
  Layers layers = layers_template();
  layers.qframe_ms_p90 = 1e3 * quantile(period_s, 0.90);
  fill_service_layers(traced.service, traced.wall_s, traced.units, layers);
  fill_time_layers(self_s, traced.wall_s, untraced.wall_s / untraced.sim_s,
                   traced.wall_s / traced.sim_s, layers);
  write_trace(recorder, options);
  emit(layers, report);
  return report;
}

}  // namespace qkdbench
