// E19: the multi-tenant key management service.
//
// The ROADMAP's "millions of users" step: one KeyManagementService serving
// a thousand-client fleet over the relay mesh, entirely on scheduled
// deadlines. The headline table runs >= 1M get_key requests from >= 1k
// clients (three QoS classes, weighted fair share, same-destination
// batching) through one scheduled run and reports per-class grant counts,
// p99 grant latency, grants per wall second and the batching factor —
// the computational-load/rate coupling Gilbert & Hamrick analyze, measured
// on the living stack.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/kms/client_fleet.hpp"
#include "src/kms/kms.hpp"
#include "src/sim/scenario.hpp"

namespace {

using namespace qkd;
using namespace qkd::kms;
using namespace qkd::sim;
using network::MeshSimulation;
using network::NodeKind;
using network::Topology;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One relay between two endpoints, with deliberately hot optics (short
/// fiber, multi-GHz trigger) so the link supplies — not the service — are
/// out of the way: E19 measures scheduling and delivery, not photons.
Topology hot_star() {
  Topology topo;
  topo.add_node("relay", NodeKind::kTrustedRelay);
  topo.add_node("a", NodeKind::kEndpoint);
  topo.add_node("b", NodeKind::kEndpoint);
  qkd::optics::LinkParams optics;
  optics.fiber_km = 1.0;
  optics.pulse_rate_hz = 5e9;
  topo.add_link(0, 1, optics);
  topo.add_link(0, 2, optics);
  return topo;
}

struct ClassLoad {
  QosClass qos;
  std::size_t clients;
  double rate_hz;
  std::size_t bits;
};

struct RunResult {
  std::uint64_t requests = 0;
  std::uint64_t clients = 0;
  KeyManagementService::Stats service;
  std::array<KeyManagementService::ClassStats, kQosClassCount> classes;
  std::array<double, kQosClassCount> p99_s{};
  std::array<double, kQosClassCount> mean_s{};
  double wall_s = 0.0;
  double sim_s = 0.0;
};

/// One scheduled run: the whole fleet arrives at t=1s and requests until
/// the horizon; the scenario engine owns the timeline end to end.
RunResult run_fleet(const std::vector<ClassLoad>& loads, double sim_seconds) {
  MeshSimulation mesh(hot_star(), 19);

  Scenario script;
  for (const ClassLoad& load : loads) {
    script.at(kSecond,
              ClientArrival{1, 2, static_cast<unsigned>(load.qos),
                            load.clients, load.rate_hz, load.bits});
  }
  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);

  KeyManagementService kms(mesh, runner.scheduler());
  KmsClientFleet fleet(kms, runner.scheduler());
  runner.attach_client_driver(fleet);

  const auto start = std::chrono::steady_clock::now();
  runner.run(seconds_to_sim(sim_seconds));
  RunResult result;
  result.wall_s = seconds_since(start);
  result.sim_s = runner.clock().seconds();
  result.requests = fleet.stats().requests_issued;
  result.clients = fleet.active_clients();
  result.service = kms.stats();
  for (std::size_t qos = 0; qos < kQosClassCount; ++qos) {
    result.classes[qos] = kms.class_stats(static_cast<QosClass>(qos));
    result.p99_s[qos] = kms.p99_grant_latency_s(static_cast<QosClass>(qos));
    result.mean_s[qos] = kms.mean_grant_latency_s(static_cast<QosClass>(qos));
  }
  return result;
}

const std::vector<ClassLoad>& headline_loads() {
  // 1000 clients, 10 req/s each, ~101 s: >= 1M requests in one run.
  static const std::vector<ClassLoad> loads = {
      {QosClass::kRealtime, 200, 10.0, 64},
      {QosClass::kInteractive, 300, 10.0, 96},
      {QosClass::kBulk, 500, 10.0, 128},
  };
  return loads;
}

void print_tables() {
  qkd::bench::heading("E19", "multi-tenant key management service");

  const RunResult run = run_fleet(headline_loads(), 102.0);
  std::uint64_t granted = 0;
  for (const auto& cls : run.classes) granted += cls.granted;

  qkd::bench::row("one scheduled run: %llu clients, %llu requests, %.0f "
                  "simulated seconds",
                  static_cast<unsigned long long>(run.clients),
                  static_cast<unsigned long long>(run.requests), run.sim_s);
  qkd::bench::row("");
  qkd::bench::row("%-12s %8s %10s %10s %10s %6s %9s %9s", "class", "clients",
                  "requests", "granted", "rejected", "shed", "p99 ms",
                  "mean ms");
  for (std::size_t qos = 0; qos < kQosClassCount; ++qos) {
    const auto& cls = run.classes[qos];
    qkd::bench::row("%-12s %8zu %10llu %10llu %10llu %6llu %9.2f %9.2f",
                    qos_class_name(static_cast<QosClass>(qos)),
                    headline_loads()[qos].clients,
                    static_cast<unsigned long long>(cls.requests),
                    static_cast<unsigned long long>(cls.granted),
                    static_cast<unsigned long long>(cls.rejected_queue_full),
                    static_cast<unsigned long long>(cls.shed),
                    1e3 * run.p99_s[qos], 1e3 * run.mean_s[qos]);
  }
  qkd::bench::row("");
  qkd::bench::row("  grants:          %llu  (%.0f grants/s wall)",
                  static_cast<unsigned long long>(granted),
                  static_cast<double>(granted) / run.wall_s);
  qkd::bench::row("  relay frames:    %llu  (%.1f grants/frame batching)",
                  static_cast<unsigned long long>(run.service.transports),
                  static_cast<double>(granted) /
                      static_cast<double>(run.service.transports));
  qkd::bench::row("  service rounds:  %llu  (starved %llu, sheds %llu)",
                  static_cast<unsigned long long>(run.service.service_rounds),
                  static_cast<unsigned long long>(run.service.starved_rounds),
                  static_cast<unsigned long long>(run.service.shed_events));
  qkd::bench::row("  wall: %.2f s, sim-s/wall-s: %.0f", run.wall_s,
                  run.sim_s / run.wall_s);
}

void bm_kms_fleet_run(benchmark::State& state) {
  // A scaled-down fleet day per iteration: `range(0)` clients per class,
  // 10 simulated seconds.
  const auto per_class = static_cast<std::size_t>(state.range(0));
  const std::vector<ClassLoad> loads = {
      {QosClass::kRealtime, per_class, 10.0, 64},
      {QosClass::kInteractive, per_class, 10.0, 96},
      {QosClass::kBulk, per_class, 10.0, 128},
  };
  std::uint64_t requests = 0;
  for (auto _ : state) {
    const RunResult run = run_fleet(loads, 10.0);
    requests += run.requests;
    benchmark::DoNotOptimize(run.requests);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(requests));
}
BENCHMARK(bm_kms_fleet_run)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void bm_kms_admission_rejection(benchmark::State& state) {
  // The backpressure fast path: get_key on a full queue must be cheap —
  // it is what protects the service when demand outruns supply.
  MeshSimulation mesh(hot_star(), 7);
  SimClock clock;
  EventScheduler scheduler(clock);
  KeyManagementService::Config config;
  config.max_queue_per_class = 8;
  KeyManagementService kms(mesh, scheduler, config);
  const ClientId client =
      kms.register_client({"bursty", 1, 2, QosClass::kBulk});
  for (std::size_t i = 0; i < config.max_queue_per_class; ++i)
    kms.get_key(client, 64, [](const Grant&) {});
  for (auto _ : state) {
    kms.get_key(client, 64, [](const Grant&) {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_kms_admission_rejection);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
