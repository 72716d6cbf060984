// Workload engine_day: the whole stack on one scripted timeline. An
// engine-backed MeshSimulation (a real QkdLinkSession per link, paper
// defaults) with two disjoint relay routes between sites A and B, driven
// by ScenarioRunner. A KeyManagementService serves a small three-class
// KmsClientFleet sized to about half of healthy end-to-end supply, and a
// KmsIkeBridge feeds a VpnLinkSimulation carrying TrafficBurst packets
// under SAs short enough to rekey several times. The script runs the optics
// attack path (a sub-alarm partial eavesdrop, then a full one that
// abandons a route), a classical loss stretch that forces retransmission,
// and the KMS in its starved, shedding regime.
#include <random>
#include <set>

#include "links.hpp"
#include "service.hpp"
#include "spans.hpp"
#include "src/ipsec/vpn_sim.hpp"
#include "src/kms/ike_bridge.hpp"
#include "src/sim/scenario.hpp"

namespace qkdbench {
namespace {

using qkd::SimTime;
using qkd::kMillisecond;
using qkd::kSecond;
using qkd::network::LinkId;
using qkd::network::NodeId;
using qkd::network::NodeKind;

/// One unit is one scripted day of this many simulated seconds. Every link
/// runs long enough to reach the auth-pad exhaustion of the default config
/// (about Qframe 125), so the day shows that defect too.
constexpr double kHorizonS = 180.0;
/// Wall seconds of one unit on the reference host (see README).
constexpr double kUnitWallS = 45.0;

constexpr NodeId kSiteA = 0;
constexpr NodeId kSiteB = 1;
// Route 1 is A-R1-B over links 0 and 1; route 2 is A-R2-B over 2 and 3.
constexpr LinkId kRoute1Head = 0;
constexpr LinkId kRoute1Tail = 1;
constexpr LinkId kRoute2Tail = 3;

qkd::network::Topology two_routes() {
  qkd::network::Topology topology;
  topology.add_node("site-a", NodeKind::kEndpoint);
  topology.add_node("site-b", NodeKind::kEndpoint);
  const NodeId r1 = topology.add_node("relay-1", NodeKind::kTrustedRelay);
  const NodeId r2 = topology.add_node("relay-2", NodeKind::kTrustedRelay);
  topology.add_link(kSiteA, r1);  // paper-default optics: 10 km, 1 MHz
  topology.add_link(r1, kSiteB);
  topology.add_link(kSiteA, r2);
  topology.add_link(r2, kSiteB);
  return topology;
}

/// The script; each action time carries up to 2 s of seeded jitter.
qkd::sim::Scenario day_script(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<SimTime> jitter(0, 2 * kSecond);
  const auto at = [&](double s) { return qkd::seconds_to_sim(s) + jitter(rng); };
  using namespace qkd::sim;
  Scenario day;
  // Half of healthy supply: ~96 bit/s of payload in three classes.
  day.at(at(5), ClientArrival{kSiteA, kSiteB, 0, 1, 0.25, 128});
  day.at(at(5), ClientArrival{kSiteA, kSiteB, 1, 1, 0.125, 256});
  day.at(at(5), ClientArrival{kSiteA, kSiteB, 2, 1, 0.0625, 512});
  day.at(at(10), TrafficBurst{0, 4.0, 160.0});
  // A sub-alarm tap: QBER rises toward 8.5%, yield falls, nothing alarms.
  day.at(at(30), StartEavesdrop{kRoute1Head, 0.1});
  day.at(at(60), StopEavesdrop{kRoute1Head});
  // A full intercept-resend: the QBER alarm abandons route 2.
  day.at(at(70), StartEavesdrop{kRoute2Tail, 1.0});
  day.at(at(100), StopEavesdrop{kRoute2Tail});
  // Classical loss on route 1: retransmissions and latency stalls.
  day.at(at(110),
         ClassicalImpairment{kRoute1Tail, 5 * kMillisecond, 0.2, 0.0});
  day.at(at(140), ClassicalImpairment{kRoute1Tail, 0, 0.0, 0.0});
  return day;
}

qkd::ipsec::SpdEntry tunnel_policy() {
  qkd::ipsec::SpdEntry entry;
  entry.name = "site-a-to-site-b";
  entry.selector.src_prefix = qkd::ipsec::parse_ipv4("10.1.0.0");
  entry.selector.src_mask = 0xffff0000;
  entry.selector.dst_prefix = qkd::ipsec::parse_ipv4("10.2.0.0");
  entry.selector.dst_mask = 0xffff0000;
  entry.action = qkd::ipsec::PolicyAction::kProtect;
  entry.cipher = qkd::ipsec::CipherAlgo::kAes128;
  entry.qkd_mode = qkd::ipsec::QkdMode::kHybrid;
  entry.qblocks_per_rekey = 1;
  entry.lifetime_seconds = 20.0;  // several KMS-fed rekeys per day
  return entry;
}

/// Packet `seq` of the tunnel's traffic; the payload names its sequence
/// number so delivered packets can be matched to what was sent.
qkd::ipsec::IpPacket traffic_packet(std::uint64_t seq) {
  qkd::ipsec::IpPacket packet;
  packet.src = qkd::ipsec::parse_ipv4("10.1.0.5");
  packet.dst = qkd::ipsec::parse_ipv4("10.2.0.7");
  for (int i = 0; i < 8; ++i)
    packet.payload.push_back(static_cast<std::uint8_t>(seq >> (8 * i)));
  const char text[] = "qkd-protected payload";
  packet.payload.insert(packet.payload.end(), text, text + sizeof text - 1);
  return packet;
}

std::uint64_t packet_seq(const qkd::ipsec::IpPacket& packet) {
  std::uint64_t seq = 0;
  for (int i = 0; i < 8 && i < static_cast<int>(packet.payload.size()); ++i)
    seq |= static_cast<std::uint64_t>(packet.payload[i]) << (8 * i);
  return seq;
}

qkd::network::LinkKeyService::Config engine_config(std::uint64_t seed) {
  qkd::network::LinkKeyService::Config config;  // paper-default QkdLinkConfig
  config.seed = seed;
  config.threads = 1;  // single-threaded, like every workload
  return config;
}

qkd::kms::KmsIkeBridge::Config bridge_config() {
  qkd::kms::KmsIkeBridge::Config config;
  config.refill_bits = qkd::keystore::KeySupply::kQblockBits;
  config.low_water_bits = qkd::keystore::KeySupply::kQblockBits;
  return config;
}

struct DayWorld {
  DayWorld(std::uint64_t seed, SpanRecorder* recorder, double* disclosed_bits,
           std::vector<double>* periods)
      : mesh(two_routes(), seed, engine_config(seed)),
        vpn(qkd::ipsec::VpnLinkSimulation::Params{}, seed),
        runner(day_script(seed)) {
    runner.attach_mesh(mesh);
    runner.attach_vpn(vpn);  // the runner now runs on the VPN's clock
    probe.arm(runner.scheduler(), periods, [this] {
      double qframes = 0.0;
      auto& links = *mesh.key_service();
      for (LinkId id = 0; id < links.link_count(); ++id)
        qframes += static_cast<double>(links.session(id).totals().batches);
      return qframes;
    });
    kms = std::make_unique<qkd::kms::KeyManagementService>(
        mesh, runner.scheduler());
    fleet = std::make_unique<qkd::kms::KmsClientFleet>(*kms, runner.scheduler());
    runner.attach_client_driver(*fleet);
    bridge = std::make_unique<qkd::kms::KmsIkeBridge>(
        *kms, kSiteA, kSiteB, vpn.a().key_supply(), vpn.b().key_supply(),
        bridge_config());
    pack = std::make_unique<AlertPack>(mesh, *kms,
                                       std::vector<Pair>{{kSiteA, kSiteB}});
    pack->schedule_evaluation(runner.scheduler(), recorder);
    if (recorder != nullptr) observe_grant_latency(*kms, grant_latency_s);
    vpn.install_mirrored_policy(tunnel_policy());
    runner.set_traffic_source([this](std::uint64_t seq) {
      sent.push_back(traffic_packet(seq));
      return sent.back();
    });
    auto& service = *mesh.key_service();
    for (LinkId id = 0; id < service.link_count(); ++id) {
      if (recorder != nullptr)
        install_traced_pipeline(service.session(id), *recorder, *disclosed_bits);
      pad_bits_at_start.push_back(
          service.session(id).alice_auth().pad_bits_available());
    }
  }

  // Declared first: the KMS, fleet and runner callbacks below write them.
  std::vector<double> grant_latency_s;
  std::vector<qkd::ipsec::IpPacket> sent;
  std::vector<std::size_t> pad_bits_at_start;
  qkd::network::MeshSimulation mesh;
  qkd::ipsec::VpnLinkSimulation vpn;
  qkd::sim::ScenarioRunner runner;
  PeriodProbe probe;
  std::unique_ptr<qkd::kms::KeyManagementService> kms;
  std::unique_ptr<qkd::kms::KmsClientFleet> fleet;
  std::unique_ptr<qkd::kms::KmsIkeBridge> bridge;
  std::unique_ptr<AlertPack> pack;
};

/// Sums over the units of one kind (traced or untraced).
struct Totals {
  double units = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double sim_s = 0.0;
  double link_s = 0.0;  // simulated seconds times links
  double grants = 0.0;  // fleet grants plus bridge refills
  QkdSums qkd;
  ServiceSums service;
  double packets_sent = 0.0;
  double packets_delivered = 0.0;
  double phase2_completed = 0.0;
  double supply_exhausted = 0.0;
  double refills_requested = 0.0;
  double refills_granted = 0.0;
};

}  // namespace

Report run_engine_day(const Options& options) {
  Report report;
  std::vector<double> setup_s;
  std::vector<double> period_s;  // untraced host time per Qframe period
  Totals untraced;
  Totals traced;
  SpanRecorder recorder;

  warm_setups<DayWorld>(setup_s, unit_seed(options.seed, 1u << 20), nullptr,
                        nullptr, nullptr);
  const std::size_t n_units =
      unit_count(options.seconds, kUnitWallS, options.trace ? 2 : 1);
  for (std::size_t u = 0; u < n_units; ++u) {
    const bool tracing = options.trace && u % 2 == 1;
    Totals& into = tracing ? traced : untraced;
    auto world = timed_build<DayWorld>(
        setup_s, unit_seed(options.seed, u), tracing ? &recorder : nullptr,
        &into.qkd.disclosed_bits, tracing ? nullptr : &period_s);
    DayWorld& w = *world;
    if (tracing) {
      const double base_s = traced.sim_s;
      recorder.set_sim_time_source([&w, base_s] {
        return qkd::seconds_to_sim(base_s) + w.runner.scheduler().now();
      });
    }

    const double wall0 = wall_now();
    const double cpu0 = cpu_now();
    w.bridge->prime();
    w.vpn.start();
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

    // ---- Correctness ------------------------------------------------------
    check_kms(*w.kms, *w.fleet);
    const auto& pool_a = w.vpn.a().key_pool().stats();
    const auto& pool_b = w.vpn.b().key_pool().stats();
    check(pool_a.bits_deposited == pool_b.bits_deposited,
          "the bridge's gateway deposits diverged");
    check(w.vpn.a().key_supply().available_bits() ==
              w.vpn.b().key_supply().available_bits(),
          "mirrored gateway pools hold different amounts of key");
    std::set<std::uint64_t> seen;
    const auto delivered = w.vpn.b().drain_delivered();
    for (const auto& packet : delivered) {
      const std::uint64_t seq = packet_seq(packet);
      check(seq < w.sent.size() && packet == w.sent[seq],
            "a delivered VPN packet differs from the one sent");
      check(seen.insert(seq).second, "a VPN packet was delivered twice");
    }
    QkdSums unit;
    auto& links = *w.mesh.key_service();
    for (LinkId id = 0; id < links.link_count(); ++id) {
      unit.add_session(links.session(id), w.pad_bits_at_start[id]);
      into.qkd.add_session(links.session(id), w.pad_bits_at_start[id]);
    }
    check(kms_granted_bits(*w.kms) <= unit.distilled_bits,
          "the KMS granted more bits than the links distilled");

    // ---- Accounting -------------------------------------------------------
    const auto& fleet = w.fleet->stats();
    const auto& bridge = w.bridge->stats();
    report.attempted += fleet.requests_issued + bridge.refills_requested +
                        w.sent.size();
    report.failed += (fleet.requests_issued - fleet.granted) +
                     (bridge.refills_requested - bridge.refills_granted) +
                     (w.sent.size() - delivered.size());
    into.grants += static_cast<double>(fleet.granted + bridge.refills_granted);
    into.packets_sent += static_cast<double>(w.sent.size());
    into.packets_delivered += static_cast<double>(delivered.size());
    into.phase2_completed += static_cast<double>(
        w.vpn.a().ike().stats().phase2_completed +
        w.vpn.b().ike().stats().phase2_completed);
    into.supply_exhausted += static_cast<double>(
        w.vpn.a().stats().supply_exhausted + w.vpn.b().stats().supply_exhausted);
    into.refills_requested += static_cast<double>(bridge.refills_requested);
    into.refills_granted += static_cast<double>(bridge.refills_granted);
    double pad_bits = 0.0;
    for (LinkId id = 0; id < links.link_count(); ++id) {
      const auto& supply = links.session(id).supply_pool().stats();
      pad_bits += static_cast<double>(supply.bits_withdrawn);
      into.service.keystore_deposited += static_cast<double>(supply.bits_deposited);
      into.service.keystore_withdrawn += static_cast<double>(supply.bits_withdrawn);
      into.service.keystore_failed += static_cast<double>(supply.failed_withdrawals);
    }
    into.service.add(w.mesh, *w.kms, *w.fleet, pad_bits,
                     static_cast<double>(events));
    into.service.grant_latency_s.insert(into.service.grant_latency_s.end(),
                                        w.grant_latency_s.begin(),
                                        w.grant_latency_s.end());
  }
  warm_setups<DayWorld>(setup_s, unit_seed(options.seed, 1u << 20), nullptr,
                        nullptr, nullptr);

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = quantile(setup_s, kPaceQuantile);
    const double wall_s = at_pace(untraced.wall_s, period_s);
    e2e.wall_s_per_sim_hour = 3600.0 * ratio(wall_s, untraced.sim_s);
    e2e.distilled_bits_per_cpu_s = ratio(untraced.qkd.distilled_bits,
                                         at_pace(untraced.cpu_s, period_s));
    e2e.qframe_ms_p10 = 1e3 * quantile(period_s, kPaceQuantile);
    e2e.key_rate_bps = ratio(untraced.qkd.distilled_bits, untraced.link_s);
    e2e.grants_per_wall_s = ratio(untraced.grants, wall_s);
    e2e.peak_rss_mb = peak_rss_mb();
    emit(e2e, report);
    return report;
  }

  const auto self_s = recorder.self_seconds();
  Layers layers = layers_template();
  layers.qframe_ms_p90 = 1e3 * quantile(period_s, 0.90);
  fill_qkd_layers(traced.qkd, self_s, traced.qkd.qframes, traced.units,
                  layers);
  fill_service_layers(traced.service, traced.wall_s, traced.units, layers);
  fill_time_layers(self_s, traced.wall_s, untraced.wall_s / untraced.sim_s,
                   traced.wall_s / traced.sim_s, layers);
  layers.ipsec_packets_delivered_frac =
      ratio(traced.packets_delivered, traced.packets_sent);
  layers.ipsec_phase2_completed = traced.phase2_completed / traced.units;
  layers.ipsec_supply_exhausted = traced.supply_exhausted / traced.units;
  layers.ipsec_bridge_refills_granted_frac =
      ratio(traced.refills_granted, traced.refills_requested);
  write_trace(recorder, options);
  emit(layers, report);
  return report;
}

}  // namespace qkdbench
