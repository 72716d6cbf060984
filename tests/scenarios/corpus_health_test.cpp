// Scenario corpus — the health engine watching scripted days. The
// eavesdrop story (the paper's QBER-alarm-as-detector premise) must show
// up as a deterministic pending -> firing -> resolved arc through
// AlertExpect, the drought rule must track the purged pool, and a clean
// day must stay silent: an alert that fires without an incident is as
// much a bug as one that misses it. The same holds for one link's
// authentication pads: a tampered classical channel that burns a tag per
// Qframe must page before the pads run out, and a healthy link never.
#include <gtest/gtest.h>

#include <cstdlib>
#include <regex>

#include "src/kms/client_fleet.hpp"
#include "src/kms/kms.hpp"
#include "src/obs/health/expect.hpp"
#include "src/obs/health/report.hpp"
#include "src/obs/health/rules.hpp"
#include "src/obs/metrics.hpp"
#include "src/qkd/engine.hpp"
#include "src/sim/expect.hpp"
#include "src/sim/scenario.hpp"

namespace qkd::kms {
namespace {

using network::MeshSimulation;
using network::Topology;
using namespace qkd::sim;
namespace health = qkd::obs::health;

/// relay_ring(6) with hot optics: endpoints are nodes 6 (alice) and
/// 7 (bob), the tail link is link 6 — same ring the workload corpus runs.
MeshSimulation hot_ring(std::uint64_t seed) {
  Topology topo = Topology::relay_ring(6);
  for (const network::Link& link : topo.links())
    topo.link(link.id).optics.pulse_rate_hz = 1e8;
  return MeshSimulation(std::move(topo), seed);
}

/// The workload harness plus the health layer: one registry fed by mesh
/// and KMS, the built-in rule pack, engine evaluations every sim second
/// on the scenario timeline.
struct HealthHarness {
  MeshSimulation mesh;
  ScenarioRunner runner;
  KeyManagementService kms;
  KmsClientFleet fleet;
  qkd::obs::MetricsRegistry registry;
  health::AlertEngine alerts;

  HealthHarness(std::uint64_t seed, Scenario scenario,
                KeyManagementService::Config kms_config)
      : mesh(hot_ring(seed)),
        runner(std::move(scenario)),
        kms(mesh, runner.scheduler(), kms_config),
        fleet(kms, runner.scheduler()),
        alerts(registry) {
    runner.attach_mesh(mesh);
    runner.attach_client_driver(fleet);
    runner.recorder().attach_service(kms);
    mesh.bind_metrics(registry, "mesh");
    kms.bind_metrics(registry, "kms");
    // The tail link is Eve's target; link 0 is across the ring and the
    // reroute keeps it clean — its rule is the negative control.
    alerts.add_rule(health::rules::qber_spike("mesh_link6_qber_percent", "6"));
    alerts.add_rule(health::rules::qber_spike("mesh_link0_qber_percent", "0"));
    alerts.add_rule(
        health::rules::pool_drought("mesh_link6_pool_bits", "6->7"));
    alerts.add_rule(health::rules::shed_surge("kms_bulk_shed", "bulk",
                                              /*per_second=*/0.5));
    runner.attach_alerts(alerts, kSecond);
  }
};

KeyManagementService::Config drought_config() {
  KeyManagementService::Config config;
  config.shed_after_starved_rounds = 2;
  config.retry_backoff = 500 * kMillisecond;
  return config;
}

Scenario loaded_day() {
  Scenario day;
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/0, /*count=*/4,
                                /*request_rate_hz=*/2.0, /*bits=*/128});
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/1, /*count=*/6,
                                /*request_rate_hz=*/2.0, /*bits=*/128});
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/2, /*count=*/8,
                                /*request_rate_hz=*/2.0, /*bits=*/128});
  return day;
}

TEST(ScenarioHealth, EavesdropRaisesTheAlarmsThenResolvesThem) {
  Scenario day = loaded_day();
  // Eve camps on the tail link for twenty seconds mid-run.
  day.at(15 * kSecond, StartEavesdrop{6, 1.0});
  day.at(35 * kSecond, StopEavesdrop{6});

  HealthHarness h(47, std::move(day), drought_config());
  h.runner.run(60 * kSecond);

  // The QBER rule is the eavesdropping detector: intercept-resend drives
  // the link gauge to ~25% within one evaluation of Eve's arrival, the 2s
  // debounce holds, and her departure resolves it.
  health::AlertExpect expect(h.alerts);
  expect.expect_alert("qber_spike:6")
      .pending_by(17 * kSecond)
      .firing_between(16 * kSecond, 22 * kSecond)
      .resolved_by(40 * kSecond)
      .full_lifecycle()
      .state_now(health::AlertState::kResolved);
  // The alarm purges the tail pool; the drought rule follows it down and
  // recovers once distillation restarts.
  expect.expect_alert("pool_drought:6->7")
      .firing_between(16 * kSecond, 30 * kSecond)
      .resolved_by(55 * kSecond)
      .state_now(health::AlertState::kResolved);
  // Sustained starvation sheds the bulk class: the surge rule sees the
  // shed counter climb.
  expect.expect_alert("shed_surge:bulk").fired();
  // The mesh reroutes around Eve; the far side of the ring never alarms.
  expect.expect_alert("qber_spike:0").never_fires();
  QKD_EXPECT_ALERTS(expect);

  // The transitions also land on the shared timeline as annotations (the
  // attach_alerts bridge), next to the scenario's own marks.
  TimelineExpect timeline(h.runner);
  timeline.noted("alert qber_spike:6: inactive -> pending")
      .noted("alert qber_spike:6: firing -> resolved")
      .noted("alert pool_drought:6->7");
  QKD_EXPECT_TIMELINE(timeline);

  // And the assembled incidents carry the same story for the report path.
  bool saw_qber_incident = false;
  for (const health::Incident& incident : h.alerts.incidents()) {
    if (incident.rule != "qber_spike:6") continue;
    saw_qber_incident = true;
    EXPECT_TRUE(incident.resolved());
    EXPECT_GT(incident.peak_value, 11.0)
        << "peak QBER above the protocol abort threshold";
  }
  EXPECT_TRUE(saw_qber_incident);
}

TEST(ScenarioHealth, CleanDayRaisesNoAlarms) {
  HealthHarness h(48, loaded_day(), KeyManagementService::Config());
  h.runner.run(30 * kSecond);

  health::AlertExpect expect(h.alerts);
  expect.expect_alert("qber_spike:6").never_fires();
  expect.expect_alert("qber_spike:0").never_fires();
  expect.expect_alert("shed_surge:bulk").never_fires();
  QKD_EXPECT_ALERTS(expect);
  EXPECT_EQ(h.alerts.state("pool_drought:6->7"),
            health::AlertState::kInactive)
      << "healthy supply never lets the pool sit under the floor";
  EXPECT_TRUE(h.alerts.incidents().empty());

  // Determinism: the engine ticked once per second plus the horizon tick.
  EXPECT_EQ(h.alerts.stats().evaluations, 30u);
  EXPECT_EQ(h.alerts.last_evaluated(), 30 * kSecond);
}

/// One default QKD link with its metrics, the pad-drought rule, and a
/// second rule that fires on the first auth-exhausted abort, evaluated
/// after every Qframe at the link's own clock.
struct PadWatch {
  qkd::proto::QkdLinkSession session;
  qkd::obs::MetricsRegistry registry;
  health::AlertEngine alerts;
  SimTime now = 0;

  explicit PadWatch(std::uint64_t seed)
      : session(qkd::proto::QkdLinkConfig{}, seed), alerts(registry) {
    session.bind_metrics(registry, "link0");
    alerts.add_rule(health::rules::auth_pad_drought("link0_auth_pad_bits", "0"));
    health::AlertRule exhausted;
    exhausted.name = "auth_exhausted:0";
    exhausted.summary = "batches aborted for lack of pad on link 0";
    exhausted.condition =
        health::Threshold{"link0_aborted{reason=\"auth-exhausted\"}",
                          health::Comparison::kGreater, 0.0};
    alerts.add_rule(exhausted);
  }

  qkd::proto::BatchResult qframe() {
    qkd::proto::BatchResult batch = session.run_batch();
    now += seconds_to_sim(batch.duration_s);
    alerts.evaluate(now);
    return batch;
  }
};

/// firing_s of `rule`'s first incident in an incident report; -1 if none.
double first_firing_s(const std::string& report, const std::string& rule) {
  const std::regex pattern("\\{\"rule\":\"" + rule +
                           "\"[^}]*\\},\"pending_s\":[^,]*,\"firing_s\":([0-9.e+-]+)");
  std::smatch match;
  return std::regex_search(report, match, pattern) ? std::stod(match[1]) : -1.0;
}

TEST(ScenarioHealth, AuthPadDroughtFiresBeforeThePadsRunOut) {
  // Eve flips one bit of Alice's transcript tag in every Qframe: Bob
  // refuses it, so each batch fails at its last step after Alice spent
  // her tag's pad. The incident report alone must show the drought page
  // before the first batch the pads could not cover.
  PadWatch watch(3);
  watch.session.channel().set_impairment(
      [](const Bytes& message, bool to_b) -> std::optional<Bytes> {
        const auto frame = wire::decode_frame(message);
        if (!to_b || !frame.ok() ||
            frame.value.type != wire::PacketType::kTranscriptTag)
          return message;
        Bytes payload = frame.value.payload;
        payload.back() ^= 0x01;
        return wire::encode_frame(frame.value.type, payload);
      });
  int qframes = 0;
  while (watch.qframe().reason != qkd::proto::AbortReason::kAuthExhausted) {
    ASSERT_LT(++qframes, 200) << "the pads never ran out";
  }
  EXPECT_EQ(watch.session.totals().accepted_batches, 0u);

  const std::string report = health::incident_report_json(watch.alerts);
  const double drought = first_firing_s(report, "auth_pad_drought:0");
  const double exhausted = first_firing_s(report, "auth_exhausted:0");
  ASSERT_GT(drought, 0.0) << report;
  ASSERT_GT(exhausted, 0.0) << report;
  EXPECT_LT(drought, exhausted);
}

TEST(ScenarioHealth, AuthPadDroughtStaysSilentOnAHealthyLink) {
  // Past Qframe 125 (where a tag per message would have spent the 8192-bit
  // runway): no batch runs out of pad, the level holds (it dips only when
  // an accepted batch distilled less than its two tags cost), and the
  // rule never fires. QKD_PAD_QFRAMES=2000 runs the long form.
  const char* env = std::getenv("QKD_PAD_QFRAMES");
  const int qframes = env != nullptr ? std::atoi(env) : 130;
  PadWatch watch(16);
  const std::size_t start = watch.session.auth_pad_bits();
  std::size_t short_batches = 0;
  for (int i = 0; i < qframes; ++i) {
    const qkd::proto::BatchResult batch = watch.qframe();
    ASSERT_NE(batch.reason, qkd::proto::AbortReason::kAuthExhausted) << i;
    if (batch.accepted && batch.distilled_bits == 0) ++short_batches;
  }
  EXPECT_GE(watch.session.auth_pad_bits() + 64 * short_batches, start);
  EXPECT_GT(watch.session.totals().accepted_batches,
            static_cast<std::size_t>(qframes) * 95 / 100);
  EXPECT_TRUE(watch.alerts.incidents().empty())
      << health::incident_report_json(watch.alerts);
}

TEST(ScenarioHealth, AttachAlertsRejectsANonPositiveInterval) {
  Scenario day;
  ScenarioRunner runner(std::move(day));
  qkd::obs::MetricsRegistry registry;
  health::AlertEngine alerts(registry);
  EXPECT_THROW(runner.attach_alerts(alerts, 0), std::invalid_argument);
}

}  // namespace
}  // namespace qkd::kms
