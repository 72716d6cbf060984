#include "service.hpp"

#include <string>

#include "src/obs/health/rules.hpp"
#include "src/qkd/engine.hpp"

namespace qkdbench {

namespace rules = qkd::obs::health::rules;
using qkd::kms::QosClass;

double paper_qframe_period_s() {
  const qkd::proto::QkdLinkConfig config;
  return static_cast<double>(config.frame_slots) / config.link.pulse_rate_hz;
}

AlertPack::AlertPack(qkd::network::MeshSimulation& mesh,
                     qkd::kms::KeyManagementService& kms,
                     const std::vector<Pair>& pairs)
    : registry(kms.shard_count()), alerts(registry) {
  mesh.bind_metrics(registry, "mesh");
  kms.bind_metrics(registry, "kms");
  for (const auto& link : mesh.topology().links()) {
    const std::string id = std::to_string(link.id);
    alerts.add_rule(rules::qber_spike("mesh_link" + id + "_qber_percent", id));
  }
  for (const auto& [src, dst] : pairs) {
    const std::string pair = std::to_string(src) + "_" + std::to_string(dst);
    alerts.add_rule(
        rules::pool_drought("kms_pair" + pair + "_pool_bits", pair));
  }
  for (std::size_t q = 0; q < qkd::kms::kQosClassCount; ++q) {
    const std::string cls = qkd::kms::qos_class_name(static_cast<QosClass>(q));
    alerts.add_rule(rules::grant_slo_burn("kms_" + cls + "_granted_within_slo",
                                          "kms_" + cls + "_granted", cls));
    alerts.add_rule(rules::shed_surge("kms_" + cls + "_shed", cls));
  }
  alerts.add_rule(rules::distillation_stalled("kms_transports"));
  alerts.bind_alerts(registry);
}

void AlertPack::schedule_evaluation(qkd::sim::EventScheduler& scheduler,
                                    SpanRecorder* recorder) {
  scheduler.every(qkd::kSecond, qkd::kSecond,
                  [this, recorder](qkd::SimTime now) {
                    if (recorder == nullptr) {
                      alerts.evaluate(now);
                      return;
                    }
                    SpanRecorder::Scope span(*recorder, kAlertEvaluateSpan);
                    alerts.evaluate(now);
                  });
}

void PeriodProbe::arm(qkd::sim::EventScheduler& scheduler,
                      std::vector<double>* out,
                      std::function<double()> qframes) {
  out_ = out;
  qframes_ = std::move(qframes);
  const qkd::SimTime period = qkd::seconds_to_sim(paper_qframe_period_s());
  scheduler.every(period, period, [this](qkd::SimTime) {
    const double now = wall_now();
    const double ran = qframes_ ? qframes_() : 0.0;
    if (out_ != nullptr) {
      if (!qframes_)
        out_->push_back(now - last_);
      else if (ran > last_qframes_)
        out_->push_back((now - last_) / (ran - last_qframes_));
    }
    last_ = now;
    last_qframes_ = ran;
  });
}

void PeriodProbe::start() {
  last_ = wall_now();
  last_qframes_ = qframes_ ? qframes_() : 0.0;
}

void observe_grant_latency(qkd::kms::KeyManagementService& kms,
                           std::vector<double>& latencies_s) {
  kms.set_grant_observer([&latencies_s](const qkd::kms::Grant& grant) {
    if (grant.status == qkd::kms::GrantStatus::kGranted)
      latencies_s.push_back(
          qkd::sim_to_seconds(grant.granted_at - grant.requested_at));
  });
}

void check_kms(const qkd::kms::KeyManagementService& kms,
               const qkd::kms::KmsClientFleet& fleet) {
  check(fleet.stats().claims_mismatched == 0,
        std::to_string(fleet.stats().claims_mismatched) +
            " peer claims did not match their grants");
  for (const auto& pair : kms.inspect_pairs()) {
    const auto& a = pair.src_stats;
    const auto& b = pair.dst_stats;
    check(pair.src_available_bits == pair.dst_available_bits &&
              pair.src_next_key_id == pair.dst_next_key_id &&
              a.bits_deposited == b.bits_deposited &&
              a.bits_withdrawn == b.bits_withdrawn &&
              a.qblocks_withdrawn == b.qblocks_withdrawn &&
              a.failed_withdrawals == b.failed_withdrawals &&
              a.bits_reserved == b.bits_reserved &&
              a.bits_released == b.bits_released,
          "KMS pair " + std::to_string(pair.src) + "->" +
              std::to_string(pair.dst) + ": mirrored stores diverged");
  }
}

double kms_granted_bits(const qkd::kms::KeyManagementService& kms) {
  double bits = 0.0;
  for (std::size_t q = 0; q < qkd::kms::kQosClassCount; ++q)
    bits += static_cast<double>(
        kms.class_stats(static_cast<QosClass>(q)).bits_granted);
  return bits;
}

double kms_grants(const qkd::kms::KeyManagementService& kms) {
  double grants = 0.0;
  for (std::size_t q = 0; q < qkd::kms::kQosClassCount; ++q)
    grants += static_cast<double>(
        kms.class_stats(static_cast<QosClass>(q)).granted);
  return grants;
}

void ServiceSums::add(const qkd::network::MeshSimulation& mesh,
                      const qkd::kms::KeyManagementService& kms,
                      const qkd::kms::KmsClientFleet& fleet,
                      double pad_bits, double events) {
  for (const auto& pair : kms.inspect_pairs())
    for (const auto* s : {&pair.src_stats, &pair.dst_stats}) {
      keystore_deposited += static_cast<double>(s->bits_deposited);
      keystore_withdrawn += static_cast<double>(s->bits_withdrawn);
      keystore_failed += static_cast<double>(s->failed_withdrawals);
    }
  const auto& m = mesh.stats();
  transports_attempted += static_cast<double>(m.transports_attempted);
  transports_succeeded += static_cast<double>(m.transports_succeeded);
  transports_starved += static_cast<double>(m.transports_starved);
  reroutes += static_cast<double>(m.reroutes);
  pad_bits_consumed += pad_bits;
  granted_bits += kms_granted_bits(kms);
  grants += kms_grants(kms);
  const auto& k = kms.stats();
  service_rounds += static_cast<double>(k.service_rounds);
  frames += static_cast<double>(k.transports);
  starved_rounds += static_cast<double>(k.starved_rounds);
  replenish_wakeups += static_cast<double>(k.replenish_wakeups);
  for (std::size_t q = 0; q < qkd::kms::kQosClassCount; ++q) {
    const auto& c = kms.class_stats(static_cast<QosClass>(q));
    shed += static_cast<double>(c.shed);
    rejected += static_cast<double>(c.rejected_queue_full);
  }
  claims_mismatched += static_cast<double>(fleet.stats().claims_mismatched);
  sim_events += events;
}

void fill_service_layers(const ServiceSums& s, double traced_wall_s,
                         double units, Layers& l) {
  const auto per_unit = [units](double count) { return ratio(count, units); };
  l.keystore_link_bits_deposited = per_unit(s.keystore_deposited);
  l.keystore_link_bits_withdrawn = per_unit(s.keystore_withdrawn);
  l.keystore_failed_withdrawals = per_unit(s.keystore_failed);
  l.network_transports_attempted = per_unit(s.transports_attempted);
  l.network_transport_success_frac =
      ratio(s.transports_succeeded, s.transports_attempted);
  l.network_transports_starved = per_unit(s.transports_starved);
  l.network_reroutes = per_unit(s.reroutes);
  l.network_pad_bits_per_granted_bit = ratio(s.pad_bits_consumed, s.granted_bits);
  l.kms_service_rounds = per_unit(s.service_rounds);
  l.kms_frames = per_unit(s.frames);
  l.kms_grants_per_frame = ratio(s.grants, s.frames);
  l.kms_starved_rounds = per_unit(s.starved_rounds);
  l.kms_shed = per_unit(s.shed);
  l.kms_rejected = per_unit(s.rejected);
  l.kms_replenish_wakeups = per_unit(s.replenish_wakeups);
  l.kms_claims_mismatched = per_unit(s.claims_mismatched);
  l.grant_latency_ms_p50 = 1e3 * quantile(s.grant_latency_s, 0.50);
  l.grant_latency_ms_p99 = 1e3 * quantile(s.grant_latency_s, 0.99);
  l.sim_events = per_unit(s.sim_events);
  l.sim_events_per_wall_s = ratio(s.sim_events, traced_wall_s);
}

void fill_time_layers(const std::map<std::string, double>& self_s,
                      double traced_wall_s, double untraced_s_per_sim_s,
                      double traced_s_per_sim_s, Layers& l) {
  double spanned_s = 0.0;
  double timed_calls_s = 0.0;  // stage and evaluate spans
  for (const auto& [name, seconds] : self_s) {
    spanned_s += seconds;
    if (name != kScenarioRunSpan) timed_calls_s += seconds;
  }
  const auto evaluate = self_s.find(kAlertEvaluateSpan);
  l.obs_evaluate_busy_s = evaluate == self_s.end() ? 0.0 : evaluate->second;
  l.obs_evaluate_share = ratio(l.obs_evaluate_busy_s, traced_wall_s);
  l.rest_busy_s = traced_wall_s - timed_calls_s;
  l.trace_unattributed_frac = ratio(traced_wall_s - spanned_s, traced_wall_s);
  l.trace_overhead_frac = ratio(traced_s_per_sim_s, untraced_s_per_sim_s) - 1.0;
}

}  // namespace qkdbench
