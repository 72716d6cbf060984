#include "src/kms/client_fleet.hpp"

#include <algorithm>
#include <string>

namespace qkd::kms {

KmsClientFleet::KmsClientFleet(KeyManagementService& kms,
                               sim::EventScheduler& scheduler)
    : kms_(kms), scheduler_(scheduler) {}

KmsClientFleet::~KmsClientFleet() {
  // Stop the tickers, then deregister every live member so its queued
  // requests drain (as kDeparted) while the fleet — which their callbacks
  // capture — is still alive.
  for (Member& member : members_) {
    if (member.ticker.valid()) scheduler_.cancel(member.ticker);
    if (member.active) kms_.deregister_client(member.id);
  }
}

void KmsClientFleet::issue_request(Member& member, std::size_t bits) {
  ++stats_.requests_issued;
  const std::size_t index = static_cast<std::size_t>(&member - members_.data());
  kms_.get_key(member.id, bits, [this, index](const Grant& grant) {
    switch (grant.status) {
      case GrantStatus::kGranted: {
        ++stats_.granted;
        Member& m = members_[index];
        if (!m.active) return;  // departed while the request was queued
        // The peer application fetches its copy right away: every grant
        // round-trips the ETSI get_key / get_key_with_id agreement.
        const auto peer = kms_.get_key_with_id(m.id, grant.key_id);
        if (peer.has_value() && peer->bits == grant.bits)
          ++stats_.claims_matched;
        else
          ++stats_.claims_mismatched;
        return;
      }
      case GrantStatus::kRejectedQueueFull: ++stats_.rejected; return;
      case GrantStatus::kShed: ++stats_.shed; return;
      case GrantStatus::kDeparted: ++stats_.departed; return;
    }
  });
}

void KmsClientFleet::client_arrival(qkd::SimTime now,
                                    const sim::ClientArrival& arrival) {
  if (arrival.count == 0 || arrival.request_rate_hz <= 0.0 ||
      arrival.bits == 0)
    throw std::invalid_argument("KmsClientFleet: degenerate ClientArrival");
  const qkd::SimTime period =
      std::max<qkd::SimTime>(1, seconds_to_sim(1.0 / arrival.request_rate_hz));
  for (std::size_t i = 0; i < arrival.count; ++i) {
    ClientConfig config;
    config.name = "fleet-" + std::to_string(arrival.src) + "-" +
                  std::to_string(arrival.dst) + "-q" +
                  std::to_string(arrival.qos) + "-" +
                  std::to_string(arrivals_++);
    config.src = arrival.src;
    config.dst = arrival.dst;
    config.qos = static_cast<QosClass>(arrival.qos);

    Member member;
    member.id = kms_.register_client(std::move(config));
    member.src = arrival.src;
    member.dst = arrival.dst;
    member.qos = arrival.qos;
    member.active = true;
    members_.push_back(std::move(member));
    ++active_;

    // Phase-stagger the cohort across one period so a 1000-client arrival
    // does not land 1000 same-instant requests every cycle.
    const std::size_t index = members_.size() - 1;
    const qkd::SimTime offset =
        static_cast<qkd::SimTime>((i + 1) * period / (arrival.count + 1));
    const std::size_t bits = arrival.bits;
    members_[index].ticker = scheduler_.every(
        offset, period,
        [this, index, bits](qkd::SimTime) {
          issue_request(members_[index], bits);
        });
  }
  (void)now;
}

void KmsClientFleet::client_departure(qkd::SimTime now,
                                      const sim::ClientDeparture& departure) {
  std::size_t remaining = departure.count;
  for (auto it = members_.rbegin(); it != members_.rend() && remaining > 0;
       ++it) {
    if (!it->active || it->src != departure.src || it->dst != departure.dst ||
        it->qos != departure.qos)
      continue;
    scheduler_.cancel(it->ticker);
    it->ticker = sim::EventScheduler::Handle();
    it->active = false;
    kms_.deregister_client(it->id);
    --active_;
    --remaining;
  }
  (void)now;
}

}  // namespace qkd::kms
