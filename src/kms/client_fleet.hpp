// Scripted client populations for the KMS.
//
// KmsClientFleet is the sim::ClientWorkloadDriver the scenario engine talks
// to: a ClientArrival{count, qos, rate, bits} action registers `count`
// applications on the KMS and gives each a phase-staggered periodic
// get_key event; ClientDeparture cancels them (most recently arrived
// first) and deregisters. Granted keys are immediately claimed on the peer
// side through get_key_with_id, so every grant continuously exercises —
// and verifies — the cross-end key-ID agreement.
//
// This is how a scripted day ramps thousands of clients up and down with a
// handful of scenario lines (see example_kms_day and bench_kms/E19).
#pragma once

#include <cstdint>
#include <vector>

#include "src/kms/kms.hpp"
#include "src/sim/scenario.hpp"

namespace qkd::kms {

class KmsClientFleet final : public sim::ClientWorkloadDriver {
 public:
  struct Stats {
    std::uint64_t requests_issued = 0;
    std::uint64_t granted = 0;
    std::uint64_t rejected = 0;  // admission control
    std::uint64_t shed = 0;
    std::uint64_t departed = 0;
    /// Peer-side claims whose bits matched the initiator's grant — the
    /// end-to-end key-ID agreement check, counted per grant.
    std::uint64_t claims_matched = 0;
    std::uint64_t claims_mismatched = 0;
  };

  /// Both must outlive the fleet. `scheduler` is the stream arrivals,
  /// departures and the members' request tickers run on — the KMS's own.
  KmsClientFleet(KeyManagementService& kms, sim::EventScheduler& scheduler);
  ~KmsClientFleet() override;

  // ---- sim::ClientWorkloadDriver ------------------------------------------
  void client_arrival(qkd::SimTime now,
                      const sim::ClientArrival& arrival) override;
  void client_departure(qkd::SimTime now,
                        const sim::ClientDeparture& departure) override;

  std::size_t active_clients() const { return active_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Member {
    ClientId id = 0;
    network::NodeId src = 0;
    network::NodeId dst = 0;
    unsigned qos = 0;
    sim::EventScheduler::Handle ticker;
    bool active = false;
  };

  void issue_request(Member& member, std::size_t bits);

  KeyManagementService& kms_;
  sim::EventScheduler& scheduler_;
  std::vector<Member> members_;
  std::size_t active_ = 0;
  std::uint64_t arrivals_ = 0;  // names successive fleet members
  Stats stats_;
};

}  // namespace qkd::kms
