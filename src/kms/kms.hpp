// Multi-tenant key management service: the subsystem that turns the
// keystore + trusted-relay mesh into a *service* shared by many client
// applications (the Q-KeyMaker key-server architecture; the paper's
// "millions of users" trajectory). Distilled key is only useful once it is
// delivered to cryptographic consumers — and sustained multi-client rates
// are bounded by computational load and fair scheduling, not just optics
// (Gilbert & Hamrick, "Secrecy, Computational Loads and Rates in Practical
// Quantum Cryptography").
//
// Shape of the service:
//
//  * Client registry. Applications register by name, bound to a
//    (src-node, dst-node) endpoint pair and a QoS class. get_key() asks
//    for end-to-end key; the grant arrives asynchronously (the KMS runs
//    entirely on EventScheduler deadlines) carrying a KeyBlock whose
//    key_id names the SAME bits on the peer endpoint — the claiming side
//    fetches its copy with get_key_with_id() (ETSI GS QKD 014 semantics:
//    get_key on the master side, get_key_with_key_IDs on the slave side).
//    Key-ID agreement is built on the keystore's mirrored-KeyPool
//    machinery: each endpoint pair owns two mirror-image delivered-key
//    pools driven through identical KeySupply call sequences, so both
//    ends derive the same key_id for the same bits.
//  * Admission control + backpressure. Each (pair, class) request queue is
//    bounded; a full queue rejects at get_key() time (kRejectedQueueFull)
//    instead of letting latency grow without bound.
//  * Weighted fair share across QoS classes. Per-pair deficit round robin:
//    each service round credits every backlogged class
//    weight x quantum_bits and serves within the credit, highest-priority
//    class first. Every backlogged class makes progress each round
//    (bounded wait, no starvation of low-priority clients) and a large
//    bulk request can never block a realtime one (no priority inversion —
//    the classes spend separate credit).
//  * Batching. All requests a round selects for one destination ride ONE
//    MeshSimulation relay frame (transport_key_batch), paying the per-hop
//    header+tag overhead once — the hop-pad amortization that makes
//    thousands of small grants affordable.
//  * Supply-event-driven reaction. On a link supply's kReplenished the KMS
//    immediately serves queues that stalled on dry pools (no waiting out
//    the retry backoff); sustained exhaustion (consecutive starved rounds)
//    sheds load, lowest-priority class first (kShed), so realtime clients
//    survive an eavesdropping-induced drought.
//  * One thread. The service owns every endpoint pair's state directly and
//    runs only on its scheduler's thread, like the mesh: get_key, grant
//    callbacks, stats reads and metrics collection all happen there, so
//    nothing on the grant path is atomic or locked.
//
// The KMS is the topmost layer (src/kms links qkd_sim): it schedules onto
// the same EventScheduler the scenario engine scripts, implements
// sim::ServiceSampler so the TimelineRecorder can chart per-class queue
// depth / grants / rejections / p99 grant latency, and plugs into scripted
// days through kms::KmsClientFleet (ClientArrival/ClientDeparture actions).
// E19 (bench_kms) drives >= 1M requests from >= 1k clients through one
// scheduled run.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/keystore/key_pool.hpp"
#include "src/network/key_transport.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/event_scheduler.hpp"
#include "src/sim/timeline.hpp"

namespace qkd::kms {

// ---- QoS vocabulary --------------------------------------------------------

/// Service classes in priority order (0 = highest weight). kRealtime is
/// never shed; kBulk is the first to go when supply dries up.
enum class QosClass : unsigned { kRealtime = 0, kInteractive = 1, kBulk = 2 };
inline constexpr std::size_t kQosClassCount = 3;

const char* qos_class_name(QosClass qos);

// ---- Client registry -------------------------------------------------------

using ClientId = std::uint32_t;

struct ClientConfig {
  std::string name;              // appears in diagnostics
  network::NodeId src = 0;       // the endpoint this application runs on
  network::NodeId dst = 0;       // its peer application's endpoint
  QosClass qos = QosClass::kInteractive;
};

// ---- Grants ----------------------------------------------------------------

enum class GrantStatus {
  kGranted,            // bits + key_id delivered
  kRejectedQueueFull,  // admission control: (pair, class) queue at capacity
  kShed,               // dropped by sustained-exhaustion load shedding
  kDeparted,           // the client deregistered with the request queued
};

const char* grant_status_name(GrantStatus status);

struct Grant {
  ClientId client = 0;
  GrantStatus status = GrantStatus::kGranted;
  /// Names the same bits on both endpoints (kGranted only); the peer
  /// application claims its copy with get_key_with_id(key_id).
  std::uint64_t key_id = 0;
  qkd::BitVector bits;                      // the initiator's copy
  std::vector<network::NodeId> exposed_to;  // relays that saw the frame
  /// The delivering frame traversed a relay that was compromised at grant
  /// time (the mesh flags it; policy above decides whether to discard).
  bool compromised = false;
  qkd::SimTime requested_at = 0;
  qkd::SimTime granted_at = 0;
};

/// Invoked exactly once per get_key() call, from inside a scheduler event
/// (or synchronously for admission rejections).
using GrantCallback = std::function<void(const Grant&)>;

// ---- The service -----------------------------------------------------------

class KeyManagementService final : public sim::ServiceSampler {
 public:
  struct Config {
    /// Fair-share weights by QoS class index; each crediting pass of a
    /// round gives every backlogged class weight x quantum_bits of
    /// service, highest priority served first.
    std::array<unsigned, kQosClassCount> class_weights{8, 3, 1};
    std::size_t quantum_bits = 4096;

    /// Payload cap of one relay frame: a round keeps crediting passes
    /// going (work conservation — idle classes' capacity flows to the
    /// backlogged ones at the weighted ratio) until the frame is full or
    /// the queues are empty. The cap, not the credit, is what bounds a
    /// round, so weighted differentiation only appears under contention.
    std::size_t max_frame_bits = 64 * 1024;

    /// Admission cap per (endpoint pair, class) queue.
    std::size_t max_queue_per_class = 256;

    /// How long a pair's arrivals are collected before a service round
    /// batches them into one relay frame.
    qkd::SimTime batch_window = 10 * qkd::kMillisecond;

    /// Retry delay after a starved round (pools could not cover the
    /// frame); bounds the event rate of a drought.
    qkd::SimTime retry_backoff = 250 * qkd::kMillisecond;

    /// Consecutive starved rounds on a pair before load is shed,
    /// lowest-priority backlogged class first.
    std::size_t shed_after_starved_rounds = 4;

    /// How long an unclaimed peer copy is held for get_key_with_id before
    /// it is discarded (both mirrored pools have already consumed the
    /// blocks, so expiry cannot desynchronize them).
    qkd::SimTime claim_ttl = qkd::kMinute;

    /// Engine-backed meshes only: low-water mark installed on every link
    /// supply so kReplenished fires (0 leaves the supplies untouched and
    /// disables replenish wakeups).
    std::size_t link_low_water_bits = 4 * keystore::KeySupply::kQblockBits;

    /// Unused: grant key material comes from the mesh's rng. Kept only
    /// so existing callers that set it still compile.
    std::uint64_t seed = 19;

    /// Grant-latency service-level objective: a grant delivered within
    /// this of its request counts into ClassStats::granted_within_slo
    /// (the "good" counter the alert engine's burn-rate rules divide by
    /// granted). Latency here is request-to-grant on the sim timeline.
    qkd::SimTime slo_grant_latency = 500 * qkd::kMillisecond;
  };

  struct ClassStats {
    std::uint64_t requests = 0;
    std::uint64_t granted = 0;
    /// Grants delivered within Config::slo_grant_latency — the SLO "good"
    /// counter (granted_within_slo <= granted always).
    std::uint64_t granted_within_slo = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t shed = 0;
    std::uint64_t departed = 0;
    std::uint64_t bits_granted = 0;
  };

  struct Stats {
    std::uint64_t service_rounds = 0;
    std::uint64_t transports = 0;      // relay frames sent (batching: <= grants)
    std::uint64_t starved_rounds = 0;  // frames the pools could not cover
    std::uint64_t shed_events = 0;     // times a class queue was dropped
    std::uint64_t replenish_wakeups = 0;
    std::uint64_t claims_fulfilled = 0;
    std::uint64_t claims_expired = 0;
    /// Bits of expired unclaimed peer copies redeposited into BOTH pair
    /// stores (never silently leaked).
    std::uint64_t bits_reclaimed = 0;
  };

  /// Snapshot of one endpoint pair's mirrored state, for invariant
  /// checkers: the fuzzer asserts src/dst agree on every field after every
  /// scenario event.
  struct PairInspection {
    network::NodeId src = 0;
    network::NodeId dst = 0;
    std::size_t src_available_bits = 0;
    std::size_t dst_available_bits = 0;
    std::uint64_t src_next_key_id = 0;
    std::uint64_t dst_next_key_id = 0;
    keystore::KeyPool::Stats src_stats;
    keystore::KeyPool::Stats dst_stats;
    std::size_t claims_outstanding = 0;
    std::array<std::size_t, kQosClassCount> queue_depths{};
  };

  /// The service runs its rounds on `scheduler`; the mesh and scheduler
  /// must outlive it. Engine-backed meshes must be driven on the same
  /// thread (scheduler-dispatched run_link_batch, as ScenarioRunner does):
  /// the KMS subscribes to the link supplies and its callbacks are not
  /// thread-safe.
  KeyManagementService(network::MeshSimulation& mesh,
                       sim::EventScheduler& scheduler, Config config);
  KeyManagementService(network::MeshSimulation& mesh,
                       sim::EventScheduler& scheduler);
  ~KeyManagementService() override;

  // ---- Registry -----------------------------------------------------------
  ClientId register_client(ClientConfig config);
  /// Queued requests of the departing client are drained with kDeparted.
  void deregister_client(ClientId id);
  std::size_t client_count() const { return live_clients_; }
  const ClientConfig& client(ClientId id) const;

  // ---- ETSI-014-style delivery -------------------------------------------
  /// Initiator side: asks for `bits` of end-to-end key for `id`'s endpoint
  /// pair. The callback fires with a kGranted grant (bits + key_id) once a
  /// service round delivers, or with a rejection status. Throws
  /// std::invalid_argument for bits == 0 or an unknown/departed client.
  void get_key(ClientId id, std::size_t bits, GrantCallback on_grant);

  /// The traced form: `trace` (a client span's context, possibly carried in
  /// off the wire) parents every grant-path span of this request —
  /// admission, the DRR service round, the mesh plan and hops, the grant.
  /// An invalid (default) context behaves exactly like the overload above.
  void get_key(ClientId id, std::size_t bits, GrantCallback on_grant,
               obs::TraceContext trace);

  /// Peer side: claims the peer copy of a granted key by its key_id. Only
  /// the peer endpoint's applications (registered on the reversed pair)
  /// and the granted client itself may claim — a co-tenant on the same
  /// pair cannot take another tenant's key. nullopt when the key_id is
  /// unknown, already claimed, expired, or not claimable by `id`.
  std::optional<keystore::KeyBlock> get_key_with_id(ClientId id,
                                                    std::uint64_t key_id);

  /// The number of tracer and metrics cells the service records into:
  /// always 1. Kept only so existing callers that size a Tracer or
  /// MetricsRegistry with it still compile.
  std::size_t shard_count() const { return 1; }

  // ---- Observability ------------------------------------------------------
  /// Installs (or removes, with nullptr) the tracer the grant path records
  /// spans into (cell 0). The mesh's tracer is NOT installed here — set it
  /// on the mesh explicitly if the relay legs should be recorded too.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Registers a collector exposing service/class counters, per-class p99
  /// grant latency and per-pair pooled bits under `prefix`.
  void bind_metrics(obs::MetricsRegistry& registry, std::string prefix);

  // ---- Introspection -----------------------------------------------------
  const ClassStats& class_stats(QosClass qos) const {
    return class_stats_.at(static_cast<std::size_t>(qos));
  }
  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  /// Requests waiting in `qos` queues across all endpoint pairs.
  std::size_t queue_depth(QosClass qos) const;
  double p99_grant_latency_s(QosClass qos) const;
  double mean_grant_latency_s(QosClass qos) const;
  /// True while in a shedding episode (cleared by the next successful
  /// round).
  bool shedding() const { return shedding_; }
  /// One snapshot per live endpoint pair (ordered by (src, dst)).
  std::vector<PairInspection> inspect_pairs() const;

  /// Observer invoked for EVERY delivered Grant — granted, rejected, shed
  /// and departed alike — just before the client's own callback. The fuzz
  /// harness checks its invariants (compromise flagging, conservation)
  /// here without disturbing delivery.
  void set_grant_observer(GrantCallback observer) {
    grant_observer_ = std::move(observer);
  }

  // ---- sim::ServiceSampler ------------------------------------------------
  std::vector<sim::ClassSample> sample_service(qkd::SimTime now) override;

 private:
  /// O(1)-memory latency histogram (power-of-two nanosecond buckets) for
  /// the per-class p99 over million-grant runs.
  class LatencyHistogram {
   public:
    void record(qkd::SimTime latency);
    double quantile_s(double q) const;
    double mean_s() const;

   private:
    static constexpr std::size_t kBuckets = 64;
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    qkd::SimTime total_ = 0;
  };

  struct Request;    // one queued get_key (defined in kms.cpp)
  struct PairState;  // one ordered endpoint pair's state (kms.cpp)
  using Round = std::vector<std::pair<unsigned, Request>>;

  struct ClientRecord {
    ClientConfig config;
    PairState* pair = nullptr;
    bool live = false;
  };

  /// Finds or creates the ordered pair's state (registration path; the
  /// pair vector stays sorted by (src, dst) and addresses stay stable).
  PairState& pair_for(network::NodeId src, network::NodeId dst);
  PairState* find_pair(network::NodeId src, network::NodeId dst);
  ClientRecord& live_client(ClientId id, const char* op);
  /// Arms (or pulls forward) the pair's service round to `when`.
  void arm_service(PairState& pair, qkd::SimTime when);
  void service_round(PairState& pair, qkd::SimTime now);
  /// Deficit round robin: moves this round's winners out of the queues.
  Round select_round(PairState& pair);
  void grant_round(PairState& pair, Round& round,
                   const network::MeshSimulation::TransportResult& frame,
                   qkd::SimTime now, obs::TraceContext trace);
  /// Returns winners to the front of their queues (starved frame).
  void requeue_round(PairState& pair, Round& round);
  /// Drops the lowest-priority backlogged class of the pair with kShed.
  void shed_lowest_class(PairState& pair, qkd::SimTime now);
  void purge_expired_claims(PairState& pair, qkd::SimTime now);
  void on_supply_replenished(qkd::SimTime now);
  void finish(Request& request, GrantStatus status, qkd::SimTime now,
              ClassStats& stats);
  static bool backlogged(const PairState& pair);

  network::MeshSimulation& mesh_;
  sim::EventScheduler& scheduler_;
  Config config_;

  /// Sorted by (src, dst); unique_ptr keeps PairState addresses stable
  /// across insertions (registration only — never on the grant path).
  std::vector<std::unique_ptr<PairState>> pairs_;
  std::vector<ClientRecord> clients_;
  std::size_t live_clients_ = 0;

  std::array<ClassStats, kQosClassCount> class_stats_{};
  std::array<LatencyHistogram, kQosClassCount> latency_{};
  Stats stats_;
  bool shedding_ = false;
  GrantCallback grant_observer_;
  obs::Tracer* tracer_ = nullptr;
  std::vector<std::uint64_t> supply_subscriptions_;  // engine mode only
};

}  // namespace qkd::kms
