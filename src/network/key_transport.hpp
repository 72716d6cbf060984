// The trusted-relay "key transport network" of Section 8.
//
// Every usable link continuously distills pairwise key material into a link
// pool. To agree on an end-to-end key, the source generates fresh key bits
// and forwards them hop by hop: across each link the bits travel one-time-pad
// encrypted under that link's pairwise key; inside each relay they exist in
// the clear ("the end-to-end key will appear in the clear within the relays'
// memories proper, but will always be encrypted when passing across a
// link"). The result accounts both the key-material cost (every hop consumes
// pool bits equal to the transported key) and the trust cost (the set of
// relays that saw the key).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "src/common/rng.hpp"
#include "src/common/sim_clock.hpp"
#include "src/network/key_service.hpp"
#include "src/network/routing.hpp"
#include "src/network/topology.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/wire/frame.hpp"

namespace qkd::network {

/// Analytic estimate of the distilled-key fraction of sifted bits at a
/// link's operating point (error-correction disclosure at 1.2x Shannon plus
/// the Bennett charge and the conditional multi-photon charge), clamped to
/// zero. Cross-validated against the full protocol engine in tests.
double estimated_distill_fraction(const qkd::optics::LinkModel& model);

/// Distilled bits/second a link produces at its operating point; zero when
/// the link is cut, eavesdropped past the QBER alarm, or out of range.
double link_distill_rate_bps(const Link& link);

/// How MeshSimulation::step() accrues pairwise key into link pools.
enum class RateModel {
  /// Closed-form estimated_distill_fraction: instant, used for fast
  /// parameter sweeps and the topology benches.
  kAnalytic,
  /// A LinkKeyService runs the real protocol engine on every link; pools
  /// grow by actually distilled bits. Eavesdropping installed with
  /// eavesdrop_link() is applied to the quantum channel, so its cost
  /// emerges from the pipeline instead of a formula.
  kEngine,
};

class MeshSimulation {
 public:
  /// Per-frame relay overhead, paid once per hop per transport frame: the
  /// relayed message carries a key-id/route header plus a Wegman-Carter
  /// authentication tag, and the hop pad must cover them too. Batching
  /// same-destination requests into one frame amortizes this cost — the
  /// lever the KMS layer pulls (Gilbert & Hamrick's computational-load
  /// bound made visible in pool bits).
  static constexpr std::size_t kFrameOverheadBits =
      qkd::wire::relay_frame_overhead_bits();

  struct TransportResult {
    bool success = false;
    Route route;
    /// Delivered end-to-end key: for a batch frame, the requests'
    /// payloads concatenated in request order (slice per request).
    qkd::BitVector key;
    std::vector<NodeId> exposed_to;     // relays that held the key in clear
    std::size_t pool_bits_consumed = 0; // summed across hops, incl. overhead
    /// Some relay in exposed_to is compromised: Eve read this key in the
    /// clear inside that relay's memory.
    bool compromised = false;
  };

  struct Stats {
    std::uint64_t transports_attempted = 0;
    std::uint64_t transports_succeeded = 0;
    std::uint64_t transports_no_route = 0;
    std::uint64_t transports_starved = 0;  // route found but pools too dry
    std::uint64_t reroutes = 0;            // route differed from previous
    std::uint64_t transports_compromised = 0;  // delivered via an owned relay
  };

  /// Analytic-rate mesh (the fast estimator).
  MeshSimulation(Topology topology, std::uint64_t seed);

  /// Engine-backed mesh: one QkdLinkSession per link via LinkKeyService.
  /// `engine.proto.link` is overridden per link from the topology optics.
  MeshSimulation(Topology topology, std::uint64_t seed,
                 LinkKeyService::Config engine);

  RateModel rate_model() const { return rate_model_; }

  /// The engine service, or nullptr in analytic mode.
  LinkKeyService* key_service() { return service_.get(); }

  Topology& topology() { return topology_; }
  const Topology& topology() const { return topology_; }

  /// Advances simulated time: every usable link distills key into its pool —
  /// at its analytic rate, or by running real engine batches (kEngine, in
  /// which case the key lands in the service's per-link KeySupply).
  void step(double dt_seconds);

  /// The clocked form of step(): advances `clock` by `seconds` in
  /// `tick_seconds` slices, stepping the mesh each slice (the shared
  /// advance_clock_stepped helper — no hand-rolled seconds->SimTime loops).
  void run_on_clock(qkd::SimClock& clock, double seconds, double tick_seconds);

  /// Current pairwise pool of a link, in bits (engine mode reads the
  /// link's KeySupply).
  double link_pool_bits(LinkId link) const;

  /// Moves `bits` of fresh end-to-end key from src to dst hop by hop.
  /// Consumes `bits + kFrameOverheadBits` from every link pool along the
  /// route — in engine mode through each link's KeySupply, whose withdrawn
  /// bits are the actual hop pads. Routes prefer key-rich paths. Fails
  /// (without consuming) when no usable route exists or some pool on the
  /// best route cannot cover the request. Equivalent to a one-request
  /// batch frame.
  TransportResult transport_key(NodeId src, NodeId dst, std::size_t bits);

  /// Moves several same-destination key requests in ONE relay frame: the
  /// payloads travel concatenated under a single per-hop header+tag, so the
  /// frame consumes `sum(request_bits) + kFrameOverheadBits` per hop —
  /// strictly fewer pool bits than one frame per request. All requests
  /// share the frame's route, and every relay in `exposed_to` saw every
  /// request's key (the trust cost is per frame, not per request).
  /// `result.key` holds the payloads in request order. Throws
  /// std::invalid_argument on an empty batch or a zero-bit request.
  /// With a tracer installed and a valid `trace`, the transport records one
  /// "mesh.plan" span plus a "mesh.hop" span per consumed hop under it —
  /// the relay legs of a traced KMS grant.
  TransportResult transport_key_batch(NodeId src, NodeId dst,
                                      const std::vector<std::size_t>& request_bits,
                                      obs::TraceContext trace = {});

  /// Failure injection.
  void cut_link(LinkId link);
  /// Applies an intercept-resend fraction to a link; past the QBER alarm
  /// the link is marked eavesdropped and abandoned. Returns the resulting
  /// expected QBER.
  double eavesdrop_link(LinkId link, double intercept_fraction);
  void restore_link(LinkId link);

  /// Installs classical-channel conditions (one-way latency, loss,
  /// reordering) on one link's PUBLIC channel — the framed byte stream the
  /// distillation dialogue crosses, not the quantum channel. Engine mode
  /// only; returns false on an analytic mesh (no classical channel is
  /// simulated there).
  bool set_classical_conditions(LinkId link,
                                const qkd::net::ClassicalConditions& conditions);

  /// Eve owns this relay: its QKD links keep working (she plays both
  /// protocols honestly), but every end-to-end key it relays is hers.
  /// Routing avoids compromised relays when an alternative exists;
  /// transports that do traverse one are counted in
  /// Stats::transports_compromised and flagged on the result.
  void compromise_node(NodeId node);
  void restore_node(NodeId node);
  bool node_compromised(NodeId node) const;

  const Stats& stats() const { return stats_; }

  /// Installs (or, with nullptr, removes) the tracer transports record
  /// spans into (cell 0).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Registers a collector exposing transport Stats plus the summed link
  /// pool depth under `prefix`. Snapshot on the mesh's own thread, like
  /// every other mesh read.
  void bind_metrics(obs::MetricsRegistry& registry, std::string prefix);

 private:
  void sync_engine_link_states();
  /// Discards a link's accumulated key (cut / abandoned link).
  void purge_pool(LinkId link);

  Topology topology_;
  qkd::Rng rng_;
  RateModel rate_model_ = RateModel::kAnalytic;
  std::unique_ptr<LinkKeyService> service_;  // kEngine only
  std::vector<double> pools_;  // bits, indexed by LinkId; kAnalytic only
  std::vector<double> eavesdrop_fraction_;
  std::vector<char> compromised_;  // indexed by NodeId
  std::optional<Route> last_route_;
  Stats stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace qkd::network
