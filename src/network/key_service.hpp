// Engine-backed mesh key service: the continuously-running layer between
// the per-link QKD engines and the consumers of pairwise key (the trusted
// relay network of Sec. 8, and the IKE/IPsec stack of Sec. 7).
//
// A LinkKeyService owns one real QkdLinkSession per topology link and is a
// keystore::KeyProducer with one key stream per link: accepted batches are
// distilled by actually running the protocol pipeline — sifting, error
// correction, privacy amplification, authentication — rather than the
// analytic rate shortcut (estimated_distill_fraction), which remains
// available as a fast estimator and is cross-validated against this
// service in tests. Consumers obtain key through supply(link) — the
// link's KeySupply — or attach their own sinks (both VPN gateways attach
// their pools to the same stream and hold mirror-image reservoirs).
//
// Independent links are independent machines, so their batches execute in
// parallel on the service's own common::WorkerPool (sized once at
// construction: min(threads, link count) lanes, never recomputed per
// batch). Each link's session, sinks and attack state are
// touched by exactly one lane at a time and seeds are derived per link, so
// every link's key stream is bit-identical regardless of lane count; with
// threads = 1 the links run inline in ascending id order — the exact
// sequential order.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/worker_pool.hpp"
#include "src/keystore/key_producer.hpp"
#include "src/network/topology.hpp"
#include "src/qkd/engine.hpp"

namespace qkd::network {

class LinkKeyService : public qkd::keystore::KeyProducer {
 public:
  struct Config {
    /// Protocol operating point applied to every link; the physical-layer
    /// block (`proto.link`) is overridden per link from the topology's
    /// per-link optics.
    qkd::proto::QkdLinkConfig proto;

    /// Master seed; each link derives an independent stream from it.
    std::uint64_t seed = 1;

    /// Worker lanes for parallel link distillation. 0 picks
    /// min(hardware_concurrency, 8); the count is clamped ONCE at
    /// construction to min(threads, link count) and 1 forces the exact
    /// sequential order (links in ascending id). Batches for one link
    /// always run sequentially on one lane.
    std::size_t threads = 0;
  };

  LinkKeyService(const Topology& topology, Config config);
  ~LinkKeyService() override;

  std::size_t link_count() const { return links_.size(); }

  /// Concurrent lanes the per-link fan-out actually uses (post-clamp).
  std::size_t worker_lanes() const { return pool_->lanes(); }

  /// The engine behind one link (totals, auth state, config inspection).
  qkd::proto::QkdLinkSession& session(LinkId id);
  const qkd::proto::QkdLinkSession& session(LinkId id) const;

  /// Installs (or clears, with nullptr) an eavesdropper on one link's
  /// quantum channel; applied to every subsequent batch of that link.
  void set_attack(LinkId id, std::unique_ptr<qkd::optics::Attack> attack);

  /// Disabled links run no batches (fiber cut, link abandoned).
  void set_link_enabled(LinkId id, bool enabled);
  bool link_enabled(LinkId id) const;

  /// Runs `batches_per_link` batches on every enabled link, independent
  /// links in parallel; accepted batches are delivered to the link's
  /// supply (or its attached sinks).
  void run_batches(std::size_t batches_per_link);

  /// Runs a single batch on one link (no-op while the link is disabled) —
  /// the unit the discrete-event scheduler dispatches: each link's next
  /// batch completion is an event at now + link_frame_duration_s().
  void run_link_batch(LinkId id);

  /// Wall-clock duration of one Qframe on this link at its trigger rate:
  /// the natural batch-completion period.
  double link_frame_duration_s(LinkId id) const;

  /// Distilled bits pending in a link's supply (convenience for
  /// supply(id).available_bits()).
  std::size_t pool_bits(LinkId id) const { return supply(id).available_bits(); }

  // ---- keystore::KeyProducer ----------------------------------------------
  std::size_t supply_count() const override { return links_.size(); }
  /// The pairwise KeySupply of one topology link.
  qkd::keystore::KeySupply& supply(std::size_t id) override;
  const qkd::keystore::KeySupply& supply(std::size_t id) const override;
  /// Mirrors link `id`'s stream into `sink` (the link's own supply stops
  /// accumulating) — the feed the VPN layer routes into both gateways.
  void attach_sink(std::size_t id, qkd::keystore::KeySupply& sink) override;
  /// Advances simulated time: runs however many whole Qframes fit into
  /// `dt_seconds` of each enabled link's time (fractional frame time is
  /// carried per link).
  void advance(double dt_seconds) override;

 private:
  struct LinkState {
    std::unique_ptr<qkd::proto::QkdLinkSession> session;
    bool enabled = true;
  };

  /// Runs `work(link)` for every enabled link, fanning links out across
  /// the pool's lanes.
  template <typename Fn>
  void for_each_enabled_link(const Fn& work);

  std::vector<LinkState> links_;
  std::unique_ptr<qkd::common::WorkerPool> pool_;
};

}  // namespace qkd::network
