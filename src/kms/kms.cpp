#include "src/kms/kms.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <stdexcept>
#include <utility>

#include "src/network/key_service.hpp"

namespace qkd::kms {

const char* qos_class_name(QosClass qos) {
  switch (qos) {
    case QosClass::kRealtime: return "realtime";
    case QosClass::kInteractive: return "interactive";
    case QosClass::kBulk: return "bulk";
  }
  return "?";
}

const char* grant_status_name(GrantStatus status) {
  switch (status) {
    case GrantStatus::kGranted: return "granted";
    case GrantStatus::kRejectedQueueFull: return "rejected-queue-full";
    case GrantStatus::kShed: return "shed";
    case GrantStatus::kDeparted: return "departed";
  }
  return "?";
}

// ---- LatencyHistogram ------------------------------------------------------

void KeyManagementService::LatencyHistogram::record(qkd::SimTime latency) {
  if (latency < 0) latency = 0;
  std::size_t index = std::bit_width(static_cast<std::uint64_t>(latency));
  if (index >= kBuckets) index = kBuckets - 1;
  ++buckets_[index];
  ++count_;
  total_ += latency;
}

double KeyManagementService::LatencyHistogram::quantile_s(double q) const {
  if (count_ == 0) return 0.0;
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(count_)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      // Bucket i holds latencies in [2^(i-1), 2^i) ns; report the upper
      // bound — a conservative percentile.
      return static_cast<double>(1ULL << i) / 1e9;
    }
  }
  return 0.0;
}

double KeyManagementService::LatencyHistogram::mean_s() const {
  if (count_ == 0) return 0.0;
  return sim_to_seconds(total_) / static_cast<double>(count_);
}

// ---- Per-pair state --------------------------------------------------------

struct KeyManagementService::Request {
  ClientId client = 0;
  std::size_t bits = 0;
  GrantCallback callback;
  qkd::SimTime requested_at = 0;
  /// The caller's trace (invalid for untraced requests): the parent every
  /// grant-path span of this request hangs under.
  obs::TraceContext trace;
};

namespace {

/// An unclaimed peer copy. key_ids are monotonic per pair and claim_ttl is
/// constant, so a pair's claims deque is sorted by key_id AND by expiry:
/// lookup is a binary search, purge pops from the front, and a fulfilled
/// claim is tombstoned in place (`claimed`) until it reaches the front —
/// no node-based map on the grant path.
struct PendingClaim {
  std::uint64_t key_id = 0;
  keystore::KeyBlock block;
  ClientId initiator = 0;  // the granted client: may claim its own copy
  qkd::SimTime expires_at = 0;
  bool claimed = false;
};

constexpr auto pair_precedes = [](const auto& pair, const auto& key) {
  return std::make_pair(pair->src, pair->dst) < key;
};

}  // namespace

struct KeyManagementService::PairState {
  network::NodeId src = 0;
  network::NodeId dst = 0;
  /// Mirror-image delivered-key pools, one per endpoint: every frame's
  /// payload is deposited into both, every grant withdraws from both
  /// through identical calls, so key_ids agree end to end.
  keystore::KeyPool src_store;
  keystore::KeyPool dst_store;
  std::array<std::deque<Request>, kQosClassCount> queues;
  std::array<std::size_t, kQosClassCount> deficit_bits{};
  std::deque<PendingClaim> claims;
  /// Entries neither claimed nor purged — what claims.size() was before
  /// tombstoning (PairInspection::claims_outstanding).
  std::size_t live_claims = 0;
  sim::EventScheduler::Handle service_event;
  qkd::SimTime armed_for = -1;  // due time of service_event, -1 when idle
  std::size_t consecutive_starved = 0;
};

// ---- Construction ----------------------------------------------------------

KeyManagementService::KeyManagementService(network::MeshSimulation& mesh,
                                           sim::EventScheduler& scheduler,
                                           Config config)
    : mesh_(mesh), scheduler_(scheduler), config_(config) {
  if (config_.quantum_bits == 0)
    throw std::invalid_argument("KeyManagementService: quantum_bits == 0");
  if (config_.max_frame_bits == 0)
    throw std::invalid_argument("KeyManagementService: max_frame_bits == 0");
  for (unsigned weight : config_.class_weights)
    if (weight == 0)
      throw std::invalid_argument(
          "KeyManagementService: every class weight must be >= 1 "
          "(a zero-weight class would starve)");
  // Engine-backed meshes announce replenishment through each link's
  // KeySupply; arm the low-water machinery and wake stalled queues on it.
  if (auto* service = mesh_.key_service();
      service != nullptr && config_.link_low_water_bits > 0) {
    for (std::size_t id = 0; id < service->supply_count(); ++id) {
      auto& supply = service->supply(id);
      supply.set_low_water_bits(config_.link_low_water_bits);
      supply_subscriptions_.push_back(
          supply.subscribe([this](const keystore::SupplyEvent& event) {
            if (event.kind == keystore::SupplyEventKind::kReplenished)
              on_supply_replenished(scheduler_.now());
          }));
    }
  }
}

KeyManagementService::KeyManagementService(network::MeshSimulation& mesh,
                                           sim::EventScheduler& scheduler)
    : KeyManagementService(mesh, scheduler, Config()) {}

KeyManagementService::~KeyManagementService() {
  for (auto& pair : pairs_)
    if (pair->service_event.valid()) scheduler_.cancel(pair->service_event);
  if (auto* service = mesh_.key_service()) {
    for (std::size_t id = 0; id < supply_subscriptions_.size(); ++id)
      service->supply(id).unsubscribe(supply_subscriptions_[id]);
  }
}

// ---- Registry --------------------------------------------------------------

KeyManagementService::PairState* KeyManagementService::find_pair(
    network::NodeId src, network::NodeId dst) {
  const auto key = std::make_pair(src, dst);
  const auto it =
      std::lower_bound(pairs_.begin(), pairs_.end(), key, pair_precedes);
  if (it == pairs_.end() || (*it)->src != src || (*it)->dst != dst)
    return nullptr;
  return it->get();
}

KeyManagementService::PairState& KeyManagementService::pair_for(
    network::NodeId src, network::NodeId dst) {
  const auto key = std::make_pair(src, dst);
  const auto it =
      std::lower_bound(pairs_.begin(), pairs_.end(), key, pair_precedes);
  if (it != pairs_.end() && (*it)->src == src && (*it)->dst == dst)
    return **it;
  auto pair = std::make_unique<PairState>();
  pair->src = src;
  pair->dst = dst;
  const std::string tag = std::to_string(src) + "->" + std::to_string(dst);
  pair->src_store.set_label("kms:" + tag + ":src");
  pair->dst_store.set_label("kms:" + tag + ":dst");
  return **pairs_.insert(it, std::move(pair));
}

ClientId KeyManagementService::register_client(ClientConfig config) {
  if (config.src == config.dst)
    throw std::invalid_argument("KeyManagementService: src == dst for \"" +
                                config.name + "\"");
  if (static_cast<std::size_t>(config.qos) >= kQosClassCount)
    throw std::invalid_argument(
        "KeyManagementService: unknown QoS class for \"" + config.name +
        "\"");
  ClientRecord record;
  record.pair = &pair_for(config.src, config.dst);
  record.config = std::move(config);
  record.live = true;
  clients_.push_back(std::move(record));
  ++live_clients_;
  return static_cast<ClientId>(clients_.size() - 1);
}

KeyManagementService::ClientRecord& KeyManagementService::live_client(
    ClientId id, const char* op) {
  if (id >= clients_.size() || !clients_[id].live)
    throw std::invalid_argument(std::string("KeyManagementService::") + op +
                                ": unknown or departed client " +
                                std::to_string(id));
  return clients_[id];
}

void KeyManagementService::deregister_client(ClientId id) {
  ClientRecord& record = live_client(id, "deregister_client");
  record.live = false;
  --live_clients_;
  // Drain the departing client's queued requests so callers never wait on
  // a grant that can no longer arrive.
  PairState& pair = *record.pair;
  for (std::size_t qos = 0; qos < kQosClassCount; ++qos) {
    auto& queue = pair.queues[qos];
    for (auto it = queue.begin(); it != queue.end();) {
      if (it->client == id) {
        finish(*it, GrantStatus::kDeparted, scheduler_.now(),
               class_stats_[qos]);
        it = queue.erase(it);
      } else {
        ++it;
      }
    }
  }
}

const ClientConfig& KeyManagementService::client(ClientId id) const {
  if (id >= clients_.size())
    throw std::invalid_argument("KeyManagementService::client: unknown id " +
                                std::to_string(id));
  return clients_[id].config;
}

// ---- Delivery --------------------------------------------------------------

void KeyManagementService::finish(Request& request, GrantStatus status,
                                  qkd::SimTime now, ClassStats& stats) {
  switch (status) {
    case GrantStatus::kRejectedQueueFull: ++stats.rejected_queue_full; break;
    case GrantStatus::kShed: ++stats.shed; break;
    case GrantStatus::kDeparted: ++stats.departed; break;
    case GrantStatus::kGranted: break;  // grant_round accounts these
  }
  Grant grant;
  grant.client = request.client;
  grant.status = status;
  grant.requested_at = request.requested_at;
  grant.granted_at = now;
  if (grant_observer_) grant_observer_(grant);
  request.callback(grant);
}

void KeyManagementService::get_key(ClientId id, std::size_t bits,
                                   GrantCallback on_grant) {
  get_key(id, bits, std::move(on_grant), obs::TraceContext{});
}

void KeyManagementService::get_key(ClientId id, std::size_t bits,
                                   GrantCallback on_grant,
                                   obs::TraceContext trace) {
  if (bits == 0)
    throw std::invalid_argument("KeyManagementService::get_key: bits == 0");
  if (!on_grant)
    throw std::invalid_argument(
        "KeyManagementService::get_key: empty callback");
  ClientRecord& record = live_client(id, "get_key");
  const qkd::SimTime now = scheduler_.now();
  const auto qos = static_cast<unsigned>(record.config.qos);
  PairState& pair = *record.pair;
  Request request;
  request.client = id;
  request.bits = bits;
  request.callback = std::move(on_grant);
  request.requested_at = now;
  request.trace = trace;
  ClassStats& stats = class_stats_[qos];
  ++stats.requests;
  // The admission decision is the first server-side leg of a traced
  // request; it parents under whatever context the caller propagated
  // (possibly off the wire).
  obs::ScopedSpan admit_span(tracer_, "kms.admit", request.trace);
  // Admission control: a full (pair, class) queue pushes back at request
  // time instead of letting grant latency grow without bound.
  if (pair.queues[qos].size() >= config_.max_queue_per_class) {
    if (admit_span.recording()) admit_span.attr("result", "queue-full");
    finish(request, GrantStatus::kRejectedQueueFull, now, stats);
    return;
  }
  if (admit_span.recording()) {
    admit_span.attr("qos", std::to_string(qos));
    admit_span.attr("bits", std::to_string(request.bits));
    admit_span.attr("result", "queued");
  }
  pair.queues[qos].push_back(std::move(request));
  arm_service(pair, now + config_.batch_window);
}

std::optional<keystore::KeyBlock> KeyManagementService::get_key_with_id(
    ClientId id, std::uint64_t key_id) {
  ClientRecord& record = live_client(id, "get_key_with_id");
  // A claim in the claimant's own ordered pair is only its own grant's
  // peer copy (an initiator retrieving both halves in-process); a claim in
  // the REVERSED pair is claimable by any application at the peer endpoint
  // (the ETSI slave side registers dst->src). A co-tenant on the same
  // pair never gets another tenant's key — a foreign key_id found in the
  // own pair is DENIED, not retried on the reversed side.
  PairState* candidates[2] = {
      record.pair, find_pair(record.config.dst, record.config.src)};
  for (std::size_t side = 0; side < 2; ++side) {
    PairState* pair = candidates[side];
    if (pair == nullptr) continue;
    purge_expired_claims(*pair, scheduler_.now());
    const auto it = std::lower_bound(
        pair->claims.begin(), pair->claims.end(), key_id,
        [](const PendingClaim& c, std::uint64_t k) { return c.key_id < k; });
    if (it == pair->claims.end() || it->key_id != key_id || it->claimed)
      continue;
    const bool own_pair = side == 0;
    if (own_pair && it->initiator != id) return std::nullopt;
    keystore::KeyBlock block = std::move(it->block);
    it->claimed = true;  // tombstone; popped when it reaches the front
    --pair->live_claims;
    ++stats_.claims_fulfilled;
    return block;
  }
  return std::nullopt;
}

void KeyManagementService::purge_expired_claims(PairState& pair,
                                                qkd::SimTime now) {
  // The deque is in key_id == expiry order, so everything purgeable sits at
  // the front: claimed tombstones are simply dropped, expired unclaimed
  // copies are reclaimed. (A claim at exactly expires_at already reads
  // expired — strictly before, or it's gone.)
  while (!pair.claims.empty()) {
    PendingClaim& front = pair.claims.front();
    if (front.claimed) {
      pair.claims.pop_front();
      continue;
    }
    if (front.expires_at > now) break;
    // Reclaim, don't leak: the unclaimed peer copy's bits go back into BOTH
    // mirror stores through identical deposits, so the pair stays in
    // lockstep and the material is re-servable.
    const qkd::BitVector& bits = front.block.bits;
    pair.src_store.deposit(bits);
    pair.dst_store.deposit(bits);
    stats_.bits_reclaimed += bits.size();
    ++stats_.claims_expired;
    --pair.live_claims;
    pair.claims.pop_front();
  }
}

// ---- Scheduling ------------------------------------------------------------

void KeyManagementService::arm_service(PairState& pair, qkd::SimTime when) {
  if (when < scheduler_.now()) when = scheduler_.now();
  if (pair.service_event.valid() && pair.armed_for <= when) return;
  if (pair.service_event.valid()) scheduler_.cancel(pair.service_event);
  pair.armed_for = when;
  PairState* target = &pair;
  pair.service_event = scheduler_.at(when, [this, target](qkd::SimTime now) {
    target->service_event = sim::EventScheduler::Handle();
    target->armed_for = -1;
    service_round(*target, now);
  });
}

bool KeyManagementService::backlogged(const PairState& pair) {
  for (const auto& queue : pair.queues)
    if (!queue.empty()) return true;
  return false;
}

void KeyManagementService::on_supply_replenished(qkd::SimTime now) {
  // A drought just ended: serve stalled queues immediately instead of
  // waiting out the retry backoff.
  bool woke = false;
  for (auto& pair : pairs_) {
    if (!backlogged(*pair)) continue;
    arm_service(*pair, now);
    woke = true;
  }
  if (woke) ++stats_.replenish_wakeups;
}

KeyManagementService::Round KeyManagementService::select_round(
    PairState& pair) {
  // Deficit round robin, work-conserving: crediting passes repeat until
  // the frame payload cap is reached or every queue drains, so an idle
  // class's capacity flows to the backlogged ones — still at the weighted
  // ratio, still highest-priority-first within each pass, and a request
  // bigger than one pass's credit accrues deficit across passes instead of
  // blocking anyone else (no priority inversion).
  Round round;
  std::size_t total_bits = 0;
  bool backlog = true;
  while (backlog && total_bits < config_.max_frame_bits) {
    backlog = false;
    for (unsigned qos = 0; qos < kQosClassCount; ++qos) {
      auto& queue = pair.queues[qos];
      if (queue.empty()) {
        pair.deficit_bits[qos] = 0;  // DRR: idle classes do not hoard credit
        continue;
      }
      pair.deficit_bits[qos] += config_.class_weights[qos] * config_.quantum_bits;
      while (!queue.empty() && queue.front().bits <= pair.deficit_bits[qos] &&
             total_bits < config_.max_frame_bits) {
        pair.deficit_bits[qos] -= queue.front().bits;
        total_bits += queue.front().bits;
        round.emplace_back(qos, std::move(queue.front()));
        queue.pop_front();
      }
      if (queue.empty())
        pair.deficit_bits[qos] = 0;
      else
        backlog = true;
    }
  }
  return round;
}

void KeyManagementService::requeue_round(PairState& pair, Round& round) {
  // Reverse order keeps each class queue's FIFO order; the spent deficit is
  // handed back so the retry round can select the same set immediately.
  for (auto it = round.rbegin(); it != round.rend(); ++it) {
    pair.deficit_bits[it->first] += it->second.bits;
    pair.queues[it->first].push_front(std::move(it->second));
  }
  round.clear();
}

void KeyManagementService::shed_lowest_class(PairState& pair,
                                             qkd::SimTime now) {
  // Lowest-priority backlog goes first; realtime (class 0) is never shed.
  for (unsigned qos = kQosClassCount; qos-- > 1;) {
    auto& queue = pair.queues[qos];
    if (queue.empty()) continue;
    for (Request& request : queue)
      finish(request, GrantStatus::kShed, now, class_stats_[qos]);
    queue.clear();
    pair.deficit_bits[qos] = 0;
    ++stats_.shed_events;
    shedding_ = true;
    return;
  }
}

void KeyManagementService::grant_round(
    PairState& pair, Round& round,
    const network::MeshSimulation::TransportResult& frame, qkd::SimTime now,
    obs::TraceContext trace) {
  obs::ScopedSpan grant_span(tracer_, "kms.grant_round", trace);
  if (grant_span.recording()) {
    grant_span.attr("requests", std::to_string(round.size()));
    grant_span.attr("payload_bits", std::to_string(frame.key.size()));
  }
  // Both endpoints received the frame payload: deposit it into the two
  // mirror-image pools, then withdraw per request through identical calls —
  // the key_ids the two stores assign are equal by the keystore's mirrored
  // lockstep, which is exactly the cross-end key-ID agreement get_key /
  // get_key_with_id needs.
  pair.src_store.deposit(frame.key);
  pair.dst_store.deposit(frame.key);
  for (auto& [qos, request] : round) {
    const auto src_block =
        pair.src_store.request_bits(request.bits, "kms::grant_round(src)");
    const auto dst_block =
        pair.dst_store.request_bits(request.bits, "kms::grant_round(dst)");
    if (!src_block.has_value() || !dst_block.has_value() ||
        src_block->key_id != dst_block->key_id)
      throw std::logic_error(
          "KeyManagementService: mirrored pair stores diverged");
    pair.claims.push_back(PendingClaim{dst_block->key_id, *dst_block,
                                       request.client,
                                       now + config_.claim_ttl, false});
    ++pair.live_claims;

    ClassStats& stats = class_stats_[qos];
    ++stats.granted;
    stats.bits_granted += request.bits;
    const qkd::SimTime latency = now - request.requested_at;
    latency_[qos].record(latency);
    if (latency <= config_.slo_grant_latency) ++stats.granted_within_slo;

    Grant grant;
    grant.client = request.client;
    grant.status = GrantStatus::kGranted;
    grant.key_id = src_block->key_id;
    grant.bits = src_block->bits;
    grant.exposed_to = frame.exposed_to;
    grant.compromised = frame.compromised;
    grant.requested_at = request.requested_at;
    grant.granted_at = now;
    if (grant_observer_) grant_observer_(grant);
    request.callback(grant);
  }
}

void KeyManagementService::service_round(PairState& pair, qkd::SimTime now) {
  ++stats_.service_rounds;
  purge_expired_claims(pair, now);

  Round round = select_round(pair);
  if (round.empty()) {
    // A backlogged class whose head request outruns this round's credit
    // keeps accruing deficit on the next round.
    if (backlogged(pair)) arm_service(pair, now + config_.batch_window);
    return;
  }

  // Selection runs BEFORE the round span opens so the span can be born
  // under the adopted context (the first traced request's) — reparenting
  // after the fact would leave already-opened children in the wrong trace.
  // The DRR pass itself is recorded as an annotation child.
  obs::TraceContext adopted;
  for (const auto& [qos, request] : round)
    if (request.trace.valid()) { adopted = request.trace; break; }
  obs::ScopedSpan round_span(tracer_, "kms.service_round", adopted);
  if (round_span.recording()) {
    round_span.attr("pair", std::to_string(pair.src) + "->" +
                                std::to_string(pair.dst));
    round_span.attr("requests", std::to_string(round.size()));
    obs::ScopedSpan drr_span(tracer_, "kms.drr_select", round_span.context());
    drr_span.attr("selected", std::to_string(round.size()));
  }

  // Batch: every request this round selected rides one relay frame.
  std::vector<std::size_t> sizes;
  sizes.reserve(round.size());
  for (const auto& [qos, request] : round) sizes.push_back(request.bits);
  const auto frame = mesh_.transport_key_batch(pair.src, pair.dst, sizes,
                                               round_span.context());
  if (!frame.success) {
    ++stats_.starved_rounds;
    ++pair.consecutive_starved;
    if (round_span.recording()) round_span.attr("result", "starved");
    requeue_round(pair, round);
    if (pair.consecutive_starved >= config_.shed_after_starved_rounds)
      shed_lowest_class(pair, now);
    if (backlogged(pair)) arm_service(pair, now + config_.retry_backoff);
    return;
  }
  ++stats_.transports;
  pair.consecutive_starved = 0;
  shedding_ = false;
  grant_round(pair, round, frame, now, round_span.context());
  if (backlogged(pair)) arm_service(pair, now + config_.batch_window);
}

// ---- Observability ---------------------------------------------------------

void KeyManagementService::bind_metrics(obs::MetricsRegistry& registry,
                                        std::string prefix) {
  registry.add_collector([this, prefix = std::move(prefix)](
                             obs::MetricsRegistry::Collect& out) {
    out.counter(prefix + "_service_rounds", stats_.service_rounds);
    out.counter(prefix + "_transports", stats_.transports);
    out.counter(prefix + "_starved_rounds", stats_.starved_rounds);
    out.counter(prefix + "_shed_events", stats_.shed_events);
    out.counter(prefix + "_replenish_wakeups", stats_.replenish_wakeups);
    out.counter(prefix + "_claims_fulfilled", stats_.claims_fulfilled);
    out.counter(prefix + "_claims_expired", stats_.claims_expired);
    out.counter(prefix + "_bits_reclaimed", stats_.bits_reclaimed);
    for (std::size_t qos = 0; qos < kQosClassCount; ++qos) {
      const auto cls = static_cast<QosClass>(qos);
      const ClassStats& c = class_stats_[qos];
      const std::string base = prefix + "_" + qos_class_name(cls);
      out.counter(base + "_requests", c.requests);
      out.counter(base + "_granted", c.granted);
      out.counter(base + "_granted_within_slo", c.granted_within_slo);
      out.counter(base + "_rejected_queue_full", c.rejected_queue_full);
      out.counter(base + "_shed", c.shed);
      out.counter(base + "_departed", c.departed);
      out.counter(base + "_bits_granted", c.bits_granted);
      out.gauge(base + "_p99_grant_latency_s", p99_grant_latency_s(cls));
    }
    for (const auto& pair : pairs_)
      out.gauge(prefix + "_pair" + std::to_string(pair->src) + "_" +
                    std::to_string(pair->dst) + "_pool_bits",
                static_cast<double>(pair->src_store.available_bits()));
  });
}

// ---- Introspection ---------------------------------------------------------

std::size_t KeyManagementService::queue_depth(QosClass qos) const {
  const auto index = static_cast<std::size_t>(qos);
  std::size_t depth = 0;
  for (const auto& pair : pairs_) depth += pair->queues[index].size();
  return depth;
}

double KeyManagementService::p99_grant_latency_s(QosClass qos) const {
  return latency_.at(static_cast<std::size_t>(qos)).quantile_s(0.99);
}

double KeyManagementService::mean_grant_latency_s(QosClass qos) const {
  return latency_.at(static_cast<std::size_t>(qos)).mean_s();
}

std::vector<KeyManagementService::PairInspection>
KeyManagementService::inspect_pairs() const {
  std::vector<PairInspection> out;
  out.reserve(pairs_.size());
  for (const auto& pair : pairs_) {
    PairInspection inspection;
    inspection.src = pair->src;
    inspection.dst = pair->dst;
    inspection.src_available_bits = pair->src_store.available_bits();
    inspection.dst_available_bits = pair->dst_store.available_bits();
    inspection.src_next_key_id = pair->src_store.next_key_id();
    inspection.dst_next_key_id = pair->dst_store.next_key_id();
    inspection.src_stats = pair->src_store.stats();
    inspection.dst_stats = pair->dst_store.stats();
    inspection.claims_outstanding = pair->live_claims;
    for (std::size_t qos = 0; qos < kQosClassCount; ++qos)
      inspection.queue_depths[qos] = pair->queues[qos].size();
    out.push_back(std::move(inspection));
  }
  return out;
}

std::vector<sim::ClassSample> KeyManagementService::sample_service(
    qkd::SimTime) {
  std::vector<sim::ClassSample> samples;
  samples.reserve(kQosClassCount);
  for (std::size_t qos = 0; qos < kQosClassCount; ++qos) {
    const auto cls = static_cast<QosClass>(qos);
    const ClassStats& stats = class_stats_[qos];
    sim::ClassSample sample;
    sample.label = qos_class_name(cls);
    sample.queue_depth = queue_depth(cls);
    sample.granted = stats.granted;
    sample.rejected = stats.rejected_queue_full;
    sample.shed = stats.shed;
    sample.p99_grant_latency_s = p99_grant_latency_s(cls);
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace qkd::kms
