#include "src/network/key_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/common/rng.hpp"

namespace qkd::network {
namespace {

/// Spreads link ids into independent session seeds so neighboring links
/// never share streams (and the derivation is stable regardless of how
/// many links or threads exist).
std::uint64_t link_seed(std::uint64_t master, LinkId id) {
  std::uint64_t state = master + 0x9E3779B97F4A7C15ULL * id;
  return qkd::splitmix64(state);
}

}  // namespace

LinkKeyService::LinkKeyService(const Topology& topology, Config config) {
  links_.reserve(topology.link_count());
  for (const Link& link : topology.links()) {
    qkd::proto::QkdLinkConfig proto = config.proto;
    proto.link = link.optics;
    LinkState state;
    state.session = std::make_unique<qkd::proto::QkdLinkSession>(
        proto, link_seed(config.seed, link.id));
    state.session->supply_pool().set_label("link-" + std::to_string(link.id));
    state.enabled = link.usable();
    links_.push_back(std::move(state));
  }
  // Clamp ONCE here: more lanes than links never helps.
  const std::size_t requested = config.threads != 0
                                    ? config.threads
                                    : qkd::common::WorkerPool::default_lanes();
  const std::size_t lanes = std::max<std::size_t>(
      1, std::min(requested, std::max<std::size_t>(1, links_.size())));
  pool_ = std::make_unique<qkd::common::WorkerPool>(lanes);
}

LinkKeyService::~LinkKeyService() = default;

qkd::proto::QkdLinkSession& LinkKeyService::session(LinkId id) {
  return *links_.at(id).session;
}

const qkd::proto::QkdLinkSession& LinkKeyService::session(LinkId id) const {
  return *links_.at(id).session;
}

void LinkKeyService::set_attack(LinkId id,
                                std::unique_ptr<qkd::optics::Attack> attack) {
  links_.at(id).session->set_attack(std::move(attack));
}

void LinkKeyService::set_link_enabled(LinkId id, bool enabled) {
  links_.at(id).enabled = enabled;
}

bool LinkKeyService::link_enabled(LinkId id) const {
  return links_.at(id).enabled;
}

qkd::keystore::KeySupply& LinkKeyService::supply(std::size_t id) {
  return links_.at(id).session->supply();
}

const qkd::keystore::KeySupply& LinkKeyService::supply(std::size_t id) const {
  return links_.at(id).session->supply();
}

void LinkKeyService::attach_sink(std::size_t id,
                                 qkd::keystore::KeySupply& sink) {
  links_.at(id).session->attach_sink(0, sink);
}

template <typename Fn>
void LinkKeyService::for_each_enabled_link(const Fn& work) {
  // Each parallel_for index is one whole link, so a link's batches always
  // run sequentially against its own session state (and its sinks are only
  // ever touched from the lane that claimed it). A single-lane pool visits
  // the links inline in ascending id order.
  pool_->parallel_for(links_.size(), [this, &work](std::size_t i) {
    if (links_[i].enabled) work(links_[i]);
  });
}

void LinkKeyService::run_batches(std::size_t batches_per_link) {
  for_each_enabled_link([batches_per_link](LinkState& link) {
    link.session->produce_batches(batches_per_link);
  });
}

void LinkKeyService::run_link_batch(LinkId id) {
  LinkState& link = links_.at(id);
  if (!link.enabled) return;
  link.session->produce_batches(1);
}

double LinkKeyService::link_frame_duration_s(LinkId id) const {
  const qkd::proto::QkdLinkSession& session = *links_.at(id).session;
  return session.link().frame_duration_s(session.config().frame_slots);
}

void LinkKeyService::advance(double dt_seconds) {
  if (dt_seconds <= 0.0) return;
  for_each_enabled_link(
      [dt_seconds](LinkState& link) { link.session->advance(dt_seconds); });
}

}  // namespace qkd::network
