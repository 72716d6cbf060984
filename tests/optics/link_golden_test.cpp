// Bit-identity pins for WeakCoherentLink::run_frame.
//
// The order in which run_frame draws from its generator is part of the
// link's contract: every frame, sifted key, abort and benchmark failure
// count downstream is a function of it. Each case below hashes everything
// a frame produces (all BitVectors, photon_counts, the click counters, the
// eavesdropper's record) plus the link's cumulative Stats into one 64-bit
// fingerprint. A faster loop must reproduce these values exactly; a change
// that moves any draw fails here, not as a shifted statistic elsewhere.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/optics/attacks.hpp"
#include "src/optics/link.hpp"

namespace qkd::optics {
namespace {

class Fingerprint {
 public:
  void mix(std::uint64_t x) {
    h_ = (h_ ^ x) * 0x100000001b3ULL;
    h_ ^= h_ >> 29;
  }
  void mix(const qkd::BitVector& bits) {
    mix(bits.size());
    for (std::uint64_t word : bits.words()) mix(word);
  }
  void mix(const FrameResult& frame) {
    mix(frame.alice.bases);
    mix(frame.alice.values);
    mix(frame.alice.photon_counts.size());
    for (std::uint8_t count : frame.alice.photon_counts) mix(count);
    mix(frame.bob.detected);
    mix(frame.bob.bases);
    mix(frame.bob.bits);
    mix(frame.bob.double_clicks);
    mix(frame.bob.dark_only_clicks);
    mix(frame.bob.signal_clicks);
    mix(frame.eve.attacked);
    mix(frame.eve.known);
    mix(frame.eve.photons_captured);
  }
  void mix(const WeakCoherentLink::Stats& stats) {
    mix(stats.pulses);
    mix(stats.detections);
    mix(stats.double_clicks);
    mix(stats.dark_only_clicks);
    mix(stats.signal_clicks);
    mix(stats.misframed_slots);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct GoldenCase {
  std::string name;
  LinkParams params;
  std::uint64_t seed;
  std::size_t slots;
  std::size_t frames;  // consecutive frames on one link
  std::function<std::unique_ptr<Attack>()> attack;
  std::uint64_t fingerprint;  // recorded from the per-slot reference loop
  std::uint64_t detections;   // link Stats after the last frame
};

struct Observed {
  std::uint64_t fingerprint;
  std::uint64_t detections;
};

Observed observe(const GoldenCase& c) {
  WeakCoherentLink link(c.params, c.seed);
  const std::unique_ptr<Attack> attack = c.attack ? c.attack() : nullptr;
  Fingerprint fp;
  for (std::size_t f = 0; f < c.frames; ++f)
    fp.mix(link.run_frame(c.slots, attack.get()));
  fp.mix(link.stats());
  return {fp.value(), link.stats().detections};
}

LinkParams noisy() {
  LinkParams p;
  p.afterpulse_prob = 0.05;
  p.misframe_prob = 0.01;
  p.dark_count_prob = 1e-3;
  return p;
}

LinkParams with_mu(double mu) {
  LinkParams p;
  p.mean_photon_number = mu;
  return p;
}

LinkParams dark_only() {
  LinkParams p = with_mu(0.0);  // no photon is drawn; only dark counts click
  p.dark_count_prob = 1e-3;
  return p;
}

LinkParams bright_afterpulsing() {
  // About one gate in four clicks, and half of those afterpulse, so the
  // pending state is live at most frame boundaries.
  LinkParams p = with_mu(10.0);
  p.afterpulse_prob = 0.5;
  return p;
}

LinkParams perfect_visibility() {
  LinkParams p;
  p.interferometer_visibility = 1.0;  // p_route_to_d1 hits 0 and 1: no draw
  return p;
}

std::vector<GoldenCase> cases() {
  const auto composite = [] {
    auto attack = std::make_unique<CompositeAttack>();
    attack->add(std::make_unique<PhotonNumberSplittingAttack>());
    attack->add(std::make_unique<InterceptResendAttack>(0.3));
    attack->add(std::make_unique<BeamsplitAttack>(0.2));
    return std::unique_ptr<Attack>(std::move(attack));
  };
  // {name, params, seed, slots, frames, attack, fingerprint, detections}
  return {
      {"default_seed1", {}, 1, 65536, 1, nullptr, 0xc0ff6f2e7a4f0b04ULL, 204},
      {"default_seed2", {}, 2, 65536, 1, nullptr, 0xc46a91dca4e3f2d9ULL, 182},
      {"default_seed3", {}, 3, 65536, 1, nullptr, 0x4db495ee05ae6a7eULL, 201},
      {"ragged_slot_count", {}, 4, 100003, 1, nullptr, 0x00427409f1ef5514ULL,
       328},
      {"afterpulse_misframe_dark", noisy(), 5, 50001, 1, nullptr,
       0x43967116f075b351ULL, 285},
      {"afterpulse_carries_over", bright_afterpulsing(), 6, 61, 5, nullptr,
       0xe4f1b08c43209c40ULL, 100},
      {"mu_zero", dark_only(), 7, 20000, 1, nullptr, 0x70bdac8361b81ee1ULL, 39},
      {"mu_normal_branch", with_mu(35.0), 8, 3000, 1, nullptr,
       0xa88cc80ea07541e5ULL, 1665},
      {"perfect_visibility", perfect_visibility(), 9, 40000, 1, nullptr,
       0x0f2d3125a648437cULL, 121},
      {"intercept_resend", {}, 10, 40000, 1,
       [] { return std::make_unique<InterceptResendAttack>(0.5); },
       0x6cdd202e8a9aeedbULL, 112},
      {"beamsplit", with_mu(0.5), 11, 40000, 1,
       [] { return std::make_unique<BeamsplitAttack>(0.3); },
       0x9dd3609d7a82015cULL, 475},
      {"pns", with_mu(0.5), 12, 40000, 1,
       [] { return std::make_unique<PhotonNumberSplittingAttack>(); },
       0x532fbd8aaf167554ULL, 683},
      {"channel_cut", noisy(), 13, 40000, 1,
       [] { return std::make_unique<ChannelCutAttack>(); },
       0x5d14e3a74438198fULL, 74},
      {"composite", with_mu(0.5), 14, 40001, 2, composite,
       0xc08490f3d217c043ULL, 1137},
  };
}

TEST(LinkGolden, EveryFrameMatchesTheRecordedDrawStream) {
  for (const GoldenCase& c : cases()) {
    SCOPED_TRACE(c.name);
    const Observed got = observe(c);
    EXPECT_EQ(got.detections, c.detections);
    EXPECT_EQ(got.fingerprint, c.fingerprint);
  }
}

}  // namespace
}  // namespace qkd::optics
