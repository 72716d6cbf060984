#include "src/optics/link.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/optics/interference.hpp"

namespace qkd::optics {

double LinkParams::transmittance() const {
  const double total_db = attenuation_db_per_km * fiber_km + insertion_loss_db;
  return std::pow(10.0, -total_db / 10.0);
}

WeakCoherentLink::WeakCoherentLink(LinkParams params, std::uint64_t seed)
    : params_(params), rng_(seed) {
  if (params_.mean_photon_number < 0.0)
    throw std::invalid_argument("WeakCoherentLink: negative photon number");
  if (params_.detector_efficiency < 0.0 || params_.detector_efficiency > 1.0)
    throw std::invalid_argument("WeakCoherentLink: efficiency not in [0,1]");
  if (params_.interferometer_visibility < 0.0 ||
      params_.interferometer_visibility > 1.0)
    throw std::invalid_argument("WeakCoherentLink: visibility not in [0,1]");
}

FrameResult WeakCoherentLink::run_frame(std::size_t n_slots, Attack* attack) {
  FrameResult frame;
  frame.alice.bases.resize(n_slots);
  frame.alice.values.resize(n_slots);
  frame.alice.photon_counts.resize(n_slots);
  frame.bob.detected.resize(n_slots);
  frame.bob.bases.resize(n_slots);
  frame.bob.bits.resize(n_slots);
  frame.eve.resize(n_slots);

  // Everything a slot needs that does not depend on its draws.
  const double capture =
      params_.central_peak_fraction * params_.detector_efficiency;
  // Per-photon detection probability, indexed by pulse.lossless_delivery:
  // over the lossy fiber, or carried losslessly by Eve.
  const double p_detect[2] = {params_.transmittance() * capture, capture};
  // p_route_to_d1 for every (Alice quarter turn, Bob quarter turn).
  double p_d1[4][2];
  for (unsigned alice_q = 0; alice_q < 4; ++alice_q)
    for (unsigned bob_q = 0; bob_q < 2; ++bob_q)
      p_d1[alice_q][bob_q] = p_route_to_d1(
          alice_q, bob_q, params_.interferometer_visibility);
  const PoissonDraw emit(params_.mean_photon_number);
  const double dark = params_.dark_count_prob;
  const double misframe = params_.misframe_prob;
  const double afterpulse = params_.afterpulse_prob;

  // The slots draw from a local copy of the generator, so no store into the
  // frame can alias its state; an attack draws from rng_ itself, synced
  // around the call. Either way it is one stream in one order (see the
  // draw-order contract in link.hpp).
  qkd::Rng rng = rng_;
  bool pending[2] = {afterpulse_pending_[0], afterpulse_pending_[1]};
  std::uint8_t* photon_counts = frame.alice.photon_counts.data();

  // Slots run in groups of 64: each group's bits collect in local words
  // and are stored once per BitVector.
  for (std::size_t word = 0; word * 64 < n_slots; ++word) {
    const std::size_t first = word * 64;
    const std::size_t end = std::min(n_slots, first + 64);
    std::uint64_t alice_bases = 0, alice_values = 0, bob_bases = 0;
    std::uint64_t detected = 0, bob_bits = 0;
    for (std::size_t slot = first; slot < end; ++slot) {
      const unsigned offset = static_cast<unsigned>(slot - first);

      // --- Transmitter suite: random (basis, value), Poisson photon number.
      const bool alice_basis_bit = rng.next_bool();
      const bool alice_value = rng.next_bool();
      const unsigned emitted = emit(rng);
      alice_bases |= std::uint64_t{alice_basis_bit} << offset;
      alice_values |= std::uint64_t{alice_value} << offset;
      photon_counts[slot] =
          static_cast<std::uint8_t>(emitted > 255 ? 255 : emitted);

      InFlightPulse pulse{basis_from_bit(alice_basis_bit), alice_value,
                          emitted, /*lossless_delivery=*/false};
      if (attack != nullptr) {
        rng_ = rng;
        attack->apply(slot, pulse, frame.eve, rng_);
        rng = rng_;
      }

      // --- Receiver: Bob modulates his interferometer every gate.
      const bool bob_basis_bit = rng.next_bool();
      bob_bases |= std::uint64_t{bob_basis_bit} << offset;

      // Bright-pulse framing failure: the gate never opens for this slot.
      if (misframe > 0.0 && rng.next_bool(misframe)) {
        ++stats_.misframed_slots;
        pending[0] = pending[1] = false;
        continue;
      }

      // --- Fiber + receiver optics, photon by photon.
      const double p_photon = p_detect[pulse.lossless_delivery ? 1 : 0];
      const double p_to_d1 =
          p_d1[alice_phase_quarter(pulse.basis, pulse.value)]
              [bob_phase_quarter(basis_from_bit(bob_basis_bit))];
      bool click[2] = {false, false};
      bool any_signal = false;
      for (unsigned photon = 0; photon < pulse.photons; ++photon) {
        if (!rng.next_bool(p_photon)) continue;
        const bool to_d1 = rng.next_bool(p_to_d1);
        click[to_d1 ? 1 : 0] = true;
        any_signal = true;
      }

      // --- Dark counts: one uniform draw covers the common no-signal case.
      if (!click[0] && !click[1]) {
        const double u = rng.next_double();
        if (u < dark)
          click[0] = true;
        else if (u < 2 * dark)
          click[1] = true;
      } else {
        if (rng.next_bool(dark)) click[0] = true;
        if (rng.next_bool(dark)) click[1] = true;
      }

      // --- Afterpulsing from the previous gate.
      if (afterpulse > 0.0) {
        for (int d = 0; d < 2; ++d) {
          if (pending[d] && rng.next_bool(afterpulse)) click[d] = true;
        }
      }
      pending[0] = click[0];
      pending[1] = click[1];

      // --- Click resolution: exactly one APD firing yields a usable bit.
      if (click[0] && click[1]) {
        ++stats_.double_clicks;
        ++frame.bob.double_clicks;
        continue;
      }
      if (!click[0] && !click[1]) continue;

      detected |= std::uint64_t{1} << offset;
      bob_bits |= std::uint64_t{click[1]} << offset;
      ++stats_.detections;
      if (any_signal) {
        ++stats_.signal_clicks;
        ++frame.bob.signal_clicks;
      } else {
        ++stats_.dark_only_clicks;
        ++frame.bob.dark_only_clicks;
      }
    }
    frame.alice.bases.words()[word] = alice_bases;
    frame.alice.values.words()[word] = alice_values;
    frame.bob.bases.words()[word] = bob_bases;
    frame.bob.detected.words()[word] = detected;
    frame.bob.bits.words()[word] = bob_bits;
  }
  rng_ = rng;
  afterpulse_pending_[0] = pending[0];
  afterpulse_pending_[1] = pending[1];
  stats_.pulses += n_slots;

  if (attack != nullptr) attack->resolve_bases(frame.alice.bases, frame.eve);
  return frame;
}

}  // namespace qkd::optics
