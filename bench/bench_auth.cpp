// E15 (Sec. 5, Appendix): Wegman-Carter authentication economics.
//
// "The drawback is that the secret key bits cannot be re-used even once on
// different data without compromising the security. Fortunately, a complete
// authenticated conversation can validate a large number of new, shared
// secret bits from QKD, and a small number of these may be used to
// replenish the pool." Measures what one batch's authenticated
// conversation costs in pad against what it replenishes, the forgery
// rejection rate, and the exhaustion DoS.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/qkd/authentication.hpp"
#include "src/qkd/engine.hpp"

namespace {

using namespace qkd::proto;
using qkd::Bytes;

void print_table() {
  qkd::bench::heading("E15", "Sec. 5: authentication pad economics");

  qkd::bench::row("pad cost per authenticated batch (one tag per direction):");
  qkd::bench::row("%10s %16s %22s", "tag bits", "forgery prob",
                  "batches per 1024 bits");
  for (unsigned tag_bits : {32u, 64u, 96u}) {
    qkd::bench::row("%10u %16.2e %22.0f", tag_bits,
                    std::pow(2.0, -static_cast<double>(tag_bits)),
                    1024.0 / (2 * tag_bits));
  }

  // Measured on a default link: the whole conversation of a batch (sift,
  // reveals, every parity question and answer, summary, hashes, PA
  // parameters) is covered by two 32-bit tags.
  QkdLinkSession session(QkdLinkConfig{}, 15);
  const std::size_t pads_before = session.alice_auth().pad_bits_available();
  const std::size_t consumed_before = session.alice_auth().pad_bits_consumed();
  std::size_t messages = 0;
  std::size_t bytes = 0;
  constexpr int kBatches = 10;
  for (int i = 0; i < kBatches; ++i) {
    const BatchResult batch = session.run_batch();
    messages += batch.control_messages;
    bytes += batch.control_bytes;
  }
  const auto& totals = session.totals();
  const double accepted = static_cast<double>(totals.accepted_batches);
  qkd::bench::row("");
  qkd::bench::row("default link, %d batches (%zu accepted): %.0f control "
                  "messages and %.0f bytes per batch",
                  kBatches, totals.accepted_batches,
                  static_cast<double>(messages) / kBatches,
                  static_cast<double>(bytes) / kBatches);
  qkd::bench::row("  pad spent per accepted batch: %.0f bits (both "
                  "directions); replenished: %zu bits",
                  static_cast<double>(session.alice_auth().pad_bits_consumed() -
                                      consumed_before) /
                      accepted,
                  session.config().auth_replenish_bits);
  qkd::bench::row("  pad level: %zu -> %zu bits; key delivered per accepted "
                  "batch: %.1f bits",
                  pads_before, session.alice_auth().pad_bits_available(),
                  static_cast<double>(totals.distilled_bits) / accepted);

  // Exhaustion DoS: seal batches until the pool dies.
  AuthenticationService::Config config;
  config.tag_bits = 64;
  qkd::Rng rng(5);
  const auto secret = rng.next_bits(
      AuthenticationService::required_secret_bits(config) + 64 * 64);
  AuthenticationService auth(config, secret, true);
  const Transcript empty = auth.open_transcript();
  std::size_t tags_until_exhaustion = 0;
  while (auth.seal(empty, tags_until_exhaustion).has_value())
    ++tags_until_exhaustion;
  qkd::bench::row("");
  qkd::bench::row("exhaustion DoS: %zu tags issued before the pool died "
                  "(then: %zu stalls, needs_replenishment=%s)",
                  tags_until_exhaustion, auth.stats().stalls,
                  auth.needs_replenishment() ? "true" : "false");

  // Forgery rejection: a guessed tag against a fresh victim's transcript.
  qkd::Rng forgery_rng(7);
  AuthenticationService::Config small;
  small.tag_bits = 16;  // measurable forgery probability
  int accepted_forgeries = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const auto fresh_secret = forgery_rng.next_bits(
        AuthenticationService::required_secret_bits(small) + 256);
    AuthenticationService victim(small, fresh_secret, false);
    Transcript transcript = victim.open_transcript();
    transcript.log(qkd::wire::PacketType::kPaParams, Bytes{0x42});
    qkd::wire::TranscriptTag forged;
    forged.tag = qkd::BitVector::from_uint64(forgery_rng.next_u64(), 16);
    accepted_forgeries += victim.check(transcript, 0, forged);
  }
  qkd::bench::row("");
  qkd::bench::row("forgery acceptance with 16-bit tags: %d / %d "
                  "(theory: %.1f expected)",
                  accepted_forgeries, trials, trials / 65536.0);
}

/// A batch-sized conversation: 800 messages, ~25 KB.
void log_conversation(Transcript& transcript) {
  const Bytes message(31, 0x5a);
  for (int i = 0; i < 800; ++i)
    transcript.log(qkd::wire::PacketType::kParityRequest, message);
}

void bm_seal_check(benchmark::State& state) {
  AuthenticationService::Config config;
  config.tag_bits = 32;
  config.max_message_bits = 1 << 17;
  qkd::Rng rng(11);
  const auto secret = rng.next_bits(
      AuthenticationService::required_secret_bits(config) + (1 << 22));
  AuthenticationService alice(config, secret, true);
  AuthenticationService bob(config, secret, false);
  std::uint64_t frame_id = 0;
  for (auto _ : state) {
    Transcript mine = alice.open_transcript();
    Transcript theirs = bob.open_transcript();
    log_conversation(mine);
    log_conversation(theirs);
    const auto tag = alice.seal(mine, frame_id);
    benchmark::DoNotOptimize(bob.check(theirs, frame_id, *tag));
    ++frame_id;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_seal_check);

void bm_poly_hash64(benchmark::State& state) {
  const Bytes message(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state)
    benchmark::DoNotOptimize(qkd::crypto::poly_hash64(0x1234567, message));
  state.SetBytesProcessed(state.range(0) * state.iterations());
}
BENCHMARK(bm_poly_hash64)->Arg(25000);

void bm_toeplitz_hash(benchmark::State& state) {
  qkd::Rng rng(13);
  const std::size_t msg_bits = static_cast<std::size_t>(state.range(0));
  const auto key = rng.next_bits(64 + msg_bits - 1);
  const auto message = rng.next_bits(msg_bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qkd::crypto::toeplitz_hash(key, message, 64));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(msg_bits / 8) *
                          state.iterations());
}
BENCHMARK(bm_toeplitz_hash)->Arg(1 << 10)->Arg(1 << 15);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
