// E9 (Appendix, "Sifting / Run-Length Encoding"): "Encode the sifting
// messages ... so that runs of identical values (and in particular of 'no
// detection' values) are compressed to take very little space."
//
// Measures the run-length form of the detected-slot bitmap
// (wire::put_bits_sparse: each click coded as the run of no-detection slots
// before it) against the raw bitmap across detection probabilities — at
// the paper's ~0.3% detection probability the encoding wins by ~25x — and
// the form SiftAnnounce actually sends (wire::put_bits_compact: a form
// byte, then the smaller of the two, so dense clicks cost the raw bitmap
// plus its header instead of up to four times it). Times the run-length
// encode and strict decode on the paper's bitmap.
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/wire/packets.hpp"

namespace {

qkd::BitVector detection_bitmap(std::size_t slots, double p_detect,
                                std::uint64_t seed) {
  qkd::Rng rng(seed);
  qkd::BitVector bits(slots);
  for (std::size_t i = 0; i < slots; ++i)
    if (rng.next_bool(p_detect)) bits.set(i, true);
  return bits;
}

qkd::Bytes encode(const qkd::BitVector& bits) {
  qkd::Bytes out;
  qkd::wire::put_bits_sparse(out, bits);
  return out;
}

void print_table() {
  qkd::bench::heading("E9", "Appendix: run-length encoding of sift messages");
  const std::size_t slots = 1 << 20;
  qkd::bench::row("frame: %zu slots (1 s at the 1 MHz trigger)", slots);
  qkd::bench::row("%12s %14s %14s %15s %10s", "P(detect)", "raw (bytes)",
                  "sparse (bytes)", "compact (bytes)", "ratio");
  for (double p : {0.0005, 0.003, 0.01, 0.05, 0.25, 0.5}) {
    const auto bits = detection_bitmap(slots, p, 17);
    const std::size_t raw = (slots + 7) / 8;
    const std::size_t sparse = encode(bits).size();
    qkd::Bytes compact;
    qkd::wire::put_bits_compact(compact, bits);
    qkd::bench::row("%12.4f %14zu %14zu %15zu %9.1fx", p, raw, sparse,
                    compact.size(),
                    static_cast<double>(raw) /
                        static_cast<double>(compact.size()));
  }
  qkd::bench::row("(0.003 is the paper link's detection probability: runs of"
                  " 'no detection' dominate, as the Appendix predicts;");
  qkd::bench::row(" compact = the sift announcement's bitmap: one form byte"
                  " over the smaller form; ratio = raw / compact)");
}

void bm_sparse_encode(benchmark::State& state) {
  const auto bits = detection_bitmap(1 << 20, 0.003, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode(bits));
  }
  state.SetItemsProcessed((1 << 20) * state.iterations());
}
BENCHMARK(bm_sparse_encode);

void bm_sparse_decode(benchmark::State& state) {
  const auto encoded = encode(detection_bitmap(1 << 20, 0.003, 3));
  for (auto _ : state) {
    qkd::ByteReader reader(encoded);
    benchmark::DoNotOptimize(qkd::wire::get_bits_sparse(reader));
  }
  state.SetItemsProcessed((1 << 20) * state.iterations());
}
BENCHMARK(bm_sparse_decode);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
