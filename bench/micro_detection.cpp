// Microbenchmarks for the analytical kernel: g(n, x, f) evaluation and the
// Eq. (2)/(3) optimizers the server runs at enrollment time.
#include <benchmark/benchmark.h>

#include "math/detection.h"
#include "math/frame_optimizer.h"

namespace {

void BM_DetectionProbability(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t x = 11;
  const std::uint64_t f = n + n / 14;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rfid::math::detection_probability(n, x, f));
  }
}

void BM_TrpOptimizer(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rfid::math::optimize_trp_frame(n, 10, 0.95));
  }
}

void BM_UtrpEq3Evaluation(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t f = n + n / 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rfid::math::utrp_detection_probability(n, 10, 20, f));
  }
}

// A cold Eq. (3) solve: the uncached solver, since optimize_utrp_frame
// would answer every iteration after the first from its memo.
void BM_UtrpOptimizer(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rfid::math::solve_utrp_frame(n, 10, 0.95, 20));
  }
}

// What every sizing after the first costs: a memo lookup.
void BM_UtrpOptimizerMemoHit(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  (void)rfid::math::optimize_utrp_frame(n, 10, 0.95, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rfid::math::optimize_utrp_frame(n, 10, 0.95, 20));
  }
}

}  // namespace

BENCHMARK(BM_DetectionProbability)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_TrpOptimizer)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_UtrpEq3Evaluation)->Arg(100)->Arg(1000);
BENCHMARK(BM_UtrpOptimizer)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UtrpOptimizerMemoHit)->Arg(100)->Arg(1000);
