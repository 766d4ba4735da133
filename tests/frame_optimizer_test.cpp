// Tests for the Eq. (2) and Eq. (3) frame-size optimizers.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "math/detection.h"
#include "math/frame_optimizer.h"

namespace {

using rfid::math::detection_probability;
using rfid::math::EmptySlotModel;
using rfid::math::optimize_trp_frame;
using rfid::math::optimize_utrp_frame;
using rfid::math::solve_utrp_frame;
using rfid::math::utrp_detection_probability;
using rfid::math::utrp_plan_memo_stats;
using rfid::math::UtrpPlan;
using rfid::math::UtrpPlanMemoStats;

// ----------------------------------------------------------------- Eq. 2 --

TEST(TrpOptimizer, SatisfiesConstraintAtOptimum) {
  const auto plan = optimize_trp_frame(1000, 10, 0.95);
  EXPECT_GT(plan.predicted_detection, 0.95);
  EXPECT_NEAR(plan.predicted_detection,
              detection_probability(1000, 11, plan.frame_size), 1e-12);
}

TEST(TrpOptimizer, IsMinimal) {
  for (const std::uint64_t n : {100u, 500u, 1500u}) {
    for (const std::uint64_t m : {0u, 5u, 30u}) {
      const auto plan = optimize_trp_frame(n, m, 0.95);
      ASSERT_GT(plan.frame_size, 1u);
      EXPECT_LE(detection_probability(n, m + 1, plan.frame_size - 1), 0.95)
          << "n=" << n << " m=" << m << " f=" << plan.frame_size;
    }
  }
}

TEST(TrpOptimizer, MatchesLinearScanOnSmallInputs) {
  // Ground truth by exhaustive search.
  for (const std::uint64_t n : {20u, 60u, 150u}) {
    for (const std::uint64_t m : {0u, 2u, 5u}) {
      const auto plan = optimize_trp_frame(n, m, 0.9);
      std::uint32_t truth = 0;
      for (std::uint32_t f = 1; f < 10000; ++f) {
        if (detection_probability(n, m + 1, f) > 0.9) {
          truth = f;
          break;
        }
      }
      EXPECT_EQ(plan.frame_size, truth) << "n=" << n << " m=" << m;
    }
  }
}

TEST(TrpOptimizer, FrameGrowsLinearlyWithN) {
  // Fig. 4's qualitative shape: f scales roughly linearly in n for fixed m.
  const auto f500 = optimize_trp_frame(500, 5, 0.95).frame_size;
  const auto f1000 = optimize_trp_frame(1000, 5, 0.95).frame_size;
  const auto f2000 = optimize_trp_frame(2000, 5, 0.95).frame_size;
  EXPECT_NEAR(static_cast<double>(f1000) / f500, 2.0, 0.2);
  EXPECT_NEAR(static_cast<double>(f2000) / f1000, 2.0, 0.2);
}

TEST(TrpOptimizer, FrameShrinksWithTolerance) {
  // More tolerated losses -> fewer slots needed (Fig. 4 across panels).
  const auto m5 = optimize_trp_frame(2000, 5, 0.95).frame_size;
  const auto m10 = optimize_trp_frame(2000, 10, 0.95).frame_size;
  const auto m30 = optimize_trp_frame(2000, 30, 0.95).frame_size;
  EXPECT_GT(m5, m10);
  EXPECT_GT(m10, m30);
}

TEST(TrpOptimizer, FrameGrowsWithConfidence) {
  const auto lo = optimize_trp_frame(1000, 5, 0.90).frame_size;
  const auto mid = optimize_trp_frame(1000, 5, 0.95).frame_size;
  const auto hi = optimize_trp_frame(1000, 5, 0.999).frame_size;
  EXPECT_LT(lo, mid);
  EXPECT_LT(mid, hi);
}

TEST(TrpOptimizer, StrictMonitoringSingleItem) {
  // m = 0, alpha = 0.99 — the paper's "strict monitoring" example.
  const auto plan = optimize_trp_frame(100, 0, 0.99);
  EXPECT_GT(plan.predicted_detection, 0.99);
  EXPECT_GT(plan.frame_size, 100u);  // one missing tag needs a sparse frame
}

TEST(TrpOptimizer, WorksWithExactModel) {
  const auto plan = optimize_trp_frame(300, 3, 0.95, EmptySlotModel::kExact);
  EXPECT_GT(detection_probability(300, 4, plan.frame_size, EmptySlotModel::kExact),
            0.95);
}

TEST(TrpOptimizer, RejectsBadParameters) {
  EXPECT_THROW((void)optimize_trp_frame(0, 0, 0.95), std::invalid_argument);
  EXPECT_THROW((void)optimize_trp_frame(5, 5, 0.95), std::invalid_argument);
  EXPECT_THROW((void)optimize_trp_frame(10, 1, 0.0), std::invalid_argument);
  EXPECT_THROW((void)optimize_trp_frame(10, 1, 1.0), std::invalid_argument);
}

TEST(TrpOptimizer, UnsatisfiableAlphaThrows) {
  // alpha numerically indistinguishable from 1 can exceed any frame bound.
  EXPECT_THROW((void)optimize_trp_frame(10, 0, 1.0 - 1e-16),
               std::invalid_argument);
}

// ----------------------------------------------------------------- Eq. 3 --

TEST(UtrpDetection, ZeroWhenAdversaryCoversWholeFrame) {
  // With a huge budget c, c' >= f and the attack is undetectable.
  EXPECT_DOUBLE_EQ(utrp_detection_probability(100, 5, 100000, 200), 0.0);
}

TEST(UtrpDetection, MatchesTrpWhenBudgetIsZero) {
  // c = 0 means no collaboration at all: the stolen tags contribute exactly
  // as in TRP, so Eq. 3 collapses to (a mixture dominated by) g(n, m+1, f).
  const std::uint64_t n = 500;
  const std::uint64_t m = 5;
  const std::uint64_t f = 600;
  const double eq3 = utrp_detection_probability(n, m, 0, f);
  const double trp = detection_probability(n, m + 1, f);
  EXPECT_NEAR(eq3, trp, 0.02);
}

TEST(UtrpDetection, DecreasesWithBudget) {
  const std::uint64_t n = 1000;
  const std::uint64_t m = 10;
  const std::uint64_t f = 800;
  double prev = 1.0;
  for (const std::uint64_t c : {0u, 10u, 20u, 50u, 100u}) {
    const double d = utrp_detection_probability(n, m, c, f);
    EXPECT_LE(d, prev + 1e-9) << "c=" << c;
    prev = d;
  }
}

TEST(UtrpDetection, IncreasesWithFrameSize) {
  const std::uint64_t n = 1000;
  const std::uint64_t m = 10;
  double prev = 0.0;
  for (std::uint64_t f = 700; f <= 1600; f += 100) {
    const double d = utrp_detection_probability(n, m, 20, f);
    EXPECT_GE(d, prev - 1e-9) << "f=" << f;
    prev = d;
  }
}

TEST(UtrpOptimizer, SatisfiesConstraintIncludingSlack) {
  const auto plan = optimize_utrp_frame(1000, 10, 0.95, 20);
  EXPECT_GT(plan.predicted_detection, 0.95);
  EXPECT_EQ(plan.frame_size, plan.optimal_frame + 8);
  EXPECT_LE(utrp_detection_probability(1000, 10, 20, plan.optimal_frame - 1),
            0.95);
}

TEST(UtrpOptimizer, NeverSmallerThanTrp) {
  // The adversary only gains information relative to TRP (Sec. 5.4).
  for (const std::uint64_t n : {200u, 1000u, 2000u}) {
    for (const std::uint64_t m : {5u, 20u}) {
      const auto trp = optimize_trp_frame(n, m, 0.95);
      const auto utrp = optimize_utrp_frame(n, m, 0.95, 20, 0);
      EXPECT_GE(utrp.frame_size, trp.frame_size) << "n=" << n << " m=" << m;
    }
  }
}

TEST(UtrpOptimizer, OverheadOverTrpIsModest) {
  // Fig. 6's observation: the UTRP overhead is small at c = 20.
  const auto trp = optimize_trp_frame(2000, 10, 0.95);
  const auto utrp = optimize_utrp_frame(2000, 10, 0.95, 20);
  EXPECT_LT(utrp.frame_size, trp.frame_size * 3 / 2);
}

TEST(UtrpOptimizer, FrameGrowsWithBudget) {
  const auto c10 = optimize_utrp_frame(1000, 10, 0.95, 10, 0).frame_size;
  const auto c40 = optimize_utrp_frame(1000, 10, 0.95, 40, 0).frame_size;
  const auto c100 = optimize_utrp_frame(1000, 10, 0.95, 100, 0).frame_size;
  EXPECT_LE(c10, c40);
  EXPECT_LT(c40, c100);
}

TEST(UtrpOptimizer, ExpectedCprimeMatchesTheorem3) {
  const auto plan = optimize_utrp_frame(500, 5, 0.95, 20);
  const double p_empty = rfid::math::empty_slot_probability(
      500 - 5 - 1, plan.frame_size, EmptySlotModel::kPoissonApprox);
  EXPECT_NEAR(plan.expected_cprime, 20.0 / p_empty, 1e-9);
  EXPECT_LT(plan.expected_cprime, plan.frame_size);
}

TEST(UtrpOptimizer, RejectsBadParameters) {
  EXPECT_THROW((void)optimize_utrp_frame(0, 0, 0.95, 20), std::invalid_argument);
  EXPECT_THROW((void)optimize_utrp_frame(10, 1, 1.5, 20), std::invalid_argument);
}

// ------------------------------------------------------ Eq. 3 plan memo --

// One sizing request: every input optimize_utrp_frame is keyed by.
struct Shape {
  std::uint64_t n;
  std::uint64_t m;
  double alpha;
  std::uint64_t c;
  std::uint32_t slack;
  EmptySlotModel model;
};

UtrpPlan memoized(const Shape& s) {
  return optimize_utrp_frame(s.n, s.m, s.alpha, s.c, s.slack, s.model);
}

UtrpPlan oracle(const Shape& s) {
  return solve_utrp_frame(s.n, s.m, s.alpha, s.c, s.slack, s.model);
}

bool same_bits(const UtrpPlan& a, const UtrpPlan& b) {
  return a.frame_size == b.frame_size && a.optimal_frame == b.optimal_frame &&
         std::bit_cast<std::uint64_t>(a.predicted_detection) ==
             std::bit_cast<std::uint64_t>(b.predicted_detection) &&
         std::bit_cast<std::uint64_t>(a.expected_cprime) ==
             std::bit_cast<std::uint64_t>(b.expected_cprime);
}

// A cheap shape no other test sizes: the i-th of a process-wide sequence.
Shape fresh_shape() {
  static std::uint64_t next = 0;
  const double i = static_cast<double>(++next);
  return Shape{8, 0, 0.5 + 1e-9 * i, 0, 0, EmptySlotModel::kPoissonApprox};
}

// Pushes every plan the memo holds out of it, so the next sizing of any
// earlier shape is a miss whatever other tests ran in this process.
void evict_all() {
  for (std::size_t i = 0; i < UtrpPlanMemoStats::kCapacity; ++i) {
    (void)memoized(fresh_shape());
  }
}

void expect_memo_matches_oracle(EmptySlotModel model) {
  evict_all();
  for (const std::uint64_t n : {64u, 200u, 1000u}) {
    for (const std::uint64_t m : {1u, 2u, 10u}) {
      for (const double alpha : {0.9, 0.95, 0.99}) {
        for (const std::uint64_t c : {0u, 20u, 100u}) {
          for (const std::uint32_t slack : {0u, 8u}) {
            const Shape s{n, m, alpha, c, slack, model};
            const UtrpPlan truth = oracle(s);
            const UtrpPlanMemoStats before = utrp_plan_memo_stats();
            const UtrpPlan miss = memoized(s);
            const UtrpPlanMemoStats mid = utrp_plan_memo_stats();
            const UtrpPlan hit = memoized(s);
            const UtrpPlanMemoStats after = utrp_plan_memo_stats();
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " m=" << m << " alpha=" << alpha
                         << " c=" << c << " slack=" << slack);
            EXPECT_TRUE(same_bits(miss, truth));
            EXPECT_TRUE(same_bits(hit, truth));
            EXPECT_EQ(mid.misses, before.misses + 1);
            EXPECT_EQ(mid.hits, before.hits);
            EXPECT_EQ(after.misses, mid.misses);
            EXPECT_EQ(after.hits, mid.hits + 1);
          }
        }
      }
    }
  }
}

TEST(UtrpPlanMemo, MatchesOracleBitForBitPoisson) {
  expect_memo_matches_oracle(EmptySlotModel::kPoissonApprox);
}

TEST(UtrpPlanMemo, MatchesOracleBitForBitExact) {
  expect_memo_matches_oracle(EmptySlotModel::kExact);
}

TEST(UtrpPlanMemo, InvalidInputsThrowEveryTimeAndAreNotCached) {
  const Shape invalid[] = {
      {0, 0, 0.95, 20, 8, EmptySlotModel::kPoissonApprox},   // n = 0
      {10, 10, 0.95, 20, 8, EmptySlotModel::kPoissonApprox},  // m + 1 > n
      {10, 1, 0.0, 20, 8, EmptySlotModel::kPoissonApprox},    // alpha = 0
      {10, 1, 1.0, 20, 8, EmptySlotModel::kPoissonApprox},    // alpha = 1
      {10, 1, 1.5, 20, 8, EmptySlotModel::kPoissonApprox},    // alpha > 1
      {10, 1, std::nan(""), 20, 8, EmptySlotModel::kPoissonApprox},
      // Satisfiable by no frame up to kMaxFrameSize.
      {10, 0, 1.0 - 1e-16, 20, 8, EmptySlotModel::kPoissonApprox},
  };
  for (const Shape& s : invalid) {
    for (int call = 0; call < 2; ++call) {
      const UtrpPlanMemoStats before = utrp_plan_memo_stats();
      EXPECT_THROW((void)memoized(s), std::invalid_argument)
          << "n=" << s.n << " m=" << s.m << " alpha=" << s.alpha
          << " call " << call;
      const UtrpPlanMemoStats after = utrp_plan_memo_stats();
      EXPECT_EQ(after.entries, before.entries);
      EXPECT_EQ(after.hits, before.hits);
    }
  }
}

TEST(UtrpPlanMemo, AlphasOneUlpApartAreSeparateEntries) {
  evict_all();
  const Shape lo{200, 2, 0.95, 20, 8, EmptySlotModel::kPoissonApprox};
  Shape hi = lo;
  hi.alpha = std::nextafter(lo.alpha, 1.0);
  ASSERT_NE(hi.alpha, lo.alpha);

  const std::uint64_t misses = utrp_plan_memo_stats().misses;
  (void)memoized(lo);
  (void)memoized(hi);
  EXPECT_EQ(utrp_plan_memo_stats().misses, misses + 2);
  const std::uint64_t hits = utrp_plan_memo_stats().hits;
  EXPECT_TRUE(same_bits(memoized(lo), oracle(lo)));
  EXPECT_TRUE(same_bits(memoized(hi), oracle(hi)));
  EXPECT_EQ(utrp_plan_memo_stats().hits, hits + 2);
  EXPECT_EQ(utrp_plan_memo_stats().misses, misses + 2);
}

TEST(UtrpPlanMemo, ConcurrentCallersAllGetTheOraclePlan) {
  constexpr std::size_t kThreads = 8;
  constexpr int kPasses = 4;
  // Shapes every thread sizes, plus two of each thread's own.
  std::vector<Shape> shared;
  for (const std::uint64_t n : {64u, 200u}) {
    for (const std::uint64_t m : {1u, 2u}) {
      shared.push_back({n, m, 0.97, 20, 8, EmptySlotModel::kPoissonApprox});
    }
  }
  std::vector<std::vector<Shape>> own(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    own[t] = {fresh_shape(), fresh_shape()};
  }
  std::vector<UtrpPlan> shared_truth;
  for (const Shape& s : shared) shared_truth.push_back(oracle(s));
  std::vector<std::vector<UtrpPlan>> own_truth(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (const Shape& s : own[t]) own_truth[t].push_back(oracle(s));
  }

  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < kPasses; ++pass) {
        for (std::size_t i = 0; i < shared.size(); ++i) {
          // Stagger the order so threads miss and hit the same keys at once.
          const std::size_t k = (i + t) % shared.size();
          if (!same_bits(memoized(shared[k]), shared_truth[k])) ++wrong;
        }
        for (std::size_t i = 0; i < own[t].size(); ++i) {
          if (!same_bits(memoized(own[t][i]), own_truth[t][i])) ++wrong;
        }
        (void)utrp_plan_memo_stats();  // counter reads race the writes too
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_LE(utrp_plan_memo_stats().entries, UtrpPlanMemoStats::kCapacity);
}

TEST(UtrpPlanMemo, StaysWithinCapacityAndCorrectPastIt) {
  const Shape first{200, 1, 0.96, 20, 8, EmptySlotModel::kPoissonApprox};
  const UtrpPlan truth = oracle(first);
  EXPECT_TRUE(same_bits(memoized(first), truth));

  std::vector<Shape> inserted;
  for (std::size_t i = 0; i < UtrpPlanMemoStats::kCapacity + 100; ++i) {
    inserted.push_back(fresh_shape());
    (void)memoized(inserted.back());
    ASSERT_LE(utrp_plan_memo_stats().entries, UtrpPlanMemoStats::kCapacity);
  }
  EXPECT_EQ(utrp_plan_memo_stats().entries, UtrpPlanMemoStats::kCapacity);

  // Evicted or held, every shape still sizes to the oracle's plan.
  EXPECT_TRUE(same_bits(memoized(first), truth));
  for (std::size_t i = 0; i < inserted.size(); i += 97) {
    EXPECT_TRUE(same_bits(memoized(inserted[i]), oracle(inserted[i])));
  }
  EXPECT_LE(utrp_plan_memo_stats().entries, UtrpPlanMemoStats::kCapacity);
}

// Parameterized sweep over the paper's full evaluation grid: both optimizers
// must produce frames satisfying their constraints for every (n, m) pair of
// Figs. 4–7.
class PaperGrid
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {};

TEST_P(PaperGrid, BothOptimizersSatisfyConstraints) {
  const auto [n, m] = GetParam();
  const double alpha = 0.95;
  const auto trp = optimize_trp_frame(n, m, alpha);
  EXPECT_GT(trp.predicted_detection, alpha);
  const auto utrp = optimize_utrp_frame(n, m, alpha, 20);
  EXPECT_GT(utrp.predicted_detection, alpha);
  EXPECT_GE(utrp.frame_size, trp.frame_size);
}

INSTANTIATE_TEST_SUITE_P(
    EvaluationSection, PaperGrid,
    ::testing::Combine(::testing::Values(100u, 400u, 800u, 1200u, 1600u, 2000u),
                       ::testing::Values(5u, 10u, 20u, 30u)));

}  // namespace
