// Frame-size optimizers: Eq. (2) for TRP and Eq. (3) for UTRP.
//
// TRP (Sec. 4.3): the scanning time is proportional to the frame size, so
// the server picks f = min { f : g(n, m+1, f) > α } — by Lemma 1 / Theorem 2
// the x = m+1 case is the adversary's best (hardest-to-detect) choice.
//
// UTRP (Sec. 5.4): a dishonest reader pair that can afford c inter-reader
// communications produces a bitstring whose first c' (expected) slots are
// correct; only tags replying after slot c' help detection. With
//   c'       = c · e^{(n−m−1)/f}                       (Theorem 3)
//   x ~ B(m+1,    1 − c'/f)   missing tags that still show   (Theorem 4)
//   y ~ B(n−m−1,  1 − c'/f)   present tags that still show   (Theorem 5)
// the frame must satisfy
//   Σ_i Σ_j P(x=i) P(y=j) · g(i+j, i, f−c')  >  α.     (Eq. 3)
// The paper adds 5–10 slots of slack because the expected-value derivation
// of c' is slightly optimistic; `slack_slots` reproduces that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "math/detection.h"

namespace rfid::math {

/// Result of the TRP optimization (Eq. 2).
struct TrpPlan {
  std::uint32_t frame_size = 0;      // minimal f with g(n, m+1, f) > alpha
  double predicted_detection = 0.0;  // g at that f
};

/// Result of the UTRP optimization (Eq. 3).
struct UtrpPlan {
  std::uint32_t frame_size = 0;      // minimal satisfying f, plus slack
  std::uint32_t optimal_frame = 0;   // minimal satisfying f, before slack
  double predicted_detection = 0.0;  // Eq. 3 left-hand side at frame_size
  double expected_cprime = 0.0;      // Theorem 3's c' at frame_size
};

/// Upper bound for the frame-size search; beyond this the parameters are
/// unsatisfiable in practice (e.g. alpha so close to 1 that no frame works
/// within memory budgets) and the optimizers throw std::invalid_argument.
inline constexpr std::uint32_t kMaxFrameSize = 1u << 24;

/// Eq. (2): minimal f such that g(n, m+1, f) > alpha.
/// Requires 1 <= m+1 <= n and alpha in (0, 1).
[[nodiscard]] TrpPlan optimize_trp_frame(
    std::uint64_t n, std::uint64_t m, double alpha,
    EmptySlotModel model = EmptySlotModel::kPoissonApprox);

/// Evaluates the left-hand side of Eq. (3) for a candidate frame size.
/// Returns 0 when c' >= f (the adversary can coordinate the whole frame).
[[nodiscard]] double utrp_detection_probability(
    std::uint64_t n, std::uint64_t m, std::uint64_t c, std::uint64_t f,
    EmptySlotModel model = EmptySlotModel::kPoissonApprox);

/// Eq. (3): minimal f satisfying the accuracy constraint against a
/// two-reader adversary with communication budget c, plus `slack_slots`.
///
/// The plan is a pure function of its arguments, so it is memoized
/// process-wide, keyed by every argument (alpha by bit pattern): each
/// (n, m, alpha, c, slack, model) is solved once per process, however many
/// runs, epochs or servers size it. Safe to call from any thread; a cold
/// solve runs outside the memo's lock. Arguments are checked on every call
/// and a solve that throws is not cached. The memo holds at most
/// UtrpPlanMemoStats::kCapacity plans, evicting the oldest.
[[nodiscard]] UtrpPlan optimize_utrp_frame(
    std::uint64_t n, std::uint64_t m, double alpha, std::uint64_t c,
    std::uint32_t slack_slots = 8,
    EmptySlotModel model = EmptySlotModel::kPoissonApprox);

/// The uncached Eq. (3) solve behind optimize_utrp_frame, bit-identical to
/// it. Only the tests (as the memo's oracle) and the micro-benchmark (as the
/// cold-solve timing target) call it; everything else sizes through
/// optimize_utrp_frame.
[[nodiscard]] UtrpPlan solve_utrp_frame(
    std::uint64_t n, std::uint64_t m, double alpha, std::uint64_t c,
    std::uint32_t slack_slots = 8,
    EmptySlotModel model = EmptySlotModel::kPoissonApprox);

/// Counters of optimize_utrp_frame's process-wide memo.
struct UtrpPlanMemoStats {
  static constexpr std::size_t kCapacity = 1024;  // most plans ever held
  std::uint64_t hits = 0;     // calls answered from the memo
  std::uint64_t misses = 0;   // calls that ran a cold solve
  std::size_t entries = 0;    // plans held now, <= kCapacity
};
[[nodiscard]] UtrpPlanMemoStats utrp_plan_memo_stats();

/// Finds the minimal f in [1, kMaxFrameSize] with pred(f) true, assuming
/// pred is (effectively) monotone nondecreasing in f: exponential search for
/// a bracket, binary search inside it, then a downward walk to absorb any
/// residual non-monotonic wobble near the boundary. Shared by every frame
/// optimizer (Eq. 2, Eq. 3, and the fused generalization).
template <typename Pred>
std::uint32_t minimal_satisfying_frame(Pred&& pred, std::uint32_t start_hint) {
  std::uint32_t hi = start_hint == 0 ? 1 : start_hint;
  while (!pred(hi)) {
    if (hi >= kMaxFrameSize) {
      throw std::invalid_argument(
          "frame optimization: no frame size up to 2^24 satisfies the "
          "accuracy constraint; relax alpha or m");
    }
    hi = hi > kMaxFrameSize / 2 ? kMaxFrameSize : hi * 2;
  }
  // Establish pred(lo) == false. If the hint already satisfied pred, keep
  // halving so the binary search has a genuine bracket.
  std::uint32_t lo = hi / 2;
  while (lo >= 1 && pred(lo)) {
    hi = lo;
    lo /= 2;
  }
  while (lo + 1 < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  while (hi > 1 && pred(hi - 1)) --hi;
  return hi;
}

}  // namespace rfid::math
