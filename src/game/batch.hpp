// Structure-of-arrays batch fitness kernels (DESIGN.md §12).
//
// The fitness hot path evaluates many strategy pairs with identical control
// flow; this module restructures the two dominant per-pair kernels so a
// whole batch runs through one tight loop:
//
//  * Mem1Batch + expected_totals_mem1 — the batch twin of
//    markov::expected_game_mem1. The memory-one Markov propagation is four
//    multiply-accumulate chains over the outcome distribution {CC, CD, DC,
//    DD}; laid out as structure-of-arrays across pairs it runs 4 pairs per
//    AVX2 register (game/batch_avx2.cpp, runtime-dispatched via
//    game/simd.hpp with a portable scalar fallback). Lane arithmetic is
//    strictly vertical: a pair's result does not depend on its lane
//    position or the batch size, so a batch of one equals a lane of eight
//    bitwise, and in-process bitwise invariants (dedup on/off, serial vs
//    threaded) survive batching. The scalar fallback replicates
//    markov::finite_totals_mem1 operation-for-operation, so scalar builds
//    are bit-identical to the pre-batch engine; the AVX2 kernel agrees with
//    the scalar reference to 1e-12 relative (FMA rounding).
//
//  * exact_pure_game_fast / run_pure_game — zero-allocation bit-packed
//    walkers over the deterministic joint trajectory of two pure
//    strategies. The next move is a branchless word-indexed bit read of the
//    packed strategy table over the packed memory-n state (no Move enum
//    round-trips, no payoff matrix branch); per-thread scratch replaces the
//    five vector allocations markov::exact_pure_game pays per call.
//    exact_pure_game_fast is bitwise identical to markov::exact_pure_game
//    (same prefix-sum + closed-form arithmetic); run_pure_game is bitwise
//    identical to the IpdEngine round loop — it takes the cycle
//    closed-form shortcut only when every payoff entry is integral (then
//    every partial sum is an exactly-represented integer, so the closed
//    form reproduces the loop's sum bit-for-bit) and otherwise replays all
//    rounds through the packed walker, accumulating in loop order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "game/ipd.hpp"
#include "game/payoff.hpp"
#include "game/strategy.hpp"

namespace egt::game::batch {

/// SoA batch of memory-one pairs prepared for the lane kernel: for each
/// pair, the outcome-conditioned cooperation probabilities of both sides
/// with execution noise already applied and B's perspective already
/// swapped — exactly the markov::OutcomeChain precomputation, transposed
/// across pairs.
class Mem1Batch {
 public:
  void clear() noexcept {
    for (auto& v : pa_) v.clear();
    for (auto& v : pb_) v.clear();
  }
  std::size_t size() const noexcept { return pa_[0].size(); }
  bool empty() const noexcept { return pa_[0].empty(); }

  /// Append pair (a, b); both must be memory-one (pure or mixed). Noise
  /// and B's perspective swap are applied here.
  void push_pair(const Strategy& a, const Strategy& b, double eps);

  /// pa(o)[k] = P(pair k's A cooperates | previous outcome o).
  std::span<const double> pa(int o) const noexcept { return pa_[o]; }
  std::span<const double> pb(int o) const noexcept { return pb_[o]; }

 private:
  std::vector<double> pa_[4];
  std::vector<double> pb_[4];
};

/// Exact expected totals of one finite memory-one game (the four fields of
/// markov::FiniteTotals, per pair).
struct BatchTotals {
  double payoff_a = 0.0;
  double payoff_b = 0.0;
  double coop_a = 0.0;
  double coop_b = 0.0;
};

/// Batch twin of markov::expected_game_mem1's totals: out[k] receives pair
/// k's expected totals over `rounds` rounds from the all-cooperate start.
/// Dispatches to the AVX2 lane kernel or the scalar fallback via
/// simd::active_kernel(). `out.size() >= batch.size()`.
void expected_totals_mem1(const Mem1Batch& batch, const PayoffMatrix& payoff,
                          std::uint32_t rounds, std::span<BatchTotals> out);

/// Convenience: only the row player's expected total payoff (what the
/// fitness tier consumes).
void expected_payoff_mem1(const Mem1Batch& batch, const PayoffMatrix& payoff,
                          std::uint32_t rounds, std::span<double> out);

/// Zero-allocation twin of markov::exact_pure_game: exact finite-round
/// totals for two deterministic pure strategies (zero noise) of equal
/// memory depth via cycle detection, bitwise identical to the original.
GameResult exact_pure_game_fast(const PureStrategy& a, const PureStrategy& b,
                                const PayoffMatrix& payoff,
                                std::uint32_t rounds);

/// Zero-allocation twin of the IpdEngine round loop for two pure
/// strategies with zero noise under LookupMode::Indexed: bitwise identical
/// to IpdEngine::play for those parameters (and consumes no RNG, like the
/// loop). Takes the cycle closed-form shortcut only when the payoff matrix
/// is integer-exact over `rounds` rounds.
GameResult run_pure_game(const PureStrategy& a, const PureStrategy& b,
                         const PayoffMatrix& payoff, std::uint32_t rounds);

/// True when every payoff entry is an integer small enough that any
/// `rounds`-length partial sum is exactly representable in a double — the
/// gate under which the cycle closed form reproduces the sequential round
/// loop bit-for-bit.
bool integer_exact_payoff(const PayoffMatrix& payoff,
                          std::uint32_t rounds) noexcept;

// Internal: the AVX2 lane kernel (only defined when the AVX2 TU is
// compiled in; callers go through expected_totals_mem1's dispatch).
void expected_totals_mem1_avx2(const Mem1Batch& batch,
                               const PayoffMatrix& payoff,
                               std::uint32_t rounds, BatchTotals* out);

// Internal: the portable scalar fallback, exposed for kernel
// cross-validation (simcheck --kernels).
void expected_totals_mem1_scalar(const Mem1Batch& batch,
                                 const PayoffMatrix& payoff,
                                 std::uint32_t rounds, BatchTotals* out);

}  // namespace egt::game::batch
