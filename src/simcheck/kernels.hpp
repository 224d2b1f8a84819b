// Kernel cross-validation (DESIGN.md §12 tolerance policy): fuzz the batch
// fitness kernels against their references.
//
//  * Mem1 batch: random memory-one pair batches (mixed + pure, with and
//    without noise, remainder-lane sizes included) — the AVX2 lane kernel
//    must agree with the scalar reference to 1e-12 relative, and the
//    scalar reference must be bit-identical to markov::expected_game_mem1.
//  * Pure walker: random deterministic pure pairs across memory depths —
//    batch::exact_pure_game_fast must be bit-identical to
//    markov::exact_pure_game, and batch::run_pure_game to the legacy
//    round loop.
//  * Report: random populations with repeated and singleton classes
//    (mixed memory-one with and without noise, pure memory-one and
//    memory-two) — the class-deduplicated, batched
//    analysis::expected_play_cooperation must agree with the per-SSet-pair
//    markov oracle (per_pair_report) to 1e-12 relative on every output.
//
// Exposed as `simcheck --kernels`; runs whatever kernels this build/CPU
// provides (the AVX2 half is skipped, not failed, on scalar-only builds).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/coop.hpp"
#include "game/ipd.hpp"
#include "pop/population.hpp"

namespace egt::simcheck {

struct KernelCheck {
  std::string name;
  bool passed = false;
  std::uint64_t cases = 0;      ///< pairs compared
  double worst_rel = 0.0;       ///< worst relative error observed
  std::string detail;           ///< first failure, or summary
};

struct KernelReport {
  std::vector<KernelCheck> checks;
  bool avx2_available = false;  ///< compiled in and CPU-supported
  bool passed() const noexcept {
    for (const auto& c : checks) {
      if (!c.passed) return false;
    }
    return true;
  }
};

/// Per-SSet-pair reference for analysis::expected_play_cooperation: every
/// ordered pair (i, j) on its own through the markov oracles
/// (exact_pure_game for noise-free pure pairs, finite_outcome_mem1 for
/// memory-one pairs) or, for stochastic memory>=2 pairs, one game on the
/// analysis::kSampleStreamSeed stream keyed (sample_seed, i, j); sums run
/// in (i, j) order.
analysis::CooperationReport per_pair_report(const pop::Population& pop,
                                            const game::IpdParams& params,
                                            std::uint64_t sample_seed = 0);

/// Run the full kernel cross-validation suite (deterministic for a seed).
KernelReport run_kernel_checks(std::uint64_t seed);

}  // namespace egt::simcheck
