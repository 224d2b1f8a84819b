// Play-based cooperation measures.
//
// pop::mean_coop_probability averages the strategy *tables* — cheap, but a
// rule's table says nothing about which states its games actually visit
// (WSLS's table averages 0.5 yet WSLS pairs cooperate almost always).
// These functions compute the cooperation that would actually be *played*:
// the expected fraction of cooperative moves over all ordered pair games
// of a generation, exactly where an analytic evaluator exists (memory-one
// chains, deterministic pure pairs) and by a seeded sample otherwise.
// Every game goes through core::PairEvaluator::evaluate, the fitness
// tier's own pair call.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fitness.hpp"
#include "game/ipd.hpp"
#include "pop/population.hpp"

namespace egt::analysis {

/// Seed of the stream a stochastic memory>=2 pair plays in this module
/// (its key is util::stream_key(sample_seed, i, j) for SSet pair (i, j)).
inline constexpr std::uint64_t kSampleStreamSeed = 0x0c00b;

/// The evaluator this module plays pairs through: the binary game of
/// `params` at memory depth `memory`, Analytic mode (so every pair takes
/// its exact route where one exists), sampling on kSampleStreamSeed.
core::PairEvaluator play_evaluator(const game::IpdParams& params, int memory);

struct CooperationReport {
  /// Expected fraction of cooperative moves across all games.
  double mean_coop_rate = 0.0;
  /// Expected per-round payoff averaged over all (ordered) games.
  double mean_payoff = 0.0;
  /// Each SSet's own expected cooperation rate (its agents' moves only).
  std::vector<double> per_sset_coop;
};

/// Evaluate the whole population's expected play. Strategy-pure pairs are
/// played once per unordered pair of live classes — O(u^2) games for u
/// distinct strategies, one class row per evaluate() call — and weighted
/// by member counts; the summation order therefore differs from a per-SSet
/// loop and results agree with it to 1e-12 relative (DESIGN.md §12).
/// Stochastic memory>=2 pairs are played per SSet pair on the
/// `sample_seed` stream; a population of only such pairs is bitwise the
/// per-pair loop.
CooperationReport expected_play_cooperation(const pop::Population& pop,
                                            const game::IpdParams& params,
                                            std::uint64_t sample_seed = 0);

/// Expected cooperation rate of one ordered pair game (player A's moves);
/// a stochastic memory>=2 pair plays the stream keyed `sample_seed`.
double pair_cooperation(const game::Strategy& a, const game::Strategy& b,
                        const game::IpdParams& params,
                        std::uint64_t sample_seed = 0);

}  // namespace egt::analysis
