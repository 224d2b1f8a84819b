#include "analysis/ess.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "game/enumerate.hpp"
#include "game/markov.hpp"
#include "game/named.hpp"
#include "game/simd.hpp"

namespace egt::analysis {
namespace {

using game::named::all_c;
using game::named::all_d;
using game::named::tit_for_tat;
using game::named::win_stay_lose_shift;

const game::IpdParams kClean{};  // paper payoffs, 200 rounds, no noise

TEST(Ess, AlldResistsAllcInvasion) {
  const auto a = analyze_invasion(game::Strategy(all_d(1)),
                                  game::Strategy(all_c(1)), 16, kClean);
  EXPECT_EQ(a.outcome, InvasionOutcome::Resists);
  EXPECT_LT(a.mutant_fitness, a.resident_fitness);
}

TEST(Ess, AllcIsInvadedByAlld) {
  const auto a = analyze_invasion(game::Strategy(all_c(1)),
                                  game::Strategy(all_d(1)), 16, kClean);
  EXPECT_EQ(a.outcome, InvasionOutcome::Invadable);
  // The lone defector feasts on cooperators: T = 4 every round.
  EXPECT_NEAR(a.mutant_fitness, 4.0, 1e-9);
  EXPECT_LT(a.resident_fitness, 3.0 + 1e-9);
}

TEST(Ess, WslsResistsAlldUnderPaperPayoffs) {
  // The (T+P)/2 = 2.5 < R = 3 condition §V-C's payoff choice creates.
  const auto a =
      analyze_invasion(game::Strategy(win_stay_lose_shift(1)),
                       game::Strategy(all_d(1)), 64, kClean);
  EXPECT_EQ(a.outcome, InvasionOutcome::Resists);
}

TEST(Ess, WslsIsOnlyMarginalAgainstAlldUnderAxelrodPayoffs) {
  // With T = 5: (T+P)/2 = 3 = R — the resistance evaporates (small
  // populations: the mutant even gains an edge from not playing itself).
  game::IpdParams axelrod = kClean;
  axelrod.payoff = game::axelrod_payoff();
  const auto paper =
      analyze_invasion(game::Strategy(win_stay_lose_shift(1)),
                       game::Strategy(all_d(1)), 64, kClean);
  const auto ax =
      analyze_invasion(game::Strategy(win_stay_lose_shift(1)),
                       game::Strategy(all_d(1)), 64, axelrod);
  const double margin_paper = paper.resident_fitness - paper.mutant_fitness;
  const double margin_ax = ax.resident_fitness - ax.mutant_fitness;
  EXPECT_GT(margin_paper, margin_ax);
  EXPECT_NE(ax.outcome, InvasionOutcome::Resists);
}

TEST(Ess, TftIsNeutrallyInvadableByAllc) {
  // TFT and ALLC behave identically among cooperators (no noise): drift.
  const auto a = analyze_invasion(game::Strategy(tit_for_tat(1)),
                                  game::Strategy(all_c(1)), 20, kClean);
  EXPECT_EQ(a.outcome, InvasionOutcome::Neutral);
}

TEST(Ess, NoiseBreaksTftAllcNeutrality) {
  // With errors, ALLC among TFTs is exploited-by-echo differently than
  // TFT-vs-TFT feuds; neutrality disappears one way or the other.
  game::IpdParams noisy = kClean;
  noisy.noise = 0.05;
  const auto a = analyze_invasion(game::Strategy(tit_for_tat(1)),
                                  game::Strategy(all_c(1)), 20, noisy);
  EXPECT_NE(a.outcome, InvasionOutcome::Neutral);
}

TEST(Ess, ExhaustiveSweepFindsAlldUninvadableOneShotStyle) {
  // Among the 16 memory-one pure strategies, ALLD must always be in the
  // uninvadable set (nothing strictly beats a defector sea).
  const auto winners = uninvadable_pure_mem1(32, kClean);
  ASSERT_FALSE(winners.empty());
  bool has_alld = false;
  for (const auto& s : winners) {
    if (s == all_d(1)) has_alld = true;
    // ALLC can never be in the set: ALLD invades it.
    ASSERT_FALSE(s == all_c(1));
  }
  EXPECT_TRUE(has_alld);
}

TEST(Ess, GrimIsUninvadableWithoutNoise) {
  EXPECT_TRUE(is_uninvadable_pure_mem1(game::named::grim(1), 32, kClean));
}

TEST(Ess, ValidatesArguments) {
  EXPECT_THROW((void)analyze_invasion(game::Strategy(all_c(1)),
                                      game::Strategy(all_d(1)), 2, kClean),
               std::invalid_argument);
  // Stochastic memory-two strategies have no analytic evaluator.
  game::IpdParams noisy = kClean;
  noisy.noise = 0.1;
  EXPECT_THROW((void)analyze_invasion(game::Strategy(game::named::all_c(2)),
                                      game::Strategy(game::named::all_d(2)),
                                      8, noisy),
               std::invalid_argument);
}

// --- analyze_invasion vs per-pair markov oracles -------------------------

/// Per-round payoff of `a` against `b` (A's side) from the markov oracles.
double oracle_payoff(const game::Strategy& a, const game::Strategy& b,
                     const game::IpdParams& params) {
  if (a.is_pure() && b.is_pure() && params.noise == 0.0) {
    return game::markov::exact_pure_game(a.as_pure(), b.as_pure(),
                                         params.payoff, params.rounds)
        .mean_payoff_a();
  }
  return game::markov::finite_outcome_mem1(a, b, params.payoff, params.rounds,
                                           params.noise)
      .payoff_a;
}

void expect_invasion_matches_oracle(const game::Strategy& resident,
                                    const game::Strategy& mutant,
                                    std::uint32_t n,
                                    const game::IpdParams& params) {
  const double rr = oracle_payoff(resident, resident, params);
  const double rm = oracle_payoff(resident, mutant, params);
  const double mr = oracle_payoff(mutant, resident, params);
  const double resident_fitness =
      (static_cast<double>(n - 2) * rr + rm) / static_cast<double>(n - 1);
  const auto a = analyze_invasion(resident, mutant, n, params);
  EXPECT_LE(std::fabs(a.mutant_fitness - mr), 1e-12 * std::fabs(mr));
  EXPECT_LE(std::fabs(a.resident_fitness - resident_fitness),
            1e-12 * std::fabs(resident_fitness));
}

TEST(EssBatched, AllPureMemory1PairsMatchTheOracles) {
  game::IpdParams noisy = kClean;
  noisy.noise = 0.05;
  for (const auto& r : game::all_pure_strategies(1)) {
    for (const auto& m : game::all_pure_strategies(1)) {
      expect_invasion_matches_oracle(game::Strategy(r), game::Strategy(m), 16,
                                     kClean);
      expect_invasion_matches_oracle(game::Strategy(r), game::Strategy(m), 16,
                                     noisy);
    }
  }
}

TEST(EssBatched, MixedMemory1PairsMatchTheOracles) {
  util::Xoshiro256 rng(5);
  game::IpdParams noisy = kClean;
  noisy.noise = 0.05;
  for (int k = 0; k < 32; ++k) {
    const game::Strategy r = game::MixedStrategy::random(1, rng);
    const game::Strategy m = game::MixedStrategy::random(1, rng);
    expect_invasion_matches_oracle(r, m, 10, k % 2 == 0 ? kClean : noisy);
  }
}

TEST(EssBatched, ForcedScalarMatchesTheOracles) {
  game::simd::set_force_scalar(true);
  util::Xoshiro256 rng(6);
  for (int k = 0; k < 16; ++k) {
    const game::Strategy r = game::MixedStrategy::random(1, rng);
    const game::Strategy m = game::PureStrategy::random(1, rng);
    expect_invasion_matches_oracle(r, m, 10, kClean);
  }
  game::simd::set_force_scalar(false);
}

TEST(EssBatched, PureMemory2PairsMatchTheOracles) {
  util::Xoshiro256 rng(7);
  for (int k = 0; k < 32; ++k) {
    const game::Strategy r = game::PureStrategy::random(2, rng);
    const game::Strategy m = game::PureStrategy::random(2, rng);
    expect_invasion_matches_oracle(r, m, 12, kClean);
  }
}

}  // namespace
}  // namespace egt::analysis
