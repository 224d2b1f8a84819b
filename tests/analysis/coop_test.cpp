#include "analysis/coop.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "game/markov.hpp"
#include "game/named.hpp"
#include "game/simd.hpp"
#include "simcheck/kernels.hpp"

namespace egt::analysis {
namespace {

using game::named::all_c;
using game::named::all_d;
using game::named::tit_for_tat;
using game::named::win_stay_lose_shift;

pop::Population make_pop(std::vector<game::Strategy> ss) {
  return pop::Population(std::move(ss));
}

TEST(Coop, AllCooperatorsPlayFullCooperation) {
  const auto pop = make_pop({all_c(1), all_c(1), all_c(1)});
  const auto rep = expected_play_cooperation(pop, {});
  EXPECT_DOUBLE_EQ(rep.mean_coop_rate, 1.0);
  EXPECT_DOUBLE_EQ(rep.mean_payoff, 3.0);  // R every round
  for (double c : rep.per_sset_coop) ASSERT_DOUBLE_EQ(c, 1.0);
}

TEST(Coop, AllDefectorsPlayZeroCooperation) {
  const auto pop = make_pop({all_d(1), all_d(1)});
  const auto rep = expected_play_cooperation(pop, {});
  EXPECT_DOUBLE_EQ(rep.mean_coop_rate, 0.0);
  EXPECT_DOUBLE_EQ(rep.mean_payoff, 1.0);  // P every round
}

TEST(Coop, TableAverageAndPlayRateDisagreeForWsls) {
  // WSLS's table averages 0.5 but WSLS pairs actually cooperate (almost)
  // every round — the reason this module exists.
  const auto pop = make_pop({win_stay_lose_shift(1), win_stay_lose_shift(1)});
  const auto rep = expected_play_cooperation(pop, {});
  EXPECT_DOUBLE_EQ(rep.mean_coop_rate, 1.0);
}

TEST(Coop, MixedFieldIsBetweenExtremes) {
  const auto pop = make_pop({all_c(1), all_d(1), tit_for_tat(1)});
  const auto rep = expected_play_cooperation(pop, {});
  EXPECT_GT(rep.mean_coop_rate, 0.0);
  EXPECT_LT(rep.mean_coop_rate, 1.0);
  // ALLD (index 1) never cooperates.
  EXPECT_DOUBLE_EQ(rep.per_sset_coop[1], 0.0);
}

TEST(Coop, PairCooperationMatchesKnownGames) {
  game::IpdParams params;
  // TFT vs ALLD: one cooperative move out of 200.
  EXPECT_NEAR(pair_cooperation(game::Strategy(tit_for_tat(1)),
                               game::Strategy(all_d(1)), params),
              1.0 / 200.0, 1e-12);
  EXPECT_DOUBLE_EQ(pair_cooperation(game::Strategy(all_d(1)),
                                    game::Strategy(tit_for_tat(1)), params),
                   0.0);
}

TEST(Coop, NoiseLowersWslsPairCooperationSlightly) {
  game::IpdParams noisy;
  noisy.noise = 0.02;
  const double c = pair_cooperation(
      game::Strategy(win_stay_lose_shift(1)),
      game::Strategy(win_stay_lose_shift(1)), noisy);
  EXPECT_LT(c, 1.0);
  EXPECT_GT(c, 0.9);  // WSLS re-coordinates after errors
}

TEST(Coop, AnalyticMem1AgreesWithExactPurePath) {
  // The memory-one chain and the cycle-detection path must agree on
  // deterministic pairs (they are exercised by different noise settings).
  game::IpdParams params;
  const game::Strategy a = tit_for_tat(1);
  const game::Strategy b = win_stay_lose_shift(1);
  const double exact = pair_cooperation(a, b, params);        // pure path
  game::IpdParams tiny;
  tiny.noise = 0.0;
  const auto chain = game::markov::finite_outcome_mem1(
      a, b, params.payoff, params.rounds, 0.0);
  EXPECT_NEAR(exact, chain.coop_a, 1e-12);
}

TEST(Coop, StochasticMemory2FallbackIsDeterministicPerSeed) {
  game::IpdParams params;
  params.noise = 0.05;
  util::Xoshiro256 rng(4);
  const game::Strategy a = game::MixedStrategy::random(2, rng);
  const game::Strategy b = game::MixedStrategy::random(2, rng);
  const double c1 = pair_cooperation(a, b, params, 7);
  const double c2 = pair_cooperation(a, b, params, 7);
  EXPECT_DOUBLE_EQ(c1, c2);
}

TEST(Coop, RequiresAtLeastTwoSSets) {
  const auto pop = make_pop({all_c(1)});
  EXPECT_THROW((void)expected_play_cooperation(pop, {}),
               std::invalid_argument);
}

// --- Batched report vs the per-SSet-pair oracle -------------------------

struct ForceScalarGuard {
  explicit ForceScalarGuard(bool on) { game::simd::set_force_scalar(on); }
  ~ForceScalarGuard() { game::simd::set_force_scalar(false); }
};

/// `n` SSets over `distinct` strategies: SSet i < distinct gets strategy i
/// (so every strategy is live), the rest repeat random ones — repeated
/// classes and, usually, singletons.
pop::Population pooled_pop(util::Xoshiro256& rng, pop::SSetId n,
                           std::size_t distinct, int memory, bool mixed) {
  std::vector<game::Strategy> pool;
  for (std::size_t k = 0; k < distinct; ++k) {
    if (mixed) {
      pool.emplace_back(game::MixedStrategy::random(memory, rng));
    } else {
      pool.emplace_back(game::PureStrategy::random(memory, rng));
    }
  }
  std::vector<game::Strategy> ss;
  for (pop::SSetId i = 0; i < n; ++i) {
    ss.push_back(i < distinct ? pool[i]
                              : pool[util::uniform_below(rng, distinct)]);
  }
  return pop::Population(std::move(ss));
}

void expect_rel(double got, double want, const char* what) {
  if (want == 0.0) {
    EXPECT_EQ(got, 0.0) << what;
  } else {
    EXPECT_LE(std::fabs(got - want), 1e-12 * std::fabs(want))
        << what << ": " << got << " vs " << want;
  }
}

void expect_report_matches_oracle(const pop::Population& pop,
                                  const game::IpdParams& params) {
  const CooperationReport got = expected_play_cooperation(pop, params);
  const CooperationReport want = simcheck::per_pair_report(pop, params);
  expect_rel(got.mean_coop_rate, want.mean_coop_rate, "mean_coop_rate");
  expect_rel(got.mean_payoff, want.mean_payoff, "mean_payoff");
  ASSERT_EQ(got.per_sset_coop.size(), want.per_sset_coop.size());
  for (std::size_t i = 0; i < got.per_sset_coop.size(); ++i) {
    expect_rel(got.per_sset_coop[i], want.per_sset_coop[i], "per_sset_coop");
  }
}

void sweep_report(int memory, bool mixed, double noise, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  game::IpdParams params;
  params.noise = noise;
  for (const auto& [n, distinct] :
       std::vector<std::pair<pop::SSetId, std::size_t>>{
           {2, 1}, {2, 2}, {7, 3}, {24, 5}, {40, 40}, {40, 12}}) {
    SCOPED_TRACE(::testing::Message() << n << " SSets, " << distinct
                                      << " strategies");
    expect_report_matches_oracle(
        pooled_pop(rng, n, distinct, memory, mixed), params);
  }
}

TEST(CoopReport, MixedMemory1NoiseFreeMatchesPerPairOracle) {
  sweep_report(1, true, 0.0, 11);
}
TEST(CoopReport, MixedMemory1NoisyMatchesPerPairOracle) {
  sweep_report(1, true, 0.05, 12);
}
TEST(CoopReport, PureMemory1MatchesPerPairOracle) {
  sweep_report(1, false, 0.0, 13);
  sweep_report(1, false, 0.05, 14);  // pure pairs on the memory-one chain
}
TEST(CoopReport, PureMemory2MatchesPerPairOracle) {
  sweep_report(2, false, 0.0, 15);
}
TEST(CoopReport, ForcedScalarMatchesPerPairOracle) {
  ForceScalarGuard guard(true);
  sweep_report(1, true, 0.0, 16);
  sweep_report(1, true, 0.05, 17);
  sweep_report(1, false, 0.05, 18);
}

// Stochastic memory-two pairs keep their per-SSet-pair streams and the
// per-pair summation order: bitwise today's values.
TEST(CoopReport, StochasticMemory2FallbackIsBitwiseThePerPairLoop) {
  util::Xoshiro256 rng(19);
  game::IpdParams params;
  params.noise = 0.05;
  const auto pop = pooled_pop(rng, 12, 4, 2, true);
  for (const std::uint64_t seed : {0ull, 7ull}) {
    const CooperationReport got = expected_play_cooperation(pop, params, seed);
    const CooperationReport want =
        simcheck::per_pair_report(pop, params, seed);
    EXPECT_EQ(got.mean_coop_rate, want.mean_coop_rate);
    EXPECT_EQ(got.mean_payoff, want.mean_payoff);
    EXPECT_EQ(got.per_sset_coop, want.per_sset_coop);
  }
}

// Noise-free pure memory-two pairs take the walker while mixed ones keep
// their streams; the two parts add up to the per-pair loop to 1e-12.
TEST(CoopReport, PureAndStochasticMemory2MixMatchesPerPairOracle) {
  util::Xoshiro256 rng(20);
  std::vector<game::Strategy> ss;
  const game::Strategy pure{game::PureStrategy::random(2, rng)};
  for (int i = 0; i < 10; ++i) {
    if (i % 3 == 0) {
      ss.emplace_back(game::MixedStrategy::random(2, rng));
    } else {
      ss.push_back(pure);
    }
  }
  expect_report_matches_oracle(pop::Population(std::move(ss)), {});
}

TEST(CoopReport, PairCooperationMatchesTheOracleRow) {
  util::Xoshiro256 rng(21);
  game::IpdParams params;
  params.noise = 0.05;
  const game::Strategy a = game::MixedStrategy::random(1, rng);
  const game::Strategy b = game::MixedStrategy::random(1, rng);
  const auto want =
      game::markov::finite_outcome_mem1(a, b, params.payoff, params.rounds,
                                        params.noise);
  expect_rel(pair_cooperation(a, b, params), want.coop_a, "pair_cooperation");
}

}  // namespace
}  // namespace egt::analysis
