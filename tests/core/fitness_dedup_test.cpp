// Strategy-interned dedup and SSet-row tier: bit-identity against brute
// force is the whole contract, so every comparison here is exact (==), not
// approximate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/engine.hpp"
#include "core/fitness.hpp"
#include "game/named.hpp"
#include "obs/metrics.hpp"
#include "pop/population.hpp"
#include "util/rng.hpp"

namespace egt::core {
namespace {

SimConfig analytic_config(pop::SSetId ssets, int memory) {
  SimConfig cfg;
  cfg.ssets = ssets;
  cfg.memory = memory;
  cfg.seed = 99;
  cfg.fitness_mode = FitnessMode::Analytic;
  return cfg;
}

pop::Population random_population(const SimConfig& cfg, bool mixed,
                                  std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return mixed ? pop::Population::random_mixed(cfg.ssets, cfg.memory, rng)
               : pop::Population::random_pure(cfg.ssets, cfg.memory, rng);
}

/// Exact (bitwise) equality of two fitness blocks.
void expect_blocks_identical(const BlockFitness& a, const BlockFitness& b) {
  ASSERT_EQ(a.block().size(), b.block().size());
  for (std::size_t i = 0; i < a.block().size(); ++i) {
    ASSERT_EQ(a.block()[i], b.block()[i]) << "row " << i;
  }
  ASSERT_EQ(a.payoff_matrix().size(), b.payoff_matrix().size());
  for (std::size_t i = 0; i < a.payoff_matrix().size(); ++i) {
    ASSERT_EQ(a.payoff_matrix()[i], b.payoff_matrix()[i]) << "cell " << i;
  }
}

/// Replay the same randomized adoption/mutation sequence through a dedup
/// block and a brute-force block and demand bitwise agreement throughout.
void run_property_sequence(int memory, bool mixed) {
  SimConfig dedup_cfg = analytic_config(24, memory);
  SimConfig brute_cfg = dedup_cfg;
  brute_cfg.dedup = false;

  auto pop = random_population(dedup_cfg, mixed, 1000 + memory);
  // Seed some duplicates so dedup has classes to merge from the start.
  for (pop::SSetId i = 0; i < pop.size(); i += 3) {
    pop.set_strategy(i, pop.strategy(0));
  }

  BlockFitness with(dedup_cfg, 0, dedup_cfg.ssets);
  BlockFitness without(brute_cfg, 0, brute_cfg.ssets);
  ASSERT_TRUE(with.dedup_active());
  ASSERT_FALSE(without.dedup_active());
  with.initialize(pop);
  without.initialize(pop);
  expect_blocks_identical(with, without);
  // Same logical pair count; never more games than brute force.
  ASSERT_EQ(with.pairs_evaluated(), without.pairs_evaluated());
  ASSERT_LE(with.games_played(), without.games_played());

  util::Xoshiro256 rng(77 + memory);
  for (std::uint64_t gen = 1; gen <= 40; ++gen) {
    with.begin_generation(pop, gen);
    without.begin_generation(pop, gen);
    const pop::SSetId target =
        static_cast<pop::SSetId>(util::uniform_below(rng, pop.size()));
    if (util::uniform_below(rng, 2) == 0) {
      // Adoption: copy another SSet's strategy (drives convergence).
      const pop::SSetId teacher =
          static_cast<pop::SSetId>(util::uniform_below(rng, pop.size()));
      pop.set_strategy(target, pop.strategy(teacher));
    } else {
      // Mutation: fresh random strategy (drives divergence).
      pop.set_strategy(target, random_population(dedup_cfg, mixed,
                                                 5000 + gen)
                                   .strategy(target));
    }
    with.strategy_changed(target, pop, gen);
    without.strategy_changed(target, pop, gen);
    expect_blocks_identical(with, without);
    ASSERT_EQ(with.pairs_evaluated(), without.pairs_evaluated());
  }
}

TEST(FitnessDedup, PropertyPureMemory1) { run_property_sequence(1, false); }
TEST(FitnessDedup, PropertyPureMemory2) { run_property_sequence(2, false); }
TEST(FitnessDedup, PropertyPureMemory3) { run_property_sequence(3, false); }
TEST(FitnessDedup, PropertyMixedMemory1) { run_property_sequence(1, true); }
TEST(FitnessDedup, PropertyMixedMemory2) { run_property_sequence(2, true); }
TEST(FitnessDedup, PropertyMixedMemory3) { run_property_sequence(3, true); }

TEST(FitnessDedup, ConvergedPopulationPlaysTenXFewerGames) {
  // The ISSUE acceptance scenario: 256 SSets collapsed onto <= 8 unique
  // strategies. Dedup must reproduce brute-force fitness bit-for-bit while
  // playing at least 10x fewer games.
  SimConfig dedup_cfg = analytic_config(256, 1);
  SimConfig brute_cfg = dedup_cfg;
  brute_cfg.dedup = false;

  std::vector<game::Strategy> reps;
  reps.push_back(game::named::all_c(1));
  reps.push_back(game::named::all_d(1));
  reps.push_back(game::named::tit_for_tat(1));
  reps.push_back(game::named::win_stay_lose_shift(1));
  util::Xoshiro256 rng(31);
  while (reps.size() < 8) {
    reps.push_back(
        pop::Population::random_pure(1, 1, rng).strategy(0));
  }
  std::vector<game::Strategy> table;
  table.reserve(256);
  for (pop::SSetId i = 0; i < 256; ++i) table.push_back(reps[i % 8]);
  const pop::Population pop(std::move(table));
  ASSERT_LE(pop.class_count(), 8u);

  BlockFitness with(dedup_cfg, 0, dedup_cfg.ssets);
  BlockFitness without(brute_cfg, 0, brute_cfg.ssets);
  with.initialize(pop);
  without.initialize(pop);
  expect_blocks_identical(with, without);
  ASSERT_EQ(with.pairs_evaluated(), without.pairs_evaluated());
  ASSERT_GT(without.games_played(), 0u);
  ASSERT_GE(without.games_played(), 10 * with.games_played())
      << "dedup played " << with.games_played() << " of "
      << without.games_played() << " brute-force games";
}

TEST(FitnessDedup, SampledModeNeverDedups) {
  SimConfig cfg = analytic_config(8, 1);
  cfg.fitness_mode = FitnessMode::Sampled;
  BlockFitness fit(cfg, 0, cfg.ssets);
  EXPECT_FALSE(fit.dedup_active());
  const auto pop = random_population(cfg, false, 3);
  fit.initialize(pop);
  // Every logical pair is an actual game.
  EXPECT_EQ(fit.games_played(), fit.pairs_evaluated());
}

TEST(FitnessDedup, StochasticMemory2PairsAreNotCached) {
  // Mixed memory-2 strategies miss both exact methods, so their payoff is
  // (gen_key, i, j)-keyed — dedup must leave them alone. Bit-identity with
  // brute force (checked via the property tests) plus games == pairs here
  // pins that down.
  SimConfig cfg = analytic_config(6, 2);
  const auto pop = random_population(cfg, true, 17);
  BlockFitness fit(cfg, 0, cfg.ssets);
  ASSERT_TRUE(fit.dedup_active());
  fit.initialize(pop);
  EXPECT_EQ(fit.games_played(), fit.pairs_evaluated());
}

TEST(FitnessDedup, SsetThreadsBitIdenticalToSerial) {
  for (const unsigned threads : {1u, 2u, 5u}) {
    SimConfig par_cfg = analytic_config(48, 1);
    par_cfg.sset_threads = threads;
    SimConfig ser_cfg = par_cfg;
    ser_cfg.sset_threads = 0;

    auto pop = random_population(par_cfg, true, 400);
    for (pop::SSetId i = 0; i < pop.size(); i += 2) {
      pop.set_strategy(i, pop.strategy(1));
    }
    BlockFitness par(par_cfg, 0, par_cfg.ssets);
    BlockFitness ser(ser_cfg, 0, ser_cfg.ssets);
    par.initialize(pop);
    ser.initialize(pop);
    expect_blocks_identical(par, ser);
    ASSERT_EQ(par.pairs_evaluated(), ser.pairs_evaluated());
    ASSERT_EQ(par.games_played(), ser.games_played());
  }
}

TEST(FitnessDedup, SsetThreadsBitIdenticalForSampledReplay) {
  SimConfig par_cfg = analytic_config(32, 1);
  par_cfg.fitness_mode = FitnessMode::Sampled;
  par_cfg.space = pop::StrategySpace::Mixed;
  par_cfg.sset_threads = 3;
  SimConfig ser_cfg = par_cfg;
  ser_cfg.sset_threads = 0;

  const auto pop = random_population(par_cfg, true, 88);
  BlockFitness par(par_cfg, 0, par_cfg.ssets);
  BlockFitness ser(ser_cfg, 0, ser_cfg.ssets);
  par.initialize(pop);
  ser.initialize(pop);
  for (std::uint64_t gen = 1; gen < 5; ++gen) {
    par.begin_generation(pop, gen);
    ser.begin_generation(pop, gen);
    expect_blocks_identical(par, ser);
  }
}

TEST(FitnessDedup, RestoreStateRoundTripsCache) {
  SimConfig cfg = analytic_config(16, 1);
  auto pop = random_population(cfg, false, 12);
  for (pop::SSetId i = 0; i < pop.size(); i += 2) {
    pop.set_strategy(i, pop.strategy(0));
  }
  BlockFitness source(cfg, 0, cfg.ssets);
  source.initialize(pop);
  const auto cache = source.dedup_cache();
  ASSERT_FALSE(cache.empty());
  // Exported cache is sorted — deterministic checkpoint bytes.
  ASSERT_TRUE(std::is_sorted(cache.begin(), cache.end(),
                             [](const BlockFitness::DedupEntry& x,
                                const BlockFitness::DedupEntry& y) {
                               return x.a != y.a ? x.a < y.a : x.b < y.b;
                             }));

  BlockFitness restored(cfg, 0, cfg.ssets);
  restored.restore_state(
      std::vector<double>(source.block().begin(), source.block().end()),
      std::vector<double>(source.payoff_matrix().begin(),
                          source.payoff_matrix().end()),
      cache);
  expect_blocks_identical(restored, source);
  // The restored block answers a strategy change without replaying the
  // class games the cache already holds: a change to an existing class
  // costs zero fresh games.
  const std::uint64_t games_before = restored.games_played();
  pop.set_strategy(3, pop.strategy(0));
  restored.strategy_changed(3, pop, 7);
  source.strategy_changed(3, pop, 7);
  expect_blocks_identical(restored, source);
  EXPECT_EQ(restored.games_played(), games_before);
}

TEST(FitnessDedup, RestoreRejectsNonFinitePayoff) {
  // A checkpoint's cache comes from outside the process; NaN and -inf are
  // the table's own unknown and queued markers, so they must not load.
  SimConfig cfg = analytic_config(8, 1);
  const auto pop = random_population(cfg, false, 5);
  BlockFitness source(cfg, 0, cfg.ssets);
  source.initialize(pop);
  const std::vector<double> fit(source.block().begin(), source.block().end());
  const std::vector<double> mat(source.payoff_matrix().begin(),
                                source.payoff_matrix().end());
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::infinity()}) {
    auto cache = source.dedup_cache();
    ASSERT_FALSE(cache.empty());
    cache.front().payoff = bad;
    BlockFitness restored(cfg, 0, cfg.ssets);
    EXPECT_THROW(restored.restore_state(fit, mat, cache), std::invalid_argument);
  }
}

/// One seeded churn step: SSet k adopts a random SSet's strategy or
/// mutates to one of `pool`, so strategies die, come back and recycle
/// class slots. Returns k.
pop::SSetId churn_step(pop::Population& pop,
                       const std::vector<game::Strategy>& pool,
                       util::Xoshiro256& rng) {
  const auto k = static_cast<pop::SSetId>(util::uniform_below(rng, pop.size()));
  if (util::uniform01(rng) < 0.6) {
    pop.set_strategy(k, pop.strategy(static_cast<pop::SSetId>(
                            util::uniform_below(rng, pop.size()))));
  } else {
    pop.set_strategy(k, pool[util::uniform_below(rng, pool.size())]);
  }
  return k;
}

/// A memory-one pool of 8 pure and 32 mixed strategies: more distinct
/// contents than a 16-SSet population can hold, so the cache outgrows the
/// prune bound.
std::vector<game::Strategy> churn_pool(std::uint64_t seed) {
  SimConfig cfg = analytic_config(8, 1);
  std::vector<game::Strategy> pool;
  const auto pure = random_population(cfg, false, seed);
  for (pop::SSetId i = 0; i < 8; ++i) pool.push_back(pure.strategy(i));
  for (int r = 0; r < 4; ++r) {
    const auto mixed = random_population(cfg, true, seed + 1 + r);
    for (pop::SSetId i = 0; i < 8; ++i) pool.push_back(mixed.strategy(i));
  }
  return pool;
}

TEST(FitnessDedup, RestoreMidRunContinuesBitIdentically) {
  // A block restored from its own mid-run state and dedup cache must go on
  // exactly as the uninterrupted block: same fitness, same matrix, and the
  // same games played from the snapshot on — a cell the cache carried is a
  // hit, and a prune after the restore drops the same cells.
  SimConfig cfg = analytic_config(16, 1);
  cfg.game.noise = 0.05;
  const auto pool = churn_pool(600);
  util::Xoshiro256 rng(601);
  std::vector<game::Strategy> table;
  for (pop::SSetId i = 0; i < cfg.ssets; ++i) table.push_back(pool[i % 4]);
  pop::Population pop(std::move(table));

  obs::MetricsRegistry reg_a;
  obs::MetricsRegistry reg_b;
  BlockFitness uninterrupted(cfg, 0, cfg.ssets, nullptr, &reg_a);
  uninterrupted.initialize(pop);
  std::uint64_t gen = 1;
  for (; gen <= 150; ++gen) {
    uninterrupted.strategy_changed(churn_step(pop, pool, rng), pop, gen);
  }
  const std::uint64_t games_at_snapshot = uninterrupted.games_played();
  const std::uint64_t prunes_at_snapshot =
      reg_a.snapshot().counter_value("fitness.cache_prunes");
  // The restored block has run on another population first, so the
  // restore has to replace a populated table, not fill an empty one.
  BlockFitness restored(cfg, 0, cfg.ssets, nullptr, &reg_b);
  auto other = random_population(cfg, true, 602);
  restored.initialize(other);
  for (std::uint64_t g = 1; g <= 20; ++g) {
    restored.strategy_changed(churn_step(other, pool, rng), other, g);
  }
  const std::uint64_t games_before_restore = restored.games_played();
  const std::uint64_t prunes_before_restore =
      reg_b.snapshot().counter_value("fitness.cache_prunes");
  restored.restore_state(
      std::vector<double>(uninterrupted.block().begin(),
                          uninterrupted.block().end()),
      std::vector<double>(uninterrupted.payoff_matrix().begin(),
                          uninterrupted.payoff_matrix().end()),
      uninterrupted.dedup_cache());
  for (; gen <= 600; ++gen) {
    const pop::SSetId k = churn_step(pop, pool, rng);
    uninterrupted.strategy_changed(k, pop, gen);
    restored.strategy_changed(k, pop, gen);
    expect_blocks_identical(restored, uninterrupted);
    ASSERT_EQ(restored.games_played() - games_before_restore,
              uninterrupted.games_played() - games_at_snapshot)
        << "gen " << gen;
  }
  const std::uint64_t prunes_after =
      reg_a.snapshot().counter_value("fitness.cache_prunes") -
      prunes_at_snapshot;
  EXPECT_GT(prunes_after, 0u) << "no prune after the restore";
  EXPECT_EQ(reg_b.snapshot().counter_value("fitness.cache_prunes") -
                prunes_before_restore,
            prunes_after);
  const auto a = uninterrupted.dedup_cache();
  const auto b = restored.dedup_cache();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a[e].a, b[e].a);
    EXPECT_EQ(a[e].b, b[e].b);
    EXPECT_EQ(a[e].payoff, b[e].payoff);
  }
}

TEST(FitnessDedup, CacheStaysWithinPruneBoundUnderChurn) {
  // After every strategy change the cache holds at most 256 + 8·live²
  // entries (the retention rule), however many strategies came and went.
  for (const double noise : {0.0, 0.05}) {
    SimConfig cfg = analytic_config(16, 1);
    cfg.game.noise = noise;
    const auto pool = churn_pool(700);
    util::Xoshiro256 rng(701);
    std::vector<game::Strategy> table;
    for (pop::SSetId i = 0; i < cfg.ssets; ++i) table.push_back(pool[i % 4]);
    pop::Population pop(std::move(table));
    obs::MetricsRegistry reg;
    BlockFitness block(cfg, 0, cfg.ssets, nullptr, &reg);
    block.initialize(pop);
    for (std::uint64_t gen = 1; gen <= 600; ++gen) {
      block.strategy_changed(churn_step(pop, pool, rng), pop, gen);
      const std::uint64_t live = pop.class_count();
      ASSERT_LE(block.dedup_cache().size(), 256 + 8 * live * live)
          << "gen " << gen << " noise " << noise;
    }
    EXPECT_GT(reg.snapshot().counter_value("fitness.cache_prunes"), 0u)
        << "noise " << noise;
  }
}

TEST(FitnessDedup, TableCellsStayBoundedOnARing) {
  // A ring population under a stream of brand-new mixed strategies: each
  // new strategy adds only a few cells (its neighbours), but every content
  // takes a table ID, so a dense table over all of them would span ~N²/2
  // cells long before the cell count triggers a prune. Dead contents'
  // cells are retired instead, which keeps the table within
  // max((2·live + 64)², 4 × cached cells), while the cache (retired cells
  // included) still follows the prune rule.
  SimConfig cfg = analytic_config(64, 1);
  cfg.interaction.kind = InteractionSpec::Kind::Ring;
  cfg.interaction.ring_k = 1;
  auto graph = std::make_shared<const pop::InteractionGraph>(
      make_interaction_graph(cfg));
  auto pop = random_population(cfg, true, 800);
  util::Xoshiro256 rng(801);
  BlockFitness block(cfg, 0, cfg.ssets, graph);
  block.initialize(pop);
  std::uint64_t fresh = 10000;
  for (std::uint64_t gen = 1; gen <= 2000; ++gen) {
    const auto k =
        static_cast<pop::SSetId>(util::uniform_below(rng, pop.size()));
    if (util::uniform01(rng) < 0.3) {
      pop.set_strategy(k, pop.strategy(static_cast<pop::SSetId>(
                              util::uniform_below(rng, pop.size()))));
    } else {
      pop.set_strategy(k, random_population(cfg, true, ++fresh).strategy(0));
    }
    block.strategy_changed(k, pop, gen);
    const std::uint64_t live = pop.class_count();
    const std::uint64_t prune_bound = 256 + 8 * live * live;
    ASSERT_LE(block.table_cells(),
              std::max((2 * live + 64) * (2 * live + 64), 4 * prune_bound))
        << "gen " << gen;
    if (gen % 100 == 0) {
      ASSERT_LE(block.dedup_cache().size(), prune_bound) << "gen " << gen;
    }
  }
}

TEST(FitnessDedup, SerialEngineTrajectoryUnchangedByDedup) {
  // Whole-engine bit-identity: generations of PC/Moran/mutation dynamics
  // produce the same population with and without dedup.
  SimConfig cfg = analytic_config(32, 1);
  cfg.generations = 80;
  cfg.pc_rate = 0.4;
  cfg.mutation_rate = 0.05;
  SimConfig brute = cfg;
  brute.dedup = false;

  Engine a(cfg);
  Engine b(brute);
  a.run(cfg.generations);
  b.run(cfg.generations);
  EXPECT_EQ(a.population().table_hash(), b.population().table_hash());
  for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
    ASSERT_EQ(a.population().fitness(i), b.population().fitness(i)) << i;
  }
  EXPECT_EQ(a.pairs_evaluated(), b.pairs_evaluated());
  EXPECT_LE(a.games_played(), b.games_played());
}

TEST(FitnessDedup, SerialEngineTrajectoryUnchangedBySsetThreads) {
  SimConfig cfg = analytic_config(32, 1);
  cfg.generations = 60;
  cfg.pc_rate = 0.4;
  cfg.mutation_rate = 0.05;
  SimConfig threaded = cfg;
  threaded.sset_threads = 4;

  Engine a(cfg);
  Engine b(threaded);
  a.run(cfg.generations);
  b.run(cfg.generations);
  EXPECT_EQ(a.population().table_hash(), b.population().table_hash());
  for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
    ASSERT_EQ(a.population().fitness(i), b.population().fitness(i)) << i;
  }
  EXPECT_EQ(a.games_played(), b.games_played());
}

}  // namespace
}  // namespace egt::core
