// SIMD/SoA batch fitness path (DESIGN.md §12): routing rules, kernel
// equivalence at the fitness tier, and the scalar fallback for pairs the
// batch kernel must not touch.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/fitness.hpp"
#include "game/simd.hpp"
#include "game/spec/registry.hpp"
#include "obs/metrics.hpp"
#include "pop/population.hpp"
#include "util/rng.hpp"

namespace egt::core {
namespace {

SimConfig analytic_config(pop::SSetId ssets, int memory) {
  SimConfig cfg;
  cfg.ssets = ssets;
  cfg.memory = memory;
  cfg.seed = 4242;
  cfg.fitness_mode = FitnessMode::Analytic;
  cfg.dedup = false;  // exercise the row-batch path; tests opt back in
  return cfg;
}

struct ForceScalarGuard {
  explicit ForceScalarGuard(bool on) { game::simd::set_force_scalar(on); }
  ~ForceScalarGuard() { game::simd::set_force_scalar(false); }
};

TEST(PairRoute, ClassifiesEveryDispatchCase) {
  util::Xoshiro256 rng(1);
  const game::Strategy pure1{game::PureStrategy::random(1, rng)};
  const game::Strategy mixed1{game::MixedStrategy::random(1, rng)};

  SimConfig cfg = analytic_config(8, 1);
  PairEvaluator eval(cfg);
  EXPECT_EQ(eval.route(pure1, pure1), PairEvaluator::Route::PureExact);
  EXPECT_EQ(eval.route(pure1, mixed1), PairEvaluator::Route::Mem1Markov);
  EXPECT_EQ(eval.route(mixed1, mixed1), PairEvaluator::Route::Mem1Markov);

  // Execution noise kills the deterministic walker but not the chain.
  cfg.game.noise = 0.05;
  PairEvaluator noisy(cfg);
  EXPECT_EQ(noisy.route(pure1, pure1), PairEvaluator::Route::Mem1Markov);

  // Stochastic memory >= 2 has no closed form: stream play.
  SimConfig deep = analytic_config(8, 2);
  const game::Strategy mixed2{game::MixedStrategy::random(2, rng)};
  const game::Strategy pure2{game::PureStrategy::random(2, rng)};
  PairEvaluator deep_eval(deep);
  EXPECT_EQ(deep_eval.route(mixed2, mixed2),
            PairEvaluator::Route::SampledStream);
  EXPECT_EQ(deep_eval.route(pure2, pure2), PairEvaluator::Route::PureExact);

  // Sampled mode never has a strategy-pure pair.
  SimConfig sampled = analytic_config(8, 1);
  sampled.fitness_mode = FitnessMode::Sampled;
  PairEvaluator sampled_eval(sampled);
  EXPECT_EQ(sampled_eval.route(pure1, pure1),
            PairEvaluator::Route::SampledStream);

  // m-action specs bypass the 2x2 kernels entirely.
  SimConfig nway = analytic_config(8, 0);
  nway.memory = 0;
  nway.game = *game::find_game("rps");
  ASSERT_TRUE(game::spec::requires_spec_chain(nway.game));
  util::Xoshiro256 nrng(2);
  const game::Strategy rps{game::NWayStrategy::random(3, nrng)};
  PairEvaluator nway_eval(nway);
  EXPECT_EQ(nway_eval.route(rps, rps), PairEvaluator::Route::NWaySpec);
}

// The whole fitness tier — row batch, dedup prefill batch, batch-of-one
// cache misses — must agree with the active kernel to the cross-kernel
// tolerance when forced scalar, and bitwise with itself across dedup and
// thread-count settings (one kernel per process).
TEST(BatchFitness, ForcedScalarAgreesWithActiveKernelTo1em12) {
  const SimConfig cfg = analytic_config(24, 1);
  util::Xoshiro256 rng(55);
  const auto pop = pop::Population::random_mixed(cfg.ssets, 1, rng);

  std::vector<double> active, scalar;
  {
    BlockFitness block(cfg, 0, cfg.ssets);
    block.initialize(pop);
    active.assign(block.block().begin(), block.block().end());
  }
  {
    ForceScalarGuard guard(true);
    BlockFitness block(cfg, 0, cfg.ssets);
    block.initialize(pop);
    scalar.assign(block.block().begin(), block.block().end());
  }
  ASSERT_EQ(active.size(), scalar.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    const double tol = 1e-12 * std::max(1.0, std::fabs(scalar[i]));
    EXPECT_NEAR(active[i], scalar[i], tol) << "row " << i;
  }
}

TEST(BatchFitness, DedupAndRowBatchBitIdentical) {
  SimConfig brute = analytic_config(20, 1);
  SimConfig dedup = brute;
  dedup.dedup = true;
  util::Xoshiro256 rng(7);
  auto pop = pop::Population::random_mixed(brute.ssets, 1, rng);
  for (pop::SSetId i = 0; i < pop.size(); i += 2) {
    pop.set_strategy(i, pop.strategy(1));  // give dedup real classes
  }

  BlockFitness a(brute, 0, brute.ssets);
  BlockFitness b(dedup, 0, dedup.ssets);
  a.initialize(pop);
  b.initialize(pop);
  ASSERT_EQ(a.block().size(), b.block().size());
  for (std::size_t i = 0; i < a.block().size(); ++i) {
    EXPECT_EQ(a.block()[i], b.block()[i]) << "row " << i;
  }
  EXPECT_EQ(a.pairs_evaluated(), b.pairs_evaluated());
  EXPECT_LT(b.games_played(), a.games_played());
}

// Mixed memory-2 pairs have no closed form: the row batch must leave them
// on the per-pair stream path, and results must match the brute-force
// evaluator pair by pair.
TEST(BatchFitness, StochasticMemory2FallsBackToStreamPlay) {
  const SimConfig cfg = analytic_config(10, 2);
  util::Xoshiro256 rng(13);
  const auto pop = pop::Population::random_mixed(cfg.ssets, 2, rng);

  BlockFitness block(cfg, 0, cfg.ssets);
  block.initialize(pop);
  const PairEvaluator eval(cfg);
  for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
    double sum = 0.0;
    for (pop::SSetId j = 0; j < cfg.ssets; ++j) {
      if (j == i) continue;
      sum += eval.payoff(pop, i, j, 0);
    }
    const double scale = 1.0 / ((cfg.ssets - 1.0) * cfg.game.rounds);
    EXPECT_EQ(block.fitness(i), sum * scale) << "row " << i;
  }
}

// m-action populations route through the spec chain: flipping the kernel
// switch must not move a single bit.
TEST(BatchFitness, NWaySpecBypassUnaffectedByKernelSwitch) {
  SimConfig cfg = analytic_config(12, 0);
  cfg.memory = 0;
  cfg.game = *game::find_game("rps");
  util::Xoshiro256 rng(21);
  const auto pop = pop::Population::random_nway(cfg.ssets, 3, false, rng);

  std::vector<double> active, scalar;
  {
    BlockFitness block(cfg, 0, cfg.ssets);
    block.initialize(pop);
    active.assign(block.block().begin(), block.block().end());
  }
  {
    ForceScalarGuard guard(true);
    BlockFitness block(cfg, 0, cfg.ssets);
    block.initialize(pop);
    scalar.assign(block.block().begin(), block.block().end());
  }
  ASSERT_EQ(active.size(), scalar.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    EXPECT_EQ(active[i], scalar[i]) << "row " << i;
  }
}

// Pure populations at zero noise take the PureExact walker everywhere —
// also kernel-switch invariant (the walker has no SIMD variant).
TEST(BatchFitness, PureExactPathKernelSwitchInvariant) {
  const SimConfig cfg = analytic_config(16, 2);
  util::Xoshiro256 rng(31);
  const auto pop = pop::Population::random_pure(cfg.ssets, 2, rng);

  std::vector<double> active, scalar;
  {
    BlockFitness block(cfg, 0, cfg.ssets);
    block.initialize(pop);
    active.assign(block.block().begin(), block.block().end());
  }
  {
    ForceScalarGuard guard(true);
    BlockFitness block(cfg, 0, cfg.ssets);
    block.initialize(pop);
    scalar.assign(block.block().begin(), block.block().end());
  }
  for (std::size_t i = 0; i < active.size(); ++i) {
    EXPECT_EQ(active[i], scalar[i]) << "row " << i;
  }
}

// Per-pair model of a dedup block's incremental update: every value comes
// from PairEvaluator::pair_payoff one pair at a time, in the order the lazy
// per-pair path visits pairs, and the class-pair cache is modelled as the
// set of content-hash keys played so far (a key's first visit is its one
// game and its one cache insert; a dead strategy's keys stay until a
// prune), pruned by the retention rule: once the keys outnumber
// 256 + 8·live², every key with a dead row or column content goes. Seeded
// from a real block right after initialize.
class PerPairBlock {
 public:
  PerPairBlock(const SimConfig& cfg, const BlockFitness& seed,
               const obs::MetricsRegistry& reg)
      : cfg_(cfg),
        eval_(cfg),
        begin_(seed.row_begin()),
        end_(seed.row_end()),
        fitness_(seed.block().begin(), seed.block().end()),
        matrix_(seed.payoff_matrix().begin(), seed.payoff_matrix().end()),
        pairs_(seed.pairs_evaluated()),
        games_(seed.games_played()),
        inserts_(reg.snapshot().counter_value("fitness.cache_inserts")),
        prunes_(reg.snapshot().counter_value("fitness.cache_prunes")) {
    for (const auto& e : seed.dedup_cache()) {
      keys_.emplace(game::Strategy::pair_key(e.a, e.b),
                    std::make_pair(e.a, e.b));
    }
  }

  void strategy_changed(pop::SSetId k, const pop::Population& pop) {
    const double scale = 1.0 / ((cfg_.ssets - 1.0) * cfg_.game.rounds);
    if (k >= begin_ && k < end_) {
      double sum = 0.0;
      for (pop::SSetId j = 0; j < cfg_.ssets; ++j) {
        if (j == k) continue;
        const double v = value(pop, k, j);
        cell(k, j) = v;
        sum += v;
      }
      fitness_[k - begin_] = sum * scale;
    }
    for (pop::SSetId i = begin_; i < end_; ++i) {
      if (i == k) continue;
      const double fresh = value(pop, i, k);
      fitness_[i - begin_] += (fresh - cell(i, k)) * scale;
      cell(i, k) = fresh;
    }
    const std::uint64_t live = pop.class_count();
    if (keys_.size() <= 256 + 8 * live * live) return;
    std::unordered_set<std::uint64_t> alive;
    for (const auto& c : pop.classes()) {
      if (c.members > 0) alive.insert(c.hash);
    }
    prunes_ += std::erase_if(keys_, [&](const auto& kv) {
      return alive.count(kv.second.first) == 0 ||
             alive.count(kv.second.second) == 0;
    });
  }

  std::vector<double> fitness_;
  std::vector<double> matrix_;
  std::uint64_t pairs_ = 0;
  std::uint64_t games_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t prunes_ = 0;

 private:
  double& cell(pop::SSetId i, pop::SSetId j) {
    return matrix_[static_cast<std::size_t>(i - begin_) * cfg_.ssets + j];
  }
  double value(const pop::Population& pop, pop::SSetId i, pop::SSetId j) {
    ++pairs_;
    const auto& ci = pop.classes()[pop.strategy_class(i)];
    const auto& cj = pop.classes()[pop.strategy_class(j)];
    if (keys_.emplace(game::Strategy::pair_key(ci.hash, cj.hash),
                      std::make_pair(ci.hash, cj.hash))
            .second) {
      ++games_;
      ++inserts_;
    }
    return eval_.pair_payoff(ci.strategy, cj.strategy);
  }

  SimConfig cfg_;
  PairEvaluator eval_;
  pop::SSetId begin_;
  pop::SSetId end_;
  // Cached key → (row, column) content hashes.
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      keys_;
};

game::Strategy random_mem1(util::Xoshiro256& rng, bool mixed) {
  if (mixed) return game::MixedStrategy::random(1, rng);
  return game::PureStrategy::random(1, rng);
}

/// How a driven population changes strategy: each generation one SSet
/// either adopts a random SSet's strategy (probability `adopt`) or mutates
/// — to a fresh random strategy (`mixed_share` of them mixed), or, when
/// `pool` is set, to one of a fixed pool of strategies, so that strategies
/// die and come back.
struct Churn {
  double adopt = 0.5;
  double mixed_share = 0.5;
  std::vector<game::Strategy> pool;
  std::uint64_t generations = 60;
};

/// What a driven run went through, for the tests to assert it happened.
struct ChurnTrace {
  std::uint64_t returns = 0;   ///< contents that died and came back
  std::uint64_t recycled = 0;  ///< class slots re-used by another content
};

/// Drive dedup blocks over `parts` equal row partitions (one block = the
/// serial engine, 2 or 4 = rank blocks) through a seeded mix of mutations
/// and adoptions, and demand that each block's batched column update leave
/// fitness, the payoff matrix, pairs_evaluated, games_played,
/// fitness.cache_inserts and fitness.cache_prunes bitwise where the
/// per-pair model puts them. `trace` records what the run went through.
void run_model_equivalence(const SimConfig& cfg, int parts,
                           const Churn& churn,
                           std::vector<game::Strategy> initial,
                           util::Xoshiro256& rng, ChurnTrace& trace) {
  pop::Population pop(std::move(initial));
  std::vector<std::unique_ptr<obs::MetricsRegistry>> regs;
  std::vector<std::unique_ptr<BlockFitness>> blocks;
  std::vector<PerPairBlock> models;
  const pop::SSetId rows = cfg.ssets / parts;
  for (int p = 0; p < parts; ++p) {
    regs.push_back(std::make_unique<obs::MetricsRegistry>());
    blocks.push_back(std::make_unique<BlockFitness>(
        cfg, p * rows, (p + 1) * rows, nullptr, regs.back().get()));
    blocks.back()->initialize(pop);
    models.emplace_back(cfg, *blocks.back(), *regs.back());
  }

  std::unordered_set<std::uint64_t> ever_alive;
  std::unordered_set<std::uint64_t> alive_before;
  std::vector<std::uint64_t> slot_hash;
  for (std::uint64_t gen = 1; gen <= churn.generations; ++gen) {
    alive_before.clear();
    for (const auto& c : pop.classes()) {
      if (c.members > 0) alive_before.insert(c.hash);
    }
    ever_alive.insert(alive_before.begin(), alive_before.end());
    slot_hash.resize(pop.classes().size());
    for (std::size_t c = 0; c < pop.classes().size(); ++c) {
      if (pop.classes()[c].members > 0) slot_hash[c] = pop.classes()[c].hash;
    }

    const auto k =
        static_cast<pop::SSetId>(util::uniform_below(rng, cfg.ssets));
    if (util::uniform01(rng) < churn.adopt) {
      const auto teacher =
          static_cast<pop::SSetId>(util::uniform_below(rng, cfg.ssets));
      pop.set_strategy(k, pop.strategy(teacher));  // adoption
    } else if (!churn.pool.empty()) {
      pop.set_strategy(k, churn.pool[util::uniform_below(rng, churn.pool.size())]);
    } else {
      pop.set_strategy(
          k, random_mem1(rng, util::uniform01(rng) < churn.mixed_share));
    }
    const pop::StrategyClass& now = pop.classes()[pop.strategy_class(k)];
    if (alive_before.count(now.hash) == 0 && ever_alive.count(now.hash) != 0) {
      ++trace.returns;
    }
    const pop::ClassId slot = pop.strategy_class(k);
    if (slot < slot_hash.size() && slot_hash[slot] != now.hash &&
        alive_before.count(slot_hash[slot]) == 0) {
      ++trace.recycled;
    }

    for (int p = 0; p < parts; ++p) {
      BlockFitness& b = *blocks[p];
      PerPairBlock& m = models[p];
      b.strategy_changed(k, pop, gen);
      m.strategy_changed(k, pop);
      ASSERT_EQ(b.block().size(), m.fitness_.size());
      for (std::size_t r = 0; r < m.fitness_.size(); ++r) {
        ASSERT_EQ(b.block()[r], m.fitness_[r])
            << "gen " << gen << " block " << p << " row " << r;
      }
      for (std::size_t c = 0; c < m.matrix_.size(); ++c) {
        ASSERT_EQ(b.payoff_matrix()[c], m.matrix_[c])
            << "gen " << gen << " block " << p << " cell " << c;
      }
      ASSERT_EQ(b.pairs_evaluated(), m.pairs_);
      ASSERT_EQ(b.games_played(), m.games_) << "gen " << gen;
      const obs::MetricsSnapshot snap = regs[p]->snapshot();
      ASSERT_EQ(snap.counter_value("fitness.cache_inserts"), m.inserts_)
          << "gen " << gen;
      ASSERT_EQ(snap.counter_value("fitness.cache_prunes"), m.prunes_)
          << "gen " << gen << " block " << p;
    }
  }
  for (const PerPairBlock& m : models) {
    if (!churn.pool.empty()) EXPECT_GT(m.prunes_, 0u) << "prune never fired";
  }
}

void run_column_equivalence(int parts, unsigned sset_threads, double noise,
                            double mixed_share, std::uint64_t seed) {
  SimConfig cfg = analytic_config(24, 1);
  cfg.dedup = true;
  cfg.sset_threads = sset_threads;
  cfg.game.noise = noise;
  util::Xoshiro256 rng(seed);
  std::vector<game::Strategy> pool;  // repeated strategies give real classes
  for (int k = 0; k < 6; ++k) {
    pool.push_back(random_mem1(rng, util::uniform01(rng) < mixed_share));
  }
  std::vector<game::Strategy> ss;
  for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
    ss.push_back(pool[util::uniform_below(rng, pool.size())]);
  }
  Churn churn;
  churn.mixed_share = mixed_share;
  ChurnTrace trace;
  run_model_equivalence(cfg, parts, churn, std::move(ss), rng, trace);
}

/// Retention under heavy churn: mutations draw from a pool of memory-one
/// strategies (all 16 pure ones plus `pool_size` - 16 mixed ones), so
/// strategies die and return, freed class slots are recycled and the
/// cached cells outgrow 256 + 8·live², so the prune rule fires. (The 16
/// pure strategies alone could never fire it: their 256 cells stay within
/// the bound.) The cache must keep a dead strategy's cells until that
/// prune, exactly as the model does.
void run_retention_equivalence(int parts, unsigned sset_threads, double noise,
                               std::uint64_t seed, std::size_t pool_size = 120,
                               double adopt = 0.6) {
  SimConfig cfg = analytic_config(16, 1);
  cfg.dedup = true;
  cfg.sset_threads = sset_threads;
  cfg.game.noise = noise;
  util::Xoshiro256 rng(seed);
  Churn churn;
  churn.adopt = adopt;
  churn.generations = 2000;
  for (int bits = 0; bits < 16; ++bits) {
    std::string table;
    for (int s = 0; s < 4; ++s) table += ((bits >> s) & 1) != 0 ? '1' : '0';
    churn.pool.emplace_back(game::PureStrategy::from_bits(table));
  }
  while (churn.pool.size() < pool_size) {
    churn.pool.push_back(random_mem1(rng, true));
  }
  std::vector<game::Strategy> ss;
  for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
    ss.push_back(churn.pool[util::uniform_below(rng, 4)]);
  }
  ChurnTrace trace;
  run_model_equivalence(cfg, parts, churn, std::move(ss), rng, trace);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_GT(trace.returns, 0u) << "no strategy died and came back";
  EXPECT_GT(trace.recycled, 0u) << "no class slot was recycled";
}

TEST(BatchColumn, MixedNoiseFreeMatchesPerPairSerial) {
  run_column_equivalence(1, 0, 0.0, 1.0, 101);
}
TEST(BatchColumn, MixedNoisyMatchesPerPairSerial) {
  run_column_equivalence(1, 0, 0.05, 1.0, 102);
}
TEST(BatchColumn, PureAndMixedMatchesPerPairWithSsetThreads) {
  run_column_equivalence(1, 2, 0.0, 0.5, 103);
}
TEST(BatchColumn, PureNoisyMatchesPerPairOnTwoRankBlocks) {
  run_column_equivalence(2, 0, 0.05, 0.0, 104);
}
TEST(BatchColumn, PureAndMixedMatchesPerPairOnFourRankBlocks) {
  run_column_equivalence(4, 0, 0.05, 0.5, 105);
}
TEST(BatchColumn, PureNoiseFreeMatchesPerPairOnFourRankBlocks) {
  // Every pair takes the walker: the column gather must skip outright.
  run_column_equivalence(4, 0, 0.0, 0.0, 106);
}
TEST(BatchColumn, ForcedScalarMatchesPerPairOnTwoRankBlocks) {
  ForceScalarGuard guard(true);
  run_column_equivalence(2, 2, 0.05, 0.5, 107);
}

TEST(BatchColumn, RetentionMatchesPerPairSerial) {
  run_retention_equivalence(1, 0, 0.0, 201);
}
TEST(BatchColumn, RetentionMatchesPerPairSerialWithSsetThreads) {
  run_retention_equivalence(1, 2, 0.05, 202);
}
TEST(BatchColumn, RetentionMatchesPerPairOnTwoRankBlocks) {
  run_retention_equivalence(2, 0, 0.05, 203);
}
TEST(BatchColumn, RetentionMatchesPerPairOnTwoRankBlocksWithSsetThreads) {
  run_retention_equivalence(2, 2, 0.0, 204);
}
TEST(BatchColumn, RetentionMatchesPerPairOnFourRankBlocks) {
  run_retention_equivalence(4, 0, 0.0, 205);
}
TEST(BatchColumn, RetentionMatchesPerPairOnFourRankBlocksWithSsetThreads) {
  run_retention_equivalence(4, 2, 0.05, 206);
}
TEST(BatchColumn, RetireAndReviveMatchPerPairOnEightRankBlocks) {
  // Two-row blocks and a 200-strategy pool: the table indexes far more
  // contents than it fills, so dead contents' cells are retired out of it
  // and moved back when their strategy returns.
  run_retention_equivalence(8, 0, 0.0, 207, 200, 0.3);
  run_retention_equivalence(8, 2, 0.05, 208, 200, 0.3);
}

}  // namespace
}  // namespace egt::core
