// Nature Agent failover, tested against the same oracle as every other
// engine: the serial run. Killing the master (rank 0) — alone, together
// with a worker, or cascading into the promoted standby — must still
// reproduce the fault-free strategy table bit for bit, because the
// decision log replicates Nature's RNG trajectory ahead of every decision
// broadcast. Where the recovery path is bit-exact (Sampled recompute,
// fresh block checkpoints) fitness and the merged "engine.*" counters are
// asserted too.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/engine.hpp"
#include "ft/ft_engine.hpp"
#include "obs/metrics.hpp"

namespace egt::ft {
namespace {

using core::Engine;
using core::FitnessMode;
using core::SimConfig;

SimConfig analytic_config() {
  SimConfig cfg;
  cfg.ssets = 24;
  cfg.memory = 1;
  cfg.generations = 60;
  cfg.pc_rate = 0.4;
  cfg.mutation_rate = 0.2;
  cfg.seed = 2024;
  cfg.fitness_mode = FitnessMode::Analytic;
  return cfg;
}

SimConfig sampled_config() {
  auto cfg = analytic_config();
  cfg.fitness_mode = FitnessMode::Sampled;
  cfg.ssets = 10;
  cfg.generations = 15;
  return cfg;
}

/// Failover tests wait out master-silence timeouts, so shrink them: the
/// per-generation compute here is microseconds, and a false-positive
/// eviction would show up as a counter mismatch anyway.
FtRunOptions fast_failover(FtRunOptions opt = {}) {
  opt.detect_timeout_ms = 150.0;
  opt.ping_timeout_ms = 60.0;
  opt.max_pings = 2;
  opt.master_silence_ms = 450.0;
  opt.election_window_ms = 80.0;
  return opt;
}

struct Reference {
  pop::Population population;
  obs::MetricsSnapshot metrics;
};

Reference serial_reference(const SimConfig& cfg) {
  obs::MetricsRegistry reg;
  Engine serial(cfg, &reg);
  serial.run_all();
  return {serial.population(), reg.snapshot()};
}

void expect_table_equal(const FtResult& ft, const Reference& ref) {
  ASSERT_EQ(ft.population.size(), ref.population.size());
  EXPECT_EQ(ft.population.table_hash(), ref.population.table_hash())
      << "strategy tables diverged";
  for (pop::SSetId i = 0; i < ref.population.size(); ++i) {
    ASSERT_TRUE(ft.population.strategy(i) == ref.population.strategy(i))
        << "strategy diverged at SSet " << i;
  }
}

void expect_fitness_equal(const FtResult& ft, const Reference& ref) {
  for (pop::SSetId i = 0; i < ref.population.size(); ++i) {
    ASSERT_DOUBLE_EQ(ft.population.fitness(i), ref.population.fitness(i))
        << "fitness diverged at SSet " << i;
  }
}

// Every engine.* counter but games: the dedup class-pair table is per
// block, so games depend on the row partition (DESIGN.md §8).
void expect_engine_counters_equal(const FtResult& ft, const Reference& ref) {
  for (const auto& f : core::EngineCounters::kFields) {
    if (f.name == core::EngineCounters::kPartitionDependent) continue;
    const char* name = f.name;
    EXPECT_EQ(ft.metrics.counter_value(name), ref.metrics.counter_value(name))
        << "counter " << name << " diverged";
  }
}

TEST(FtFailover, MasterKillFailsOverBitExact) {
  // Rank 0 dies at the top of generation 7; the standby restores Nature
  // from its newest decision-log record and finishes the run. Sampled
  // recompute is a pure function of (population, generation), so even
  // fitness is bit-identical.
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  auto opt = fast_failover();
  opt.plan.kill(0, 7);
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 1);
  EXPECT_EQ(ft.failovers, 1);
  EXPECT_EQ(ft.metrics.counter_value("ft.failovers"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.elections"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.log.appends"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.log.records"), 1u);
  EXPECT_EQ(ft.generations, cfg.generations);
}

TEST(FtFailover, MasterKillWithCheckpointsRestoresBitExact) {
  // The kill generation is a multiple of checkpoint_every, so the dead
  // master's own blocks are covered by an intact fresh checkpoint: the
  // successor restores them instead of recomputing and even the Analytic
  // incremental fitness state survives bit for bit.
  const auto cfg = analytic_config();
  const auto ref = serial_reference(cfg);
  auto opt = fast_failover();
  opt.plan.kill(0, 12);
  opt.checkpoint_every = 4;
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.failovers, 1);
  EXPECT_GE(ft.metrics.counter_value("ft.recovery.blocks_restored"), 1u);
  EXPECT_EQ(ft.metrics.counter_value("ft.recovery.blocks_recomputed"), 0u);
}

TEST(FtFailover, MasterKillAtGenerationZero) {
  // Rank 0 dies before planning anything: every decision log is empty, the
  // lowest surviving rank wins the election and runs the whole simulation
  // from scratch.
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  auto opt = fast_failover();
  opt.plan.kill(0, 0);
  const auto ft = run_parallel_ft(cfg, 3, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.failovers, 1);
  EXPECT_EQ(ft.generations, cfg.generations);
}

TEST(FtFailover, MasterAndWorkerKilledSameGeneration) {
  // Rank 0 dies at the top of generation 7 and rank 2's kill fires on the
  // promoted master's re-broadcast of that same generation's plan: the
  // successor must handle a worker death in its very first generation.
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  auto opt = fast_failover();
  opt.plan.kill(0, 7);
  opt.plan.kill(2, 7);
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 2);
  EXPECT_EQ(ft.failovers, 1);
  EXPECT_GE(ft.metrics.counter_value("ft.recoveries"), 1u);
}

TEST(FtFailover, CascadingMasterThenStandbyKill) {
  // With two standbys the log survives a cascade: rank 0 dies, rank 1 is
  // promoted, then rank 1 dies too. Rank 2 — which kept receiving the log
  // from both masters — wins the second election and finishes the run.
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  auto opt = fast_failover();
  opt.standby_replicas = 2;
  opt.plan.kill(0, 5);
  opt.plan.kill(1, 9);
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 2);
  EXPECT_EQ(ft.failovers, 2);
  EXPECT_EQ(ft.metrics.counter_value("ft.failovers"), 2u);
}

TEST(FtFailover, AbortsWhenEveryLogCopyIsLost) {
  // One standby, and both the master and that standby die at the same
  // generation boundary: the survivors' applied state is ahead of every
  // remaining log, so the run must abort loudly instead of silently
  // diverging from the fault-free trajectory.
  const auto cfg = sampled_config();
  auto opt = fast_failover();
  opt.standby_replicas = 1;
  opt.plan.kill(0, 7);
  opt.plan.kill(1, 7);
  EXPECT_THROW((void)run_parallel_ft(cfg, 4, opt), std::runtime_error);
}

TEST(FtFailover, TornCheckpointFallsBackAndStaysExact) {
  // Rank 2's generation-8 checkpoint is torn mid-write; when rank 2 dies
  // the adopters detect the damage via the CRC footer, fall back (to an
  // older intact entry or a recompute) and the table still matches.
  const auto cfg = analytic_config();
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;  // master survives: default timeouts
  opt.checkpoint_every = 4;
  opt.plan.torn_checkpoint(2, 8);
  opt.plan.kill(2, 10);
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.failovers, 0);
  EXPECT_GE(ft.metrics.counter_value("ft.faults.checkpoints_torn"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.checkpoint.fallbacks"), 1u);
}

}  // namespace
}  // namespace egt::ft
