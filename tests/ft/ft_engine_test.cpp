// The fault-tolerance claim, tested the same way the parallel engine's
// equivalence is: a run that loses ranks mid-flight must reproduce the
// fault-free (serial) trajectory — same strategy table, same fitness where
// the recovery path is bit-exact, same merged "engine.*" counters for
// kill-only plans — while the "ft.*" metrics record what the recovery
// machinery actually did.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string_view>

#include "core/engine.hpp"
#include "core/observer.hpp"
#include "ft/ft_engine.hpp"
#include "ft/protocol.hpp"
#include "obs/metrics.hpp"

namespace egt::ft {
namespace {

using core::Engine;
using core::FitnessMode;
using core::SimConfig;

SimConfig base_config() {
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
  auto cfg = base_config();
  cfg.fitness_mode = FitnessMode::Sampled;
  cfg.ssets = 10;
  cfg.generations = 15;
  return cfg;
}

/// Serial reference outcome: final population + "engine.*" counters.
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

// The event counters alone: a false eviction re-plays or re-counts the
// evicted rank's work, so engine.pairs_evaluated is not comparable either
// (DESIGN.md §7).
void expect_events_equal(const FtResult& ft, const Reference& ref) {
  for (const auto& f : core::EngineCounters::kFields) {
    const std::string_view name = f.name;
    if (name == core::EngineCounters::kPartitionDependent ||
        name == "engine.pairs_evaluated") {
      continue;
    }
    EXPECT_EQ(ft.metrics.counter_value(f.name),
              ref.metrics.counter_value(f.name))
        << "counter " << name << " diverged";
  }
}

TEST(FtEngine, FaultFreeMatchesSerial) {
  const auto cfg = base_config();
  const auto ref = serial_reference(cfg);
  const auto ft = run_parallel_ft(cfg, 4);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 0);
  EXPECT_EQ(ft.generations, cfg.generations);
  EXPECT_EQ(ft.metrics.counter_value("ft.recoveries"), 0u);
}

TEST(FtEngine, FaultFreeSampledMatchesSerial) {
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  const auto ft = run_parallel_ft(cfg, 3);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
}

TEST(FtEngine, KillWithFreshCheckpointIsBitExact) {
  // The kill generation is a multiple of checkpoint_every, so the dead
  // rank's last published blob carries exactly the recovery generation:
  // the adopters restore instead of recomputing and even the Analytic
  // incremental fitness state is reproduced bit for bit.
  const auto cfg = base_config();
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.kill(2, 12);
  opt.checkpoint_every = 4;
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 1);
  EXPECT_EQ(ft.metrics.counter_value("ft.recoveries"), 1u);
  EXPECT_EQ(ft.metrics.counter_value("ft.failures_detected"), 1u);
  EXPECT_EQ(ft.metrics.counter_value("ft.faults.kills"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.recovery.blocks_restored"), 1u);
  EXPECT_EQ(ft.metrics.counter_value("ft.recovery.blocks_recomputed"), 0u);
  EXPECT_GE(ft.metrics.counter_value("ft.checkpoint.writes"), 1u);
}

TEST(FtEngine, KillInSampledModeRecomputesBitExact) {
  // Sampled fitness is recomputed from (population, generation) every
  // generation anyway, so recovery-by-recompute is bit-exact without any
  // checkpoint at all.
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.kill(1, 7);
  const auto ft = run_parallel_ft(cfg, 3, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 1);
  EXPECT_EQ(ft.metrics.counter_value("ft.recoveries"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.recovery.blocks_recomputed"), 1u);
  EXPECT_EQ(ft.metrics.counter_value("ft.recovery.blocks_restored"), 0u);
}

TEST(FtEngine, KillWithoutCheckpointPreservesTrajectory) {
  // Analytic recovery without a covering checkpoint recomputes the block
  // from the replicated strategy table: same values up to FP summation
  // order, so the decision trajectory (and the strategy table) still
  // matches the reference exactly.
  const auto cfg = base_config();
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.kill(3, 20);
  const auto ft = run_parallel_ft(cfg, 5, opt);
  expect_table_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.metrics.counter_value("ft.recoveries"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.recovery.blocks_recomputed"), 1u);
}

TEST(FtEngine, TwoSimultaneousKillsAreRecoveredNested) {
  // Both workers die at the same generation: the second death is
  // discovered *during* the first recovery's RECONFIG round and must be
  // handled recursively.
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.kill(1, 8).kill(3, 8);
  const auto ft = run_parallel_ft(cfg, 5, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 2);
  EXPECT_EQ(ft.metrics.counter_value("ft.recoveries"), 2u);
}

TEST(FtEngine, MoranRuleSurvivesAKill) {
  auto cfg = base_config();
  cfg.update_rule = pop::UpdateRule::Moran;
  cfg.pc_rate = 0.5;
  cfg.generations = 40;
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.kill(1, 10);
  opt.checkpoint_every = 5;
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.metrics.counter_value("ft.recoveries"), 1u);
}

TEST(FtEngine, DroppedFitnessReplyIsResentAfterProbe) {
  // The master misses a fitness return, suspects the worker, probes it,
  // finds it alive (false alarm) and resends the request. Nobody dies and
  // the trajectory is untouched.
  const auto cfg = base_config();
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.drop({kAny, 0, tag::kFit, /*skip=*/0, /*count=*/1, 0});
  opt.detect_timeout_ms = 80.0;
  opt.ping_timeout_ms = 40.0;
  const auto ft = run_parallel_ft(cfg, 3, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 0);
  EXPECT_EQ(ft.metrics.counter_value("ft.faults.messages_dropped"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.suspected_ranks"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.false_alarms"), 1u);
  EXPECT_GE(ft.metrics.counter_value("ft.resends"), 1u);
}

TEST(FtEngine, DroppedDecisionIsHealed) {
  // A lost decision broadcast does not stall anyone: the worker catches up
  // from the decision restated in the next plan (or the Moran gather
  // request) and the replicas converge again.
  const auto cfg = base_config();
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.drop({0, kAny, tag::kDecide, /*skip=*/0, /*count=*/1, 0});
  const auto ft = run_parallel_ft(cfg, 3, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 0);
  EXPECT_GE(ft.metrics.counter_value("ft.heals"), 1u);
}

TEST(FtEngine, DelayedAckIsNotAFailure) {
  const auto cfg = base_config();
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.delay({kAny, 0, tag::kPlanAck, /*skip=*/3, /*count=*/1, 30});
  const auto ft = run_parallel_ft(cfg, 3, opt);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 0);
  EXPECT_EQ(ft.metrics.counter_value("ft.failures_detected"), 0u);
  EXPECT_EQ(ft.metrics.counter_value("ft.faults.messages_delayed"), 1u);
}

TEST(FtEngine, FalsePositiveEvictionPreservesTrajectory) {
  // A healthy worker whose ack AND probe replies are all eaten by the
  // network gets evicted. That wastes work (documented pairs over-count)
  // but must not bend the trajectory: the master recovers the rank's
  // blocks as if it had died.
  const auto cfg = base_config();
  const auto ref = serial_reference(cfg);
  FtRunOptions opt;
  opt.plan.drop({2, 0, tag::kPlanAck, /*skip=*/5, /*count=*/1, 0});
  opt.plan.drop({2, 0, tag::kPong, /*skip=*/0, /*count=*/8, 0});
  opt.detect_timeout_ms = 60.0;
  opt.ping_timeout_ms = 30.0;
  opt.max_pings = 2;
  const auto ft = run_parallel_ft(cfg, 4, opt);
  expect_table_equal(ft, ref);
  EXPECT_EQ(ft.ranks_lost, 1);
  EXPECT_EQ(ft.metrics.counter_value("ft.failures_detected"), 1u);
  EXPECT_EQ(ft.metrics.counter_value("ft.faults.kills"), 0u)
      << "nobody actually died";
  expect_events_equal(ft, ref);
}

TEST(FtEngine, FtCountersArePreRegistered) {
  // ft.* must appear in every manifest — including the fault-free ones —
  // so dashboards see explicit zeros rather than missing series.
  const auto ft = run_parallel_ft(base_config(), 2);
  for (const char* name :
       {"ft.recoveries", "ft.failures_detected", "ft.suspected_ranks",
        "ft.false_alarms", "ft.resends", "ft.heals", "ft.faults.kills",
        "ft.checkpoint.writes", "ft.checkpoint.bytes",
        "ft.recovery.blocks_restored", "ft.recovery.blocks_recomputed",
        "ft.recovery.pairs_evaluated"}) {
    EXPECT_NE(ft.metrics.find_counter(name), nullptr)
        << name << " missing from merged metrics";
  }
}

TEST(FtEngine, SingleRankRunWorks) {
  // Degenerate deployment: the master owns everything and there is nobody
  // to lose. Still must match the serial engine.
  const auto cfg = sampled_config();
  const auto ref = serial_reference(cfg);
  const auto ft = run_parallel_ft(cfg, 1);
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_engine_counters_equal(ft, ref);
}

TEST(FtEngine, MergesIntoCallerRegistry) {
  obs::MetricsRegistry reg;
  FtRunOptions opt;
  opt.metrics = &reg;
  (void)run_parallel_ft(sampled_config(), 3, opt);
  EXPECT_GT(reg.snapshot().counter_value("engine.generations"), 0u);
}

TEST(FtEngine, RejectsInexecutablePlansAndOptions) {
  const auto cfg = sampled_config();
  {
    // Killing the Nature Agent is only recoverable with a warm standby
    // holding the decision log.
    FtRunOptions opt;
    opt.standby_replicas = 0;
    opt.plan.kill(0, 3);
    EXPECT_THROW((void)run_parallel_ft(cfg, 3, opt), std::invalid_argument);
  }
  {
    FtRunOptions opt;
    opt.plan.kill(7, 3);  // no such rank
    EXPECT_THROW((void)run_parallel_ft(cfg, 3, opt), std::invalid_argument);
  }
  {
    FtRunOptions opt;
    opt.standby_replicas = -1;
    EXPECT_THROW((void)run_parallel_ft(cfg, 3, opt), std::invalid_argument);
  }
  {
    FtRunOptions opt;
    opt.checkpoint_keep = 0;
    EXPECT_THROW((void)run_parallel_ft(cfg, 3, opt), std::invalid_argument);
  }
  {
    FtRunOptions opt;
    opt.master_silence_ms = -1.0;
    EXPECT_THROW((void)run_parallel_ft(cfg, 3, opt), std::invalid_argument);
  }
  {
    FtRunOptions opt;
    opt.detect_timeout_ms = -1.0;
    EXPECT_THROW((void)run_parallel_ft(cfg, 3, opt), std::invalid_argument);
  }
  {
    FtRunOptions opt;
    opt.max_pings = 0;
    EXPECT_THROW((void)run_parallel_ft(cfg, 3, opt), std::invalid_argument);
  }
  EXPECT_THROW((void)run_parallel_ft(cfg, 11), std::invalid_argument)
      << "more ranks than SSets";
}

// -- mid-generation adopts rebuilt from the generation-start replica -------
//
// A block adopted in the middle of generation g is rebuilt from the
// rank's replica of the strategy table at the top of g, and then replays
// g's updates applied so far. Kills fire when a PLAN arrives, before any
// update, so these cases lose a rank later: a standby whose log ack and
// probe replies are dropped during the write-ahead replication of g
// (every update of g applied at the master), or a range owner whose reply
// to the final gather is dropped (every update of the last generation
// applied on every rank).

SimConfig churn_config(FitnessMode mode, pop::UpdateRule rule) {
  SimConfig cfg;
  cfg.ssets = 8;
  cfg.memory = 1;
  cfg.generations = 400;
  cfg.pc_rate = 0.9;
  cfg.mutation_rate = 0.5;
  cfg.seed = 77;
  cfg.fitness_mode = mode;
  cfg.update_rule = rule;
  return cfg;
}

/// The first generation of the serial run in which one SSet changes
/// twice: it adopts a strategy (PC learner or Moran dying SSet), then
/// mutates.
std::optional<std::uint64_t> first_double_change(const SimConfig& cfg) {
  std::optional<std::uint64_t> found;
  core::CallbackObserver watch(
      [&](const pop::Population&, const core::GenerationRecord& r) {
        if (!found && r.pc && r.pc->adopted && r.mutation &&
            *r.mutation == r.pc->learner) {
          found = r.generation;
        }
      });
  Engine serial(cfg);
  serial.run_all(&watch);
  return found;
}

// Drop `reply_tag` from `rank` to the master once, after `skip` of them
// went through, and every probe reply, so the master evicts the rank while
// it waits for that reply.
FtRunOptions evict_on(int rank, int reply_tag, std::uint64_t skip) {
  FtRunOptions opt;
  opt.plan.drop({rank, 0, reply_tag, skip, /*count=*/1, 0});
  opt.plan.drop({rank, 0, tag::kPong, /*skip=*/0, /*count=*/2, 0});
  opt.detect_timeout_ms = 60.0;
  opt.ping_timeout_ms = 30.0;
  opt.max_pings = 2;
  return opt;
}

void expect_one_mid_gen_recovery(const FtResult& ft) {
  EXPECT_EQ(ft.ranks_lost, 1);
  EXPECT_EQ(ft.metrics.counter_value("ft.faults.kills"), 0u);
  EXPECT_GE(ft.metrics.counter_value("ft.recovery.blocks_recomputed"), 1u);
}

void run_standby_lost_during_replicate(FitnessMode mode,
                                       pop::UpdateRule rule) {
  auto cfg = churn_config(mode, rule);
  const auto g = first_double_change(cfg);
  ASSERT_TRUE(g.has_value());
  cfg.generations = *g + 6;  // keep using the rebuilt blocks afterwards
  const auto ref = serial_reference(cfg);
  // Rank 1 is the standby; it acks one log record per generation.
  const auto ft = run_parallel_ft(cfg, 4, evict_on(1, tag::kLogAck, *g));
  expect_table_equal(ft, ref);
  expect_fitness_equal(ft, ref);
  expect_events_equal(ft, ref);
  expect_one_mid_gen_recovery(ft);
}

TEST(FtEngine, StandbyLostDuringReplicateSampled) {
  run_standby_lost_during_replicate(FitnessMode::Sampled,
                                    pop::UpdateRule::PairwiseComparison);
}

// Analytic recovery recomputes the adopted block from scratch, which is
// exact only up to FP summation order in general (DESIGN.md §7); with pure
// memory-1 strategies at zero noise the sums here come out bit-equal.
TEST(FtEngine, StandbyLostDuringReplicateAnalytic) {
  run_standby_lost_during_replicate(FitnessMode::Analytic,
                                    pop::UpdateRule::PairwiseComparison);
}

TEST(FtEngine, StandbyLostDuringReplicateMoranAnalytic) {
  run_standby_lost_during_replicate(FitnessMode::Analytic,
                                    pop::UpdateRule::Moran);
}

void run_owner_lost_during_final_gather(FitnessMode mode) {
  auto cfg = churn_config(mode, pop::UpdateRule::PairwiseComparison);
  // The double change happens in the last generation, so every rank has
  // applied both updates of one SSet when the final gather loses rank 2.
  const auto g = first_double_change(cfg);
  ASSERT_TRUE(g.has_value());
  cfg.generations = *g + 1;
  const auto ref = serial_reference(cfg);
  const auto ft = run_parallel_ft(cfg, 4, evict_on(2, tag::kFinal, 0));
  expect_table_equal(ft, ref);
  // The final fitness is the top-of-generation snapshot, which the
  // adopters rebuild from the replica alone.
  expect_fitness_equal(ft, ref);
  expect_events_equal(ft, ref);
  expect_one_mid_gen_recovery(ft);
}

TEST(FtEngine, OwnerLostDuringFinalGatherSampled) {
  run_owner_lost_during_final_gather(FitnessMode::Sampled);
}

TEST(FtEngine, OwnerLostDuringFinalGatherAnalytic) {
  run_owner_lost_during_final_gather(FitnessMode::Analytic);
}

}  // namespace
}  // namespace egt::ft
