// The preemption/resume unit: a job checkpointed mid-run and resumed
// through the Engine block-restore path must finish bit-identical to an
// undisturbed run — strategy table, fitness doubles, AND the accumulated
// engine.* counters (the property plain core checkpoints cannot give,
// since their restore pays a fresh initialization pass).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/engine.hpp"
#include "core/trace.hpp"
#include "obs/metrics.hpp"
#include "serve/job_checkpoint.hpp"

namespace egt::serve {
namespace {

core::SimConfig small_config(core::FitnessMode mode) {
  core::SimConfig cfg;
  cfg.ssets = 10;
  cfg.memory = 1;
  cfg.generations = 30;
  cfg.pc_rate = 0.4;
  cfg.mutation_rate = 0.2;
  cfg.seed = 20260808;
  cfg.fitness_mode = mode;
  return cfg;
}

EngineCounters counters_of(const obs::MetricsRegistry& reg) {
  return EngineCounters::from(reg.snapshot());
}

class JobCheckpointModes
    : public ::testing::TestWithParam<core::FitnessMode> {};

TEST_P(JobCheckpointModes, ResumeIsBitIdenticalIncludingCounters) {
  const core::SimConfig cfg = small_config(GetParam());

  // Oracle: one undisturbed run.
  obs::MetricsRegistry oracle_reg;
  core::Engine oracle(cfg, &oracle_reg);
  oracle.run(cfg.generations);
  const EngineCounters want_counters = counters_of(oracle_reg);

  // Interrupted run: stop mid-way, capture, encode/decode, resume.
  obs::MetricsRegistry first_reg;
  core::Engine first(cfg, &first_reg);
  const std::uint64_t cut = cfg.generations / 2;
  while (first.generation() < cut) first.step();
  const JobCheckpoint captured = capture_job_checkpoint(
      first, counters_of(first_reg), /*attempts=*/1, /*preemptions=*/1);
  const std::vector<std::byte> blob = encode_job_checkpoint(captured);

  JobCheckpoint decoded = decode_job_checkpoint(blob);
  EXPECT_EQ(decoded.attempts, 1u);
  EXPECT_EQ(decoded.preemptions, 1u);
  const EngineCounters base = decoded.counters;
  obs::MetricsRegistry resumed_reg;
  core::Engine resumed =
      resume_job_engine(cfg, std::move(decoded), &resumed_reg);
  EXPECT_EQ(resumed.generation(), cut);
  while (resumed.generation() < cfg.generations) resumed.step();

  EXPECT_EQ(resumed.population().table_hash(),
            oracle.population().table_hash());
  const auto got_fit = resumed.population().fitness();
  const auto want_fit = oracle.population().fitness();
  ASSERT_EQ(got_fit.size(), want_fit.size());
  EXPECT_EQ(std::memcmp(got_fit.data(), want_fit.data(),
                        got_fit.size() * sizeof(double)),
            0);
  EXPECT_EQ(core::hash_fitness(got_fit), core::hash_fitness(want_fit));

  // The headline property: base (saved) + resumed growth == undisturbed.
  const EngineCounters total = base + counters_of(resumed_reg);
  EXPECT_TRUE(total == want_counters)
      << "pairs " << total.pairs_evaluated << " vs "
      << want_counters.pairs_evaluated << ", games " << total.games_played
      << " vs " << want_counters.games_played;
}

INSTANTIATE_TEST_SUITE_P(AllFitnessModes, JobCheckpointModes,
                         ::testing::Values(core::FitnessMode::Sampled,
                                           core::FitnessMode::SampledFrozen,
                                           core::FitnessMode::Analytic));

TEST(JobCheckpoint, DamageIsRejectedNotMisread) {
  const core::SimConfig cfg = small_config(core::FitnessMode::Analytic);
  obs::MetricsRegistry reg;
  core::Engine engine(cfg, &reg);
  while (engine.generation() < 5) engine.step();
  std::vector<std::byte> blob = encode_job_checkpoint(
      capture_job_checkpoint(engine, counters_of(reg), 1, 0));

  // Magic damage.
  std::vector<std::byte> bad = blob;
  bad[0] ^= std::byte{0xff};
  EXPECT_THROW(decode_job_checkpoint(bad), core::CheckpointError);
  // Truncation.
  std::vector<std::byte> cut(blob.begin(), blob.begin() + 40);
  EXPECT_THROW(decode_job_checkpoint(cut), core::CheckpointError);
  // Trailing garbage.
  std::vector<std::byte> extra = blob;
  extra.push_back(std::byte{0x42});
  EXPECT_THROW(decode_job_checkpoint(extra), core::CheckpointError);
}

// Pins the on-disk layout: every field in the version-1 order, the seven
// counters as generations, pc_events, adoptions, moran_events, mutations,
// pairs_evaluated, games_played. A reordering of the shared counter list
// would silently misread every checkpoint already on disk.
TEST(JobCheckpoint, EncodingKeepsTheVersionOneFieldOrder) {
  JobCheckpoint ckpt;
  ckpt.attempts = 3;
  ckpt.preemptions = 2;
  ckpt.counters = EngineCounters{11, 12, 13, 14, 15, 16, 17};
  ckpt.core = {std::byte{0xab}, std::byte{0xcd}};
  ckpt.fitness = {1.5, -2.25};
  ckpt.matrix = {0.125};
  ckpt.dedup = {core::BlockFitness::DedupEntry{21, 22, 3.5}};

  std::vector<std::byte> want;
  auto put = [&](const auto& v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    want.insert(want.end(), p, p + sizeof v);
  };
  put(std::uint64_t{0x4547544a434b5031ull});  // "EGTJCKP1"
  put(std::uint32_t{1});                      // version
  put(std::uint32_t{3});                      // attempts
  put(std::uint32_t{2});                      // preemptions
  for (std::uint64_t c = 11; c <= 17; ++c) put(c);
  put(std::uint32_t{2});
  want.push_back(std::byte{0xab});
  want.push_back(std::byte{0xcd});
  put(std::uint32_t{2});
  put(1.5);
  put(-2.25);
  put(std::uint32_t{1});
  put(0.125);
  put(std::uint32_t{1});
  put(std::uint64_t{21});
  put(std::uint64_t{22});
  put(3.5);

  EXPECT_EQ(kJobCheckpointVersion, 1u);
  const std::vector<std::byte> got = encode_job_checkpoint(ckpt);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want);

  const JobCheckpoint back = decode_job_checkpoint(got);
  EXPECT_TRUE(back.counters == ckpt.counters);
  EXPECT_EQ(back.counters.generations, 11u);
  EXPECT_EQ(back.counters.games_played, 17u);
}

TEST(JobCheckpoint, ResumeValidatesTheConfigFingerprint) {
  const core::SimConfig cfg = small_config(core::FitnessMode::Sampled);
  obs::MetricsRegistry reg;
  core::Engine engine(cfg, &reg);
  while (engine.generation() < 5) engine.step();
  JobCheckpoint ckpt =
      capture_job_checkpoint(engine, counters_of(reg), 1, 0);
  core::SimConfig other = cfg;
  other.seed += 1;
  EXPECT_THROW(resume_job_engine(other, std::move(ckpt), nullptr),
               core::CheckpointError);
}

}  // namespace
}  // namespace egt::serve
