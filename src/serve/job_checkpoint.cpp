#include "serve/job_checkpoint.hpp"

#include "core/wire.hpp"

namespace egt::serve {

std::vector<std::byte> encode_job_checkpoint(const JobCheckpoint& ckpt) {
  core::wire::Writer w;
  w.u64(kJobCheckpointMagic);
  w.u32(kJobCheckpointVersion);
  w.u32(ckpt.attempts);
  w.u32(ckpt.preemptions);
  ckpt.counters.encode(w);
  w.bytes(ckpt.core);
  w.u32(static_cast<std::uint32_t>(ckpt.fitness.size()));
  w.doubles(ckpt.fitness.data(), ckpt.fitness.size());
  w.u32(static_cast<std::uint32_t>(ckpt.matrix.size()));
  w.doubles(ckpt.matrix.data(), ckpt.matrix.size());
  w.u32(static_cast<std::uint32_t>(ckpt.dedup.size()));
  for (const core::BlockFitness::DedupEntry& e : ckpt.dedup) {
    w.u64(e.a);
    w.u64(e.b);
    w.f64(e.payoff);
  }
  return w.take();
}

JobCheckpoint decode_job_checkpoint(const std::vector<std::byte>& blob) {
  core::wire::Reader r(blob, "job checkpoint");
  if (r.u64("magic") != kJobCheckpointMagic) {
    r.fail("not a job checkpoint");
  }
  const std::uint32_t version = r.u32("version");
  if (version != kJobCheckpointVersion) {
    r.fail("unsupported job checkpoint version " + std::to_string(version));
  }
  JobCheckpoint ckpt;
  ckpt.attempts = r.u32("attempts");
  ckpt.preemptions = r.u32("preemptions");
  ckpt.counters = EngineCounters::decode(r);
  ckpt.core = r.bytes("core checkpoint");
  const std::uint32_t nf = r.u32("fitness count");
  ckpt.fitness = r.doubles(nf, "fitness values");
  const std::uint32_t nm = r.u32("matrix count");
  ckpt.matrix = r.doubles(nm, "matrix values");
  const std::uint32_t nd = r.u32("dedup count");
  ckpt.dedup.reserve(nd);
  for (std::uint32_t i = 0; i < nd; ++i) {
    core::BlockFitness::DedupEntry e;
    e.a = r.u64("dedup row hash");
    e.b = r.u64("dedup col hash");
    e.payoff = r.f64("dedup payoff");
    ckpt.dedup.push_back(e);
  }
  r.expect_exhausted();
  return ckpt;
}

JobCheckpoint capture_job_checkpoint(const core::Engine& engine,
                                     const EngineCounters& counters,
                                     std::uint32_t attempts,
                                     std::uint32_t preemptions) {
  JobCheckpoint ckpt;
  ckpt.attempts = attempts;
  ckpt.preemptions = preemptions;
  ckpt.counters = counters;
  ckpt.core = core::save_checkpoint(engine);
  const core::BlockFitness& fit = engine.fitness_block();
  ckpt.fitness.assign(fit.block().begin(), fit.block().end());
  ckpt.matrix.assign(fit.payoff_matrix().begin(), fit.payoff_matrix().end());
  ckpt.dedup = fit.dedup_cache();
  return ckpt;
}

core::Engine resume_job_engine(const core::SimConfig& config,
                               JobCheckpoint ckpt,
                               obs::MetricsRegistry* metrics) {
  core::Engine::RestoredState state = core::decode_checkpoint(config, ckpt.core);
  core::Engine::FitnessRestore fit{std::move(ckpt.fitness),
                                   std::move(ckpt.matrix),
                                   std::move(ckpt.dedup)};
  return core::Engine(config, std::move(state), std::move(fit), metrics);
}

}  // namespace egt::serve
