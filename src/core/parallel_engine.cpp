#include "core/parallel_engine.hpp"

#include <cstring>
#include <deque>
#include <optional>

#include "core/engine.hpp"
#include "core/generation.hpp"
#include "core/wire.hpp"
#include "obs/metrics_observer.hpp"
#include "obs/tracer.hpp"
#include "par/partition.hpp"
#include "util/check.hpp"

namespace egt::core {

std::vector<std::byte> encode_generation_plan(const pop::GenerationPlan& plan) {
  wire::Writer w;
  w.u8(plan.pc ? 1 : 0);
  if (plan.pc) {
    w.u32(plan.pc->teacher);
    w.u32(plan.pc->learner);
  }
  w.u8(plan.moran ? 1 : 0);
  w.u8(plan.mutation ? 1 : 0);
  if (plan.mutation) {
    w.u32(plan.mutation->target);
    w.bytes(plan.mutation->strategy.serialize());
  }
  return w.take();
}

pop::GenerationPlan decode_generation_plan(const std::vector<std::byte>& in) {
  wire::Reader r(in, "generation plan");
  pop::GenerationPlan plan;
  if (r.u8("has pc") != 0) {
    pop::GenerationPlan::Pc pc;
    pc.teacher = r.u32("pc teacher");
    pc.learner = r.u32("pc learner");
    plan.pc = pc;
  }
  plan.moran = r.u8("has moran") != 0;
  if (r.u8("has mutation") != 0) {
    pop::GenerationPlan::Mutation mut;
    mut.target = r.u32("mutation target");
    mut.strategy = game::Strategy::deserialize(r.bytes("mutation strategy"));
    plan.mutation = std::move(mut);
  }
  r.expect_exhausted();
  return plan;
}

namespace {

constexpr int kTagFitTeacher = 1;
constexpr int kTagFitLearner = 2;

// -- the collective transport -------------------------------------------------

// PaperBcast: rank 0 holds the Nature Agent; plans and decisions travel
// down the binomial broadcast tree, the PC pair's fitness travels
// point-to-point to rank 0, the Moran gather collects at rank 0.
// ReplicatedNature: every rank replays Nature, so plans and decisions need
// no messages; the pair's fitness is an allreduce, the gather an allgather.
class CollectiveTransport final : public GenerationTransport {
 public:
  CollectiveTransport(par::Comm& comm, const SimConfig& config,
                      const par::BlockPartition& part, const BlockFitness& fit)
      : comm_(comm),
        config_(config),
        part_(part),
        fit_(fit),
        replicated_(config.comm_pattern == CommPattern::ReplicatedNature) {}

  void share_plan(std::uint64_t, pop::GenerationPlan& plan) override {
    if (replicated_) return;
    std::vector<std::byte> wire;
    if (comm_.rank() == 0) wire = encode_generation_plan(plan);
    comm_.bcast(wire, 0);
    if (comm_.rank() != 0) plan = decode_generation_plan(wire);
  }

  std::pair<double, double> pair_fitness(pop::SSetId teacher,
                                         pop::SSetId learner) override {
    const int rank = comm_.rank();
    if (replicated_) {
      std::vector<double> pair(2, 0.0);
      if (owner_of(teacher) == rank) pair[0] = fit_.fitness(teacher);
      if (owner_of(learner) == rank) pair[1] = fit_.fitness(learner);
      pair = comm_.allreduce(std::move(pair), par::Comm::ReduceOp::Sum);
      return {pair[0], pair[1]};
    }
    // Owners return fitness to the Nature Agent point-to-point (the
    // paper's torus sends).
    if (rank != 0 && owner_of(teacher) == rank) {
      comm_.send_value(0, kTagFitTeacher, fit_.fitness(teacher));
    }
    if (rank != 0 && owner_of(learner) == rank) {
      comm_.send_value(0, kTagFitLearner, fit_.fitness(learner));
    }
    if (rank != 0) return {0.0, 0.0};
    return {fetch(teacher, kTagFitTeacher), fetch(learner, kTagFitLearner)};
  }

  void share_adoption(std::uint64_t, bool& adopted, bool) override {
    if (replicated_) return;
    std::uint8_t wire = adopted ? 1 : 0;
    comm_.bcast_value(wire, 0);
    adopted = wire != 0;
  }

  std::span<const double> gather_fitness(std::uint64_t, bool) override {
    return gather(fit_.block(), /*everywhere=*/replicated_);
  }

  /// Assemble every rank's `mine` (the values of its rows) into the whole
  /// vector, at every rank or at rank 0 only (the others get an empty
  /// span).
  std::span<const double> gather(std::span<const double> mine,
                                 bool everywhere) {
    std::vector<std::byte> bytes(mine.size() * sizeof(double));
    std::memcpy(bytes.data(), mine.data(), bytes.size());
    std::vector<std::vector<std::byte>> blocks;
    if (everywhere) {
      blocks = comm_.allgather(std::move(bytes));
    } else {
      blocks = comm_.gather(std::move(bytes), 0);
      if (comm_.rank() != 0) return {};
    }
    full_.assign(config_.ssets, 0.0);
    for (std::size_t r = 0; r < blocks.size(); ++r) {
      std::memcpy(full_.data() + part_.begin(r), blocks[r].data(),
                  blocks[r].size());
    }
    return full_;
  }

  void share_moran(pop::MoranPick& pick) override {
    if (replicated_) return;
    std::uint64_t wire =
        (static_cast<std::uint64_t>(pick.reproducer) << 32) | pick.dying;
    comm_.bcast_value(wire, 0);
    pick.reproducer = static_cast<pop::SSetId>(wire >> 32);
    pick.dying = static_cast<pop::SSetId>(wire & 0xffffffffu);
  }

  double mean_fitness(std::uint64_t, const GenerationDecision&) override {
    // Every rank owns a block of the fitness vector; reduce the block sums
    // so the streamed mean is the global one.
    double local = 0.0;
    for (const double f : fit_.block()) local += f;
    return comm_.reduce_scalar(local, par::Comm::ReduceOp::Sum, 0) /
           static_cast<double>(config_.ssets);
  }

 private:
  int owner_of(pop::SSetId i) const { return static_cast<int>(part_.owner(i)); }

  double fetch(pop::SSetId i, int tag) {
    return owner_of(i) == 0 ? fit_.fitness(i)
                            : comm_.recv_value<double>(owner_of(i), tag);
  }

  par::Comm& comm_;
  const SimConfig& config_;
  const par::BlockPartition& part_;
  const BlockFitness& fit_;
  const bool replicated_;
  std::vector<double> full_;  // the last assembled gather
};

// -- per-rank program ---------------------------------------------------------

void rank_main(par::Comm& comm, const SimConfig& config,
               std::optional<pop::Population>& result_slot,
               obs::MetricsRegistry& registry,
               const ParallelRunOptions& options) {
  const int rank = comm.rank();
  const auto nranks = static_cast<std::uint64_t>(comm.size());
  // Flight-recorder attribution: this thread's events land on pid = rank.
  const obs::TraceRankScope trace_rank(rank);
  obs::Tracer::set_thread_name("rank.main");

  // Every rank derives the identical initial state from the seed alone —
  // the paper's "each node can calculate its position ... individually".
  pop::Population pop = make_initial_population(config);
  // Every rank reconstructs the identical interaction graph locally.
  const auto graph = make_shared_graph(config);
  const par::BlockPartition part(config.ssets, nranks);
  const auto me = static_cast<std::uint64_t>(rank);
  BlockRows rows(BlockFitness(config, static_cast<pop::SSetId>(part.begin(me)),
                              static_cast<pop::SSetId>(part.end(me)), graph,
                              &registry));
  EngineInstruments ins(&registry, /*master=*/rank == 0);
  CollectiveTransport transport(comm, config, part, rows.fit());
  GenerationProtocol protocol(pop, rows, transport, ins);

  std::optional<pop::NatureAgent> nature;
  if (config.comm_pattern == CommPattern::ReplicatedNature || rank == 0) {
    auto nc = config.nature_config();
    nc.graph = graph;
    nature.emplace(nc);
    protocol.set_nature(&*nature);
  }
  std::optional<obs::MetricsObserver> progress;
  if (options.progress && rank == 0) {
    obs::MetricsObserverOptions mopts;
    mopts.progress = true;
    mopts.progress_interval_seconds = options.progress_interval_seconds;
    mopts.total_generations = config.generations;
    progress.emplace(registry, mopts);
  }
  protocol.set_master(rank == 0);
  protocol.set_hooks({.trace = options.trace,
                      .stream = options.metrics_stream,
                      .observer = progress ? &*progress : nullptr});

  protocol.initialize();
  for (std::uint64_t gen = 0; gen < config.generations; ++gen) {
    protocol.run_generation(gen);
  }

  // Collect the final fitness (as of the top of the last generation, the
  // same values the serial engine leaves in its population; zero when no
  // generation ran).
  const auto& fit = rows.fit();
  const auto final_fitness = transport.gather(
      pop.fitness().subspan(fit.row_begin(), fit.block().size()),
      /*everywhere=*/false);
  if (rank == 0) {
    for (pop::SSetId i = 0; i < config.ssets; ++i) {
      pop.set_fitness(i, final_fitness[i]);
    }
    result_slot = std::move(pop);
  }
}

}  // namespace

ParallelResult run_parallel(const SimConfig& config, int nranks) {
  return run_parallel(config, nranks, ParallelRunOptions{});
}

ParallelResult run_parallel(const SimConfig& config, int nranks,
                            const ParallelRunOptions& options) {
  config.validate();
  EGT_REQUIRE_MSG(nranks >= 1, "need at least one rank");
  EGT_REQUIRE_MSG(static_cast<pop::SSetId>(nranks) <= config.ssets,
                  "more ranks than SSets is not supported by the block "
                  "partition (use the performance simulator for that regime)");

  std::optional<pop::Population> final_pop;
  // One registry per rank: no cross-rank contention inside the timed run.
  std::deque<obs::MetricsRegistry> rank_registries(
      static_cast<std::size_t>(nranks));
  const par::TrafficReport traffic = par::run_ranks_traced(
      nranks, [&](par::Comm& comm) {
        rank_main(comm, config, final_pop,
                  rank_registries[static_cast<std::size_t>(comm.rank())],
                  options);
      });
  EGT_ASSERT(final_pop.has_value());

  obs::MetricsRegistry merged;
  for (const auto& reg : rank_registries) merged.merge(reg);
  merged.gauge("engine.ranks").set(static_cast<double>(nranks));
  if (options.metrics != nullptr) options.metrics->merge(merged);

  ParallelResult result{std::move(*final_pop), traffic, config.generations,
                        merged.snapshot()};
  return result;
}

}  // namespace egt::core
