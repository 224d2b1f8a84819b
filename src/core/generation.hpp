// The generation protocol (DESIGN.md §14): the paper's one generation —
// game play, the Nature Agent's plan, the PC step (fitness return, Fermi
// decision, apply), the Moran step (gather, selection, apply), mutation,
// and the bookkeeping (pairs/games accounting, the master's event
// counters, TracePoint and metrics-stream/progress hooks) — written once
// for every engine. What differs between engines — who holds the Nature
// Agent and how plans, fitness values and decisions move between ranks —
// sits behind GenerationTransport: Local (the serial Engine), Collective
// (run_parallel) and FtMaster (run_parallel_ft's acting master).
//
// Only the protocol calls Nature; ranks without a Nature Agent get the
// plan and the decisions from the transport. Only apply() updates
// strategies, including on the fault-tolerant engine's message-driven
// workers.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "core/config.hpp"
#include "core/fitness.hpp"
#include "core/instruments.hpp"
#include "core/observer.hpp"
#include "core/trace.hpp"
#include "pop/nature.hpp"
#include "pop/population.hpp"

namespace egt::obs {
class MetricsStreamWriter;
}

namespace egt::core {

/// The fitness rows one rank owns, as the protocol drives them.
class OwnedFitness {
 public:
  virtual ~OwnedFitness() = default;
  /// The initial all-pairs evaluation.
  virtual void initialize(const pop::Population& pop) = 0;
  /// This generation's fitness of every owned row (game play); keeps the
  /// top-of-generation values as the run's final-fitness snapshot.
  virtual void begin_generation(pop::Population& pop, std::uint64_t gen) = 0;
  virtual void strategy_changed(pop::SSetId k, const pop::Population& pop,
                                std::uint64_t gen) = 0;
  /// Games played so far (the game-play span's work argument).
  virtual std::uint64_t games_played() const = 0;
  /// Flush the pairs/games evaluated since the last flush into the
  /// engine.pairs_evaluated / engine.games_played counters.
  virtual void account(const EngineInstruments& ins) = 0;
};

/// A single contiguous BlockFitness — the serial engine's whole population
/// or a collective rank's partition block. The top-of-generation snapshot
/// lives in the population's fitness vector (owned rows only).
class BlockRows final : public OwnedFitness {
 public:
  explicit BlockRows(BlockFitness fit) : fit_(std::move(fit)) {}

  void initialize(const pop::Population& pop) override {
    fit_.initialize(pop);
  }
  void begin_generation(pop::Population& pop, std::uint64_t gen) override;
  void strategy_changed(pop::SSetId k, const pop::Population& pop,
                        std::uint64_t gen) override {
    fit_.strategy_changed(k, pop, gen);
  }
  std::uint64_t games_played() const override { return fit_.games_played(); }
  void account(const EngineInstruments& ins) override;

  BlockFitness& fit() noexcept { return fit_; }
  const BlockFitness& fit() const noexcept { return fit_; }

 private:
  BlockFitness fit_;
  std::uint64_t pairs_accounted_ = 0;
  std::uint64_t games_accounted_ = 0;
};

/// Nature's decisions of one generation.
struct GenerationDecision {
  bool adopted = false;  ///< PC: the learner copies the teacher
  pop::MoranPick pick;   ///< Moran: the reproducer replaces the dying SSet
};

/// How one engine moves plans, fitness values and decisions between its
/// ranks. Every call is collective over the ranks running the protocol;
/// a rank without a Nature Agent receives what the Nature rank decided.
/// The defaults are the single-rank behaviour: nothing moves.
class GenerationTransport {
 public:
  virtual ~GenerationTransport() = default;

  /// Deliver the plan: a Nature rank publishes `plan`, others fill it in.
  virtual void share_plan(std::uint64_t /*gen*/,
                          pop::GenerationPlan& /*plan*/) {}

  /// The PC pair's current fitness at the Nature rank(s).
  virtual std::pair<double, double> pair_fitness(pop::SSetId teacher,
                                                 pop::SSetId learner) = 0;

  /// Deliver the adoption decision, before its apply (`moran_follows`:
  /// the generation also gathers for a Moran step).
  virtual void share_adoption(std::uint64_t /*gen*/, bool& /*adopted*/,
                              bool /*moran_follows*/) {}

  /// The whole current fitness vector at the Nature rank(s) (others may
  /// get an empty span); `adopted` restates the generation's PC decision.
  virtual std::span<const double> gather_fitness(std::uint64_t gen,
                                                 bool adopted) = 0;

  /// Deliver the Moran selection.
  virtual void share_moran(pop::MoranPick& /*pick*/) {}

  /// Every update of the generation applied and accounted: make it
  /// durable (the ft master's write-ahead log and final decision).
  virtual void commit(std::uint64_t /*gen*/,
                      const pop::GenerationPlan& /*plan*/,
                      const GenerationDecision& /*decision*/) {}

  /// Global mean of the current fitness at the master (the metrics
  /// stream): by default, the mean of a fresh gather.
  virtual double mean_fitness(std::uint64_t gen,
                              const GenerationDecision& decision);
};

/// The serial engine's transport: one rank owns every row.
class LocalTransport final : public GenerationTransport {
 public:
  explicit LocalTransport(const BlockFitness& fit) : fit_(fit) {}

  std::pair<double, double> pair_fitness(pop::SSetId teacher,
                                         pop::SSetId learner) override {
    return {fit_.fitness(teacher), fit_.fitness(learner)};
  }
  std::span<const double> gather_fitness(std::uint64_t, bool) override {
    return fit_.block();
  }

 private:
  const BlockFitness& fit_;
};

/// One rank's view of the generation sequence. Holds references only, so
/// it is cheap to construct around a rank's state.
class GenerationProtocol {
 public:
  /// The master's per-generation outputs. All optional.
  struct Hooks {
    TraceSink* trace = nullptr;
    /// Fill TracePoint::fitness_hash (the rank owns every row).
    bool hash_fitness = false;
    obs::MetricsStreamWriter* stream = nullptr;
    /// Called after every generation (the progress heartbeat).
    Observer* observer = nullptr;
  };

  GenerationProtocol(pop::Population& pop, OwnedFitness& owned,
                     GenerationTransport& transport,
                     EngineInstruments& instruments)
      : pop_(pop), owned_(owned), transport_(transport), ins_(instruments) {}

  /// This rank's Nature Agent (null: it receives plans and decisions).
  void set_nature(pop::NatureAgent* nature) noexcept { nature_ = nature; }
  /// Whether this rank emits the hooks' outputs (a rank can hold a
  /// replicated Nature Agent without being the master; the event counters
  /// follow EngineInstruments' own master registration).
  void set_master(bool master) noexcept { master_ = master; }
  void set_hooks(const Hooks& hooks) noexcept { hooks_ = hooks; }

  /// The initial all-pairs evaluation (game play before generation 0).
  void initialize();

  /// Step 1 alone: evaluate this generation's fitness.
  void play(std::uint64_t gen);

  /// Run generation `gen` end to end.
  const GenerationRecord& run_generation(std::uint64_t gen);

  enum class Stage {
    Pc,     ///< the PC adoption
    Final,  ///< the Moran replacement, then the mutation
  };
  /// Apply one stage of a generation's decided updates. The stages split
  /// at the Moran gather, which must see post-adoption fitness.
  void apply(Stage stage, const pop::GenerationPlan& plan,
             const GenerationDecision& decision, std::uint64_t gen);

 private:
  void update(pop::SSetId target, const game::Strategy& strategy,
              std::uint64_t gen);
  void report(std::uint64_t gen, const GenerationDecision& decision);

  pop::Population& pop_;
  OwnedFitness& owned_;
  GenerationTransport& transport_;
  EngineInstruments& ins_;
  pop::NatureAgent* nature_ = nullptr;
  bool master_ = true;
  Hooks hooks_;
  GenerationRecord record_;
};

}  // namespace egt::core
