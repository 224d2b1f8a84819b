#include "core/generation.hpp"

#include <tuple>

#include "obs/metrics_stream.hpp"
#include "obs/tracer.hpp"

namespace egt::core {

void BlockRows::begin_generation(pop::Population& pop, std::uint64_t gen) {
  fit_.begin_generation(pop, gen);
  for (pop::SSetId i = fit_.row_begin(); i < fit_.row_end(); ++i) {
    pop.set_fitness(i, fit_.fitness(i));
  }
}

void BlockRows::account(const EngineInstruments& ins) {
  EngineInstruments::inc(ins.pairs, fit_.pairs_evaluated() - pairs_accounted_);
  pairs_accounted_ = fit_.pairs_evaluated();
  EngineInstruments::inc(ins.games, fit_.games_played() - games_accounted_);
  games_accounted_ = fit_.games_played();
}

double GenerationTransport::mean_fitness(std::uint64_t gen,
                                         const GenerationDecision& decision) {
  double sum = 0.0;
  const auto full = gather_fitness(gen, decision.adopted);
  for (const double f : full) sum += f;
  return sum / static_cast<double>(full.size());
}

void GenerationProtocol::initialize() {
  {
    obs::PhaseScope scope(ins_.game_play, obs::phase::kGamePlay);
    owned_.initialize(pop_);
    scope.set_arg("games", owned_.games_played());
  }
  owned_.account(ins_);
}

void GenerationProtocol::play(std::uint64_t gen) {
  {
    obs::PhaseScope scope(ins_.game_play, obs::phase::kGamePlay);
    const std::uint64_t games_before = owned_.games_played();
    owned_.begin_generation(pop_, gen);
    scope.set_arg("games", owned_.games_played() - games_before);
  }
  // Accounted at once: a generation a rank never finishes (an ft worker
  // whose final decision is lost, or that is evicted) still counts its
  // game play.
  owned_.account(ins_);
}

const GenerationRecord& GenerationProtocol::run_generation(std::uint64_t gen) {
  obs::TraceSpan gen_span(obs::kGenerationSpan, obs::kCatEngine, "gen", gen);
  play(gen);

  pop::GenerationPlan plan;
  {
    obs::PhaseScope scope(ins_.plan, obs::phase::kPlanBcast);
    if (nature_ != nullptr) plan = nature_->plan_generation(&pop_);
    transport_.share_plan(gen, plan);
  }

  record_ = GenerationRecord{};
  record_.generation = gen;
  GenerationDecision decision;
  if (plan.pc) {
    EngineInstruments::inc(ins_.pc_events);
    double teacher_fitness = 0.0;
    double learner_fitness = 0.0;
    {
      obs::PhaseScope scope(ins_.fitness_return, obs::phase::kFitnessReturn);
      std::tie(teacher_fitness, learner_fitness) =
          transport_.pair_fitness(plan.pc->teacher, plan.pc->learner);
    }
    {
      obs::PhaseScope scope(ins_.decision, obs::phase::kDecisionBcast);
      if (nature_ != nullptr) {
        decision.adopted =
            nature_->decide_adoption(teacher_fitness, learner_fitness);
      }
      transport_.share_adoption(gen, decision.adopted, plan.moran);
    }
    apply(Stage::Pc, plan, decision, gen);
    record_.pc = GenerationRecord::PcOutcome{plan.pc->teacher,
                                             plan.pc->learner,
                                             decision.adopted};
  }

  if (plan.moran) {
    EngineInstruments::inc(ins_.moran_events);
    std::span<const double> full;
    {
      // The Moran rule needs the whole fitness vector at the selector —
      // the communication pattern the paper's pairwise rule avoids.
      obs::PhaseScope scope(ins_.fitness_return, obs::phase::kFitnessReturn);
      full = transport_.gather_fitness(gen, decision.adopted);
    }
    {
      obs::PhaseScope scope(ins_.decision, obs::phase::kDecisionBcast);
      if (nature_ != nullptr) decision.pick = nature_->select_moran(full);
      transport_.share_moran(decision.pick);
    }
    record_.pc = GenerationRecord::PcOutcome{decision.pick.reproducer,
                                             decision.pick.dying,
                                             decision.pick.is_change()};
    record_.was_moran = true;
  }
  apply(Stage::Final, plan, decision, gen);
  if (plan.mutation) record_.mutation = plan.mutation->target;

  owned_.account(ins_);
  transport_.commit(gen, plan, decision);
  EngineInstruments::inc(ins_.generations);
  report(gen, decision);
  return record_;
}

void GenerationProtocol::apply(Stage stage, const pop::GenerationPlan& plan,
                               const GenerationDecision& decision,
                               std::uint64_t gen) {
  if (stage == Stage::Pc) {
    if (plan.pc && decision.adopted) {
      EngineInstruments::inc(ins_.adoptions);
      update(plan.pc->learner, pop_.strategy(plan.pc->teacher), gen);
    }
    return;
  }
  if (plan.moran && decision.pick.is_change()) {
    update(decision.pick.dying, pop_.strategy(decision.pick.reproducer), gen);
  }
  if (plan.mutation) {
    EngineInstruments::inc(ins_.mutations);
    update(plan.mutation->target, plan.mutation->strategy, gen);
  }
}

void GenerationProtocol::update(pop::SSetId target,
                                const game::Strategy& strategy,
                                std::uint64_t gen) {
  obs::PhaseScope scope(ins_.apply, obs::phase::kApplyUpdate);
  pop_.set_strategy(target, strategy);
  owned_.strategy_changed(target, pop_, gen);
}

void GenerationProtocol::report(std::uint64_t gen,
                                const GenerationDecision& decision) {
  if (hooks_.stream != nullptr && hooks_.stream->wants(gen)) {
    // Collective transports reduce the mean over every rank; only the
    // master writes the line.
    const double mean = transport_.mean_fitness(gen, decision);
    if (master_) hooks_.stream->on_generation(gen, pop_, *ins_.registry, mean);
  }
  if (!master_) return;
  if (hooks_.trace != nullptr) {
    // Captured after this generation's events applied, before the next
    // one plans; `nature` is the post-decision state.
    TracePoint point;
    point.generation = gen;
    point.nature = nature_->save_state();
    if (record_.pc) {
      (record_.was_moran ? point.moran : point.pc) = true;
      (record_.was_moran ? point.reproducer : point.teacher) =
          record_.pc->teacher;
      (record_.was_moran ? point.dying : point.learner) = record_.pc->learner;
      point.adopted = record_.pc->adopted;
    }
    if (record_.mutation) {
      point.mutated = true;
      point.mutation_target = *record_.mutation;
    }
    point.table_hash = pop_.table_hash();
    if (hooks_.hash_fitness) point.fitness_hash = hash_fitness(pop_.fitness());
    hooks_.trace->on_point(point);
  }
  if (hooks_.observer != nullptr) hooks_.observer->on_generation(pop_, record_);
}

}  // namespace egt::core
