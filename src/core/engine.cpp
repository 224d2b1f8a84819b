#include "core/engine.hpp"

#include "util/check.hpp"

namespace egt::core {

pop::Population make_initial_population(const SimConfig& config) {
  util::Xoshiro256 rng(util::mix64(config.seed ^ 0x5851f42d4c957f2dULL));
  if (config.game.uses_nway()) {
    return pop::Population::random_nway(
        config.ssets, config.game.actions,
        config.space == pop::StrategySpace::Pure, rng);
  }
  if (config.space == pop::StrategySpace::Pure) {
    return pop::Population::random_pure(config.ssets, config.memory, rng);
  }
  return pop::Population::random_mixed(config.ssets, config.memory, rng);
}

std::shared_ptr<const pop::InteractionGraph> make_shared_graph(
    const SimConfig& config) {
  if (!config.interaction.structured()) return nullptr;
  return std::make_shared<const pop::InteractionGraph>(
      make_interaction_graph(config));
}

namespace {
pop::NatureConfig nature_config_with_graph(
    const SimConfig& config,
    std::shared_ptr<const pop::InteractionGraph> graph) {
  auto nc = config.nature_config();
  nc.graph = std::move(graph);
  return nc;
}
}  // namespace

Engine::Engine(const SimConfig& config, pop::Population pop,
               std::uint64_t generation, obs::MetricsRegistry* metrics)
    : config_((config.validate(), config)),
      pop_(std::move(pop)),
      graph_(make_shared_graph(config)),
      nature_(nature_config_with_graph(config, graph_)),
      rows_(BlockFitness(config, 0, config.ssets, graph_, metrics)),
      ins_(metrics, /*master=*/true),
      generation_(generation) {}

Engine::Engine(const SimConfig& config, obs::MetricsRegistry* metrics)
    : Engine(config, make_initial_population((config.validate(), config)), 0,
             metrics) {
  initialize();
}

Engine::Engine(const SimConfig& config, RestoredState state,
               obs::MetricsRegistry* metrics)
    : Engine(config, std::move(state.population), state.generation, metrics) {
  restore_nature(state.nature);
  initialize();
}

Engine::Engine(const SimConfig& config, RestoredState state, FitnessRestore fit,
               obs::MetricsRegistry* metrics)
    : Engine(config, std::move(state.population), state.generation, metrics) {
  restore_nature(state.nature);
  // No initial evaluation: the cached modes adopt the captured block state
  // verbatim; Sampled recomputes everything at the next step()'s
  // begin_generation. Either way pairs_evaluated / games_played stay at
  // zero here — the saving run's totals travel with the job, not the
  // engine — so a resumed run's counter *growth* matches an undisturbed
  // run generation for generation.
  if (config_.fitness_mode != FitnessMode::Sampled) {
    rows_.fit().restore_state(std::move(fit.fitness), std::move(fit.matrix),
                              std::move(fit.dedup));
  }
  rows_.account(ins_);
}

void Engine::restore_nature(const pop::NatureAgent::State& nature) {
  EGT_REQUIRE_MSG(pop_.size() == config_.ssets,
                  "checkpoint population size does not match the config");
  EGT_REQUIRE_MSG(pop_.memory() == config_.memory,
                  "checkpoint memory depth does not match the config");
  nature_.restore_state(nature);
}

// The protocol is a view over the engine's members, built per call so the
// engine stays movable.
void Engine::initialize() {
  LocalTransport local(rows_.fit());
  GenerationProtocol(pop_, rows_, local, ins_).initialize();
}

void Engine::step() {
  LocalTransport local(rows_.fit());
  GenerationProtocol protocol(pop_, rows_, local, ins_);
  protocol.set_nature(&nature_);
  protocol.set_hooks({.trace = trace_, .hash_fitness = true});
  record_ = protocol.run_generation(generation_++);
}

void Engine::run(std::uint64_t generations, Observer* observer) {
  for (std::uint64_t g = 0; g < generations; ++g) {
    step();
    if (observer != nullptr) observer->on_generation(pop_, record_);
  }
}

}  // namespace egt::core
