#include "core/instruments.hpp"

namespace egt::core {

const std::array<EngineCounters::Field, 7> EngineCounters::kFields = {{
    {"engine.generations", &EngineCounters::generations},
    {"engine.pc_events", &EngineCounters::pc_events},
    {"engine.adoptions", &EngineCounters::adoptions},
    {"engine.moran_events", &EngineCounters::moran_events},
    {"engine.mutations", &EngineCounters::mutations},
    {"engine.pairs_evaluated", &EngineCounters::pairs_evaluated},
    {"engine.games_played", &EngineCounters::games_played},
}};

EngineCounters EngineCounters::from(const obs::MetricsSnapshot& snapshot) {
  EngineCounters c;
  for (const Field& f : kFields) c.*f.member = snapshot.counter_value(f.name);
  return c;
}

EngineCounters operator+(EngineCounters a, const EngineCounters& b) {
  for (const auto& f : EngineCounters::kFields) a.*f.member += b.*f.member;
  return a;
}

void EngineCounters::encode(wire::Writer& w) const {
  for (const Field& f : kFields) w.u64(this->*f.member);
}

EngineCounters EngineCounters::decode(wire::Reader& r) {
  EngineCounters c;
  for (const Field& f : kFields) c.*f.member = r.u64(f.name);
  return c;
}

namespace {
// The registry's counter for one EngineCounters field (names live in
// kFields only).
obs::Counter* counter_for(obs::MetricsRegistry& reg,
                          std::uint64_t EngineCounters::*member) {
  for (const auto& f : EngineCounters::kFields) {
    if (f.member == member) return &reg.counter(f.name);
  }
  return nullptr;
}
}  // namespace

EngineInstruments::EngineInstruments(obs::MetricsRegistry* reg, bool master)
    : registry(reg) {
  if (reg == nullptr) return;
  game_play = &reg->histogram(obs::phase::kGamePlay);
  plan = &reg->histogram(obs::phase::kPlanBcast);
  fitness_return = &reg->histogram(obs::phase::kFitnessReturn);
  decision = &reg->histogram(obs::phase::kDecisionBcast);
  apply = &reg->histogram(obs::phase::kApplyUpdate);
  pairs = counter_for(*reg, &EngineCounters::pairs_evaluated);
  games = counter_for(*reg, &EngineCounters::games_played);
  if (master) promote();
}

void EngineInstruments::promote() {
  if (registry == nullptr || generations != nullptr) return;
  generations = counter_for(*registry, &EngineCounters::generations);
  pc_events = counter_for(*registry, &EngineCounters::pc_events);
  adoptions = counter_for(*registry, &EngineCounters::adoptions);
  moran_events = counter_for(*registry, &EngineCounters::moran_events);
  mutations = counter_for(*registry, &EngineCounters::mutations);
}

}  // namespace egt::core
