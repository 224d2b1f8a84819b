#include "serve/jobspec.hpp"

#include <sstream>
#include <stdexcept>

#include "game/spec/registry.hpp"
#include "simcheck/config_json.hpp"
#include "util/json.hpp"

namespace egt::serve {

JobSpec parse_job_spec(const std::string& text) {
  util::JsonValue v;
  try {
    v = util::JsonValue::parse(text);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("invalid job spec JSON: ") +
                             e.what());
  }
  if (!v.is_object()) {
    throw std::runtime_error("invalid job spec: expected a JSON object");
  }
  if (const auto* schema = v.find("schema")) {
    if (schema->as_string() != kJobSchema) {
      throw std::runtime_error("invalid job spec: schema \"" +
                               schema->as_string() + "\" (this daemon reads " +
                               kJobSchema + ")");
    }
  }
  JobSpec spec;
  if (const auto* tenant = v.find("tenant")) {
    spec.tenant = tenant->as_string();
    if (spec.tenant.empty()) {
      throw std::runtime_error("invalid job spec: tenant must be non-empty");
    }
  }
  if (const auto* preset = v.find("game")) {
    if (preset->is_string()) {
      const game::GameSpec* found = game::find_game(preset->as_string());
      if (found == nullptr) {
        throw std::runtime_error("invalid job spec: unknown game preset \"" +
                                 preset->as_string() + "\"; registered presets:\n" +
                                 game::registry_listing());
      }
      spec.config.game = *found;
    } else {
      throw std::runtime_error(
          "invalid job spec: \"game\" must be a preset name string "
          "(use config.game for explicit tables)");
    }
  }
  if (const auto* config = v.find("config")) {
    // Preserve the preset as the starting point: config_from_json only
    // overwrites the game fields the object actually carries.
    const core::SimConfig base = spec.config;
    core::SimConfig parsed;
    try {
      parsed = simcheck::config_from_json(*config);
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string("invalid job spec config: ") +
                               e.what());
    }
    if (config->find("game") == nullptr) parsed.game = base.game;
    spec.config = parsed;
  }
  try {
    spec.config.validate();
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("invalid job spec config: ") +
                             e.what());
  }
  return spec;
}

std::string job_spec_to_json(const JobSpec& spec) {
  std::ostringstream os;
  util::JsonWriter w(os, 0);
  w.begin_object();
  w.field("schema", kJobSchema);
  w.field("tenant", spec.tenant);
  w.key("config");
  simcheck::write_config(w, spec.config);
  w.end_object();
  return os.str();
}

std::string job_result_to_json(std::uint64_t job_id, const JobResult& result) {
  std::ostringstream os;
  util::JsonWriter w(os, 0);
  w.begin_object();
  w.field("job_id", job_id);
  w.field("generations", result.generations);
  w.field("table_hash", result.table_hash);
  w.field("fitness_hash", result.fitness_hash);
  w.key("counters").begin_object();
  for (const auto& f : EngineCounters::kFields) {
    // The JSON keys drop the registry's "engine." prefix.
    w.field(std::string(f.name).substr(7), result.counters.*f.member);
  }
  w.end_object();
  w.field("attempts", result.attempts);
  w.field("preemptions", result.preemptions);
  w.end_object();
  return os.str();
}

}  // namespace egt::serve
