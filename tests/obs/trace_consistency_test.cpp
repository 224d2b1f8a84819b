// Cross-validation of the two time sources: the flight recorder's phase
// spans (obs/tracer.hpp) and the metrics registry's phase histograms
// (obs/metrics.hpp). Every phase is timed by one obs::PhaseScope, which
// takes a single pair of clock readings for both, so a traced run's
// per-phase span count must equal the histogram count and the span totals
// must equal the timer totals up to the trace's number formatting. A
// divergence means a phase was timed outside PhaseScope.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "core/engine.hpp"
#include "core/parallel_engine.hpp"
#include "ft/ft_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/json.hpp"

namespace egt::obs {
namespace {

core::SimConfig small_config() {
  core::SimConfig cfg;
  cfg.ssets = 24;
  cfg.memory = 1;
  cfg.generations = 60;
  cfg.seed = 7;
  cfg.pc_rate = 0.5;
  cfg.fitness_mode = core::FitnessMode::Sampled;
  cfg.game.rounds = 50;
  return cfg;
}

struct PhaseSpans {
  std::uint64_t count = 0;
  double seconds = 0.0;
};

struct TracedRun {
  std::map<std::string, PhaseSpans> phases;
  std::uint64_t generation_spans = 0;
};

// Run `body` under the flight recorder and total its phase spans.
TracedRun traced(const std::function<void()>& body) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  body();
  tracer.stop();
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tracer.clear();
  const util::JsonValue doc = util::JsonValue::parse(os.str());
  EXPECT_EQ(doc.at("otherData").at("dropped_events").as_u64(), 0u)
      << "raise the test capacity: a wrapped ring undercounts spans";

  TracedRun run;
  for (const auto& e : doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() != "X") continue;
    const std::string name = e.at("name").as_string();
    if (name == kGenerationSpan) ++run.generation_spans;
    if (name.rfind("phase.", 0) == 0) {
      run.phases[name].count += 1;
      run.phases[name].seconds += e.at("dur").as_number() * 1e-6;  // us -> s
    }
  }
  return run;
}

// Every phase histogram matches its spans: same count, and the same total
// up to the trace's microsecond formatting (one nanosecond per span is far
// above the double rounding of either sum, and far below any real scope).
void expect_spans_match(const TracedRun& run, const MetricsSnapshot& snap) {
  for (const char* name : phase::kAll) {
    ASSERT_NE(snap.find_histogram(name), nullptr) << name;
  }
  for (const auto& h : snap.histograms) {
    if (h.name.rfind("phase.", 0) != 0) continue;
    const auto it = run.phases.find(h.name);
    const PhaseSpans spans = it == run.phases.end() ? PhaseSpans{} : it->second;
    EXPECT_EQ(spans.count, h.count) << h.name;
    const double tol = 1e-9 * static_cast<double>(h.count);
    EXPECT_NEAR(spans.seconds, h.total_seconds, tol) << h.name;
  }
  // No span without a histogram either.
  for (const auto& [name, spans] : run.phases) {
    EXPECT_NE(snap.find_histogram(name), nullptr) << name;
  }
}

TEST(TraceConsistency, PhaseSpansMatchManifestTimers) {
  const core::SimConfig cfg = small_config();
  MetricsRegistry registry;
  const TracedRun run = traced([&] {
    core::Engine engine(cfg, &registry);
    engine.run_all();
  });
  EXPECT_EQ(run.generation_spans, cfg.generations);
  expect_spans_match(run, registry.snapshot());
}

TEST(TraceConsistency, ParallelPhaseSpansMatchMergedTimers) {
  const core::SimConfig cfg = small_config();
  MetricsSnapshot merged;
  const TracedRun run = traced(
      [&] { merged = core::run_parallel(cfg, /*nranks=*/2).metrics; });
  // Every rank runs the generation protocol.
  EXPECT_EQ(run.generation_spans, 2 * cfg.generations);
  expect_spans_match(run, merged);
}

TEST(TraceConsistency, FtPhaseSpansMatchMergedTimers) {
  const core::SimConfig cfg = small_config();
  ft::FtRunOptions options;
  options.checkpoint_every = 10;  // exercises phase.ft_checkpoint too
  options.detect_timeout_ms = 5000.0;
  MetricsSnapshot merged;
  TracedRun run = traced([&] {
    merged = ft::run_parallel_ft(cfg, /*nranks=*/3, options).metrics;
  });
  // Only the master runs whole generations; workers are message-driven.
  EXPECT_EQ(run.generation_spans, cfg.generations);
  EXPECT_GT(run.phases["phase.ft_checkpoint"].count, 0u);
  expect_spans_match(run, merged);
}

}  // namespace
}  // namespace egt::obs
