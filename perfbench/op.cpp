// One benchmark operation: a whole simulation of one workload, run the way
// run_simulation runs it (build the engine, run every generation, compute
// the final cooperation report), printed as one JSON line on stdout.
//
//   perfbench_op --workload mixed-serial --seed 1 [--size full|tiny]
//                [--mode run|traced|unpinned|serial-ref]
//
// Modes:
//   run         untraced: no metrics registry on the serial engine, no
//               flight recorder. Gives the end-to-end timings.
//   unpinned    the same as run, but the process may use every CPU it is
//               allowed (see pin_to_one_cpu for why the others do not).
//   traced      the same run with the program's own instrumentation on
//               (MetricsRegistry phase timers + the obs::Tracer flight
//               recorder), followed by outside probes of single layers
//               (population build, block initialize, game kernels). Gives
//               the per-layer numbers.
//   serial-ref  the serial core::Engine on the workload's config, no
//               timing: the bit-for-bit reference for the rank workloads.
//
// Every layer is measured from outside, through its public functions and
// the metrics the engines already export; nothing here reaches into src/.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/coop.hpp"
#include "core/config.hpp"
#include "core/engine.hpp"
#include "core/fitness.hpp"
#include "core/observer.hpp"
#include "ft/ft_engine.hpp"
#include "game/batch.hpp"
#include "game/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/timer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace egt;

enum class EngineKind { Serial, Ft };

struct Workload {
  core::SimConfig config;
  EngineKind engine = EngineKind::Serial;
  int ranks = 0;
};

constexpr int kRanks = 4;

/// The two workloads (perfbench/README.md says why each exists). `tiny`
/// shrinks SSets and generations for the self-test; everything else stays.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  core::SimConfig& c = w.config;
  c.seed = seed;
  c.memory = 1;
  c.fitness_mode = core::FitnessMode::Analytic;
  if (name == "mixed-serial") {
    c.space = pop::StrategySpace::Mixed;
    c.ssets = tiny ? 32 : 512;
    c.generations = tiny ? 200 : 6000;
  } else if (name == "pure-ft4") {
    c.ssets = tiny ? 64 : 1024;
    c.generations = tiny ? 500 : 20000;
    w.engine = EngineKind::Ft;
    w.ranks = kRanks;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  c.validate();
  return w;
}

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t k = 0; k < n; ++k) {
    h ^= p[k];
    h *= 1099511628211ull;
  }
  return h;
}

/// Bit pattern hash of the final fitness vector.
std::uint64_t fitness_hash(const pop::Population& pop) {
  const auto f = pop.fitness();
  return fnv1a(f.data(), f.size_bytes());
}

/// Counts what a run_simulation user sees per generation: adoptions and
/// mutations, from the GenerationRecord (works with metrics off).
class EventCounter final : public core::Observer {
 public:
  void on_generation(const pop::Population&,
                     const core::GenerationRecord& r) override {
    if (r.pc && r.pc->adopted) ++adoptions;
    if (r.mutation) ++mutations;
  }
  std::uint64_t adoptions = 0;
  std::uint64_t mutations = 0;
};

/// Everything one operation produced.
struct Outcome {
  std::optional<pop::Population> population;
  std::uint64_t pairs = 0;
  std::uint64_t games = 0;
  std::uint64_t adoptions = 0;
  std::uint64_t mutations = 0;
  double setup_s = 0.0;
  double loop_s = 0.0;
  double report_s = 0.0;
  double wall_s = 0.0;
  double coop = 0.0;
  obs::MetricsSnapshot metrics;  // traced serial, or any rank run
  par::TrafficReport traffic;    // rank runs
};

ft::FtRunOptions ft_options() {
  ft::FtRunOptions o;  // empty fault plan
  // Generous deadlines: with four rank threads on a loaded host a busy
  // worker must never be evicted as a false positive (that would change
  // the counters). Timeouts only matter when a reply is late, so the
  // fault-free message flow is unchanged.
  o.detect_timeout_ms = 5000.0;
  o.ping_timeout_ms = 2500.0;
  return o;
}

/// Runs the rank engine and moves its result (final population, traffic,
/// metrics merged over ranks; the engine always keeps per-rank metrics)
/// into `out`.
void run_rank_engine(const Workload& w, const core::SimConfig& cfg,
                     Outcome& out) {
  ft::FtResult r = ft::run_parallel_ft(cfg, w.ranks, ft_options());
  out.population = std::move(r.population);
  out.traffic = std::move(r.traffic);
  out.metrics = std::move(r.metrics);
  out.pairs = out.metrics.counter_value("engine.pairs_evaluated");
  out.games = out.metrics.counter_value("engine.games_played");
  out.adoptions = out.metrics.counter_value("engine.adoptions");
  out.mutations = out.metrics.counter_value("engine.mutations");
}

Outcome run_workload(const Workload& w, bool traced, bool with_report) {
  const core::SimConfig& cfg = w.config;
  Outcome out;
  if (traced) obs::Tracer::instance().start();

  if (w.engine == EngineKind::Serial) {
    obs::MetricsRegistry registry;
    util::Timer wall;
    core::Engine engine(cfg, traced ? &registry : nullptr);
    out.setup_s = wall.seconds();
    EventCounter events;
    util::Timer loop;
    engine.run_all(&events);
    out.loop_s = loop.seconds();
    if (with_report) {
      util::Timer report;
      out.coop = analysis::expected_play_cooperation(engine.population(),
                                                     cfg.game.ipd_params())
                     .mean_coop_rate;
      out.report_s = report.seconds();
    }
    out.wall_s = wall.seconds();
    out.population = engine.population();
    out.pairs = engine.pairs_evaluated();
    out.games = engine.games_played();
    out.adoptions = events.adoptions;
    out.mutations = events.mutations;
    if (traced) out.metrics = registry.snapshot();
  } else {
    // Set-up of a rank engine: the same call with zero generations.
    core::SimConfig setup_cfg = cfg;
    setup_cfg.generations = 0;
    {
      Outcome discard;
      util::Timer setup;
      run_rank_engine(w, setup_cfg, discard);
      out.setup_s = setup.seconds();
    }
    util::Timer wall;
    run_rank_engine(w, cfg, out);
    out.loop_s = wall.seconds();
    if (with_report) {
      util::Timer report;
      out.coop = analysis::expected_play_cooperation(*out.population,
                                                     cfg.game.ipd_params())
                     .mean_coop_rate;
      out.report_s = report.seconds();
    }
    out.wall_s = wall.seconds();
  }
  if (traced) {
    obs::Tracer::instance().stop();
    obs::Tracer::instance().clear();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Outside probes of single layers (traced mode only).

template <class Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> t;
  fn();  // warm-up
  for (int r = 0; r < reps; ++r) {
    util::Timer timer;
    fn();
    t.push_back(timer.seconds());
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

/// The first `limit` ordered pairs (i != j) of the population, row-major.
std::vector<std::pair<pop::SSetId, pop::SSetId>> probe_pairs(
    const pop::Population& pop, std::size_t limit) {
  std::vector<std::pair<pop::SSetId, pop::SSetId>> pairs;
  for (pop::SSetId i = 0; i < pop.size() && pairs.size() < limit; ++i) {
    for (pop::SSetId j = 0; j < pop.size() && pairs.size() < limit; ++j) {
      if (i != j) pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

struct KernelProbe {
  double batch_ns = 0.0;         // 0 when the population is not memory-one
  double batch_scalar_ns = 0.0;  // same, forced-scalar kernel
  double pair_ns = 0.0;
};

KernelProbe probe_kernels(const core::SimConfig& cfg,
                          const pop::Population& pop) {
  constexpr std::size_t kPairs = 8192;
  constexpr int kReps = 7;
  const core::PairEvaluator eval(cfg);
  const auto pairs = probe_pairs(pop, kPairs);
  const double n = static_cast<double>(pairs.size());
  KernelProbe k;
  volatile double sink = 0.0;

  if (cfg.memory == 1) {
    game::batch::Mem1Batch batch;
    for (const auto& [i, j] : pairs) {
      batch.push_pair(pop.strategy(i), pop.strategy(j), cfg.game.noise);
    }
    std::vector<double> out(pairs.size());
    auto run_batch = [&] {
      eval.mem1_batch_payoffs(batch, out);
      sink = sink + out[0];
    };
    k.batch_ns = median_seconds(kReps, run_batch) * 1e9 / n;
    game::simd::set_force_scalar(true);
    k.batch_scalar_ns = median_seconds(kReps, run_batch) * 1e9 / n;
    game::simd::set_force_scalar(false);
  }

  // Per-pair route: every workload is Analytic memory-one, so every pair is
  // strategy-pure and pair_payoff applies.
  auto run_pairs = [&] {
    double s = 0.0;
    for (const auto& [i, j] : pairs) {
      s += eval.pair_payoff(pop.strategy(i), pop.strategy(j));
    }
    sink = sink + s;
  };
  k.pair_ns = median_seconds(3, run_pairs) * 1e9 / n;
  return k;
}

// ---------------------------------------------------------------------------
// Output.

class JsonLine {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    add(key, buf);
  }
  void count(const std::string& key, std::uint64_t v) {
    add(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    add(key, "\"" + v + "\"");
  }
  void raw(const std::string& key, const std::string& json) { add(key, json); }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, is not inherited from the parent across fork + exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// `cpu` is the CPU the operation is pinned to, or -1 (unpinned).
std::string host_record(int cpu) {
  JsonLine h;
  h.count("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  if (cpu >= 0) {
    h.count("pinned_cpu", static_cast<std::uint64_t>(cpu));
  } else {
    h.raw("pinned_cpu", "null");
  }
  h.str("kernel",
        game::simd::kernel_name(game::simd::active_kernel()));
  h.str("build_type", PERFBENCH_BUILD_TYPE);
  return h.done();
}

/// Per-layer metrics of a traced run (units in BENCHMARK.json).
std::string layer_record(const Workload& w, const Outcome& o) {
  const core::SimConfig& cfg = w.config;
  const obs::MetricsSnapshot& m = o.metrics;
  const double gens = static_cast<double>(cfg.generations);
  JsonLine l;

  l.num("pop.initial_population_s", median_seconds(3, [&] {
          (void)core::make_initial_population(cfg);
        }));
  {
    const pop::Population initial = core::make_initial_population(cfg);
    const auto graph = core::make_shared_graph(cfg);
    l.num("fitness.initialize_s", median_seconds(3, [&] {
            core::BlockFitness block(cfg, 0, cfg.ssets, graph);
            block.initialize(initial);
          }));
  }

  auto phase = [&](const char* key, const char* hist) {
    const obs::HistogramSample* h = m.find_histogram(hist);
    l.num(std::string(key) + "_s", h ? h->total_seconds : 0.0);
    l.num(std::string(key) + ".p50_us",
          h ? h->quantile_seconds(0.50) * 1e6 : 0.0);
    l.num(std::string(key) + ".p99_us",
          h ? h->quantile_seconds(0.99) * 1e6 : 0.0);
    l.count(std::string(key) + ".count", h ? h->count : 0);
  };
  phase("fitness.game_play", obs::phase::kGamePlay);
  phase("fitness.apply_update", obs::phase::kApplyUpdate);

  l.count("fitness.pairs_evaluated", o.pairs);
  l.count("fitness.games_played", o.games);
  l.num("fitness.dedup_hit_ratio",
        o.pairs ? 1.0 - static_cast<double>(o.games) / o.pairs : 0.0);
  l.count("fitness.cache_inserts", m.counter_value("fitness.cache_inserts"));

  const double plan = m.histogram_seconds(obs::phase::kPlanBcast);
  const double fitret = m.histogram_seconds(obs::phase::kFitnessReturn);
  const double decision = m.histogram_seconds(obs::phase::kDecisionBcast);
  l.num("nature.plan_s", plan);
  l.num("nature.decision_s", decision);
  l.count("engine.pc_events", m.counter_value("engine.pc_events"));
  l.count("engine.adoptions", m.counter_value("engine.adoptions"));
  l.count("engine.mutations", m.counter_value("engine.mutations"));

  const KernelProbe k = probe_kernels(cfg, *o.population);
  l.num("game.mem1_batch.ns_per_pair", k.batch_ns);
  l.num("game.mem1_batch_scalar.ns_per_pair", k.batch_scalar_ns);
  l.num("game.pair_payoff.ns_per_pair", k.pair_ns);

  const double report_pairs =
      static_cast<double>(cfg.ssets) * (cfg.ssets - 1);
  l.count("report.pairs", static_cast<std::uint64_t>(report_pairs));
  l.num("report.ns_per_pair", o.report_s * 1e9 / report_pairs);

  const bool ranked = w.ranks > 0;
  l.num("par.bytes_per_gen", ranked ? o.traffic.bytes / gens : 0.0);
  l.num("par.messages_per_gen", ranked ? o.traffic.messages / gens : 0.0);
  l.count("par.bcast_bytes", o.traffic.bcast_bytes);
  l.count("par.p2p_bytes", o.traffic.p2p_bytes);
  l.num("par.coordination_s", ranked ? plan + fitret + decision : 0.0);

  l.count("ft.log.bytes", m.counter_value("ft.log.bytes"));
  l.count("ft.log.records", m.counter_value("ft.log.records"));
  l.num("ft.plan_s", ranked ? plan : 0.0);

  // Phase timers sum over ranks; coverage is per rank-second of wall.
  const double rank_wall = o.wall_s * std::max(w.ranks, 1);
  const double phases = m.phase_total_seconds();
  l.num("obs.phase_coverage", phases / rank_wall);
  l.num("obs.unattributed_s", (rank_wall - phases) / std::max(w.ranks, 1));
  return l.done();
}

/// Pins the operation to one CPU, the last this process may use; threads
/// inherit the mask, so call this before any engine starts. A serial run is
/// then never migrated. The rank workload's 4 rank threads share that CPU
/// and hand off by local context switches. Its per-generation compute is
/// tiny, so this costs little: on a shared 4-vCPU VM (Intel Xeon) a pinned
/// pure-ft4 engine call took 1.9-2.2 s, while unpinned calls of the same
/// run took 1.9-6.5 s, the spread being the host's cross-vCPU wake-up
/// latency. Pinned timings can therefore show neither that latency nor a
/// gain from spreading compute over ranks; --mode unpinned measures the
/// former, without a regression bound.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (cpu < 0 || sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
  return cpu;
}

std::string arg(int argc, char** argv, const std::string& name,
                const std::string& fallback) {
  for (int k = 1; k + 1 < argc; ++k) {
    if (argv[k] == "--" + name) return argv[k + 1];
  }
  return fallback;
}

int run(int argc, char** argv) {
  const std::string workload = arg(argc, argv, "workload", "");
  const std::string size = arg(argc, argv, "size", "full");
  const std::string mode = arg(argc, argv, "mode", "run");
  if (size != "full" && size != "tiny") {
    throw std::invalid_argument("--size must be full or tiny");
  }
  if (mode != "run" && mode != "traced" && mode != "unpinned" &&
      mode != "serial-ref") {
    throw std::invalid_argument(
        "--mode must be run, traced, unpinned or serial-ref");
  }
  const std::uint64_t seed = std::stoull(arg(argc, argv, "seed", "1"));
  Workload w = make_workload(workload, seed, size == "tiny");
  if (mode == "serial-ref") {
    w.engine = EngineKind::Serial;
    w.ranks = 0;
  }
  const int cpu = mode == "unpinned" ? -1 : pin_to_one_cpu();
  const bool traced = mode == "traced";
  const Outcome o = run_workload(w, traced, mode != "serial-ref");

  JsonLine j;
  j.str("workload", workload);
  j.str("mode", mode);
  j.count("seed", seed);
  j.count("ranks", static_cast<std::uint64_t>(w.ranks));
  j.count("ssets", w.config.ssets);
  j.count("generations", w.config.generations);
  j.str("table_hash", hex(o.population->table_hash()));
  j.str("fitness_hash", hex(fitness_hash(*o.population)));
  j.count("pairs_evaluated", o.pairs);
  j.count("games_played", o.games);
  j.count("adoptions", o.adoptions);
  j.count("mutations", o.mutations);
  j.num("coop", o.coop);
  j.num("setup_s", o.setup_s);
  j.num("loop_s", o.loop_s);
  j.num("report_s", o.report_s);
  j.num("wall_s", o.wall_s);
  j.num("peak_rss_mb", peak_rss_mb());
  j.raw("host", host_record(cpu));
  if (traced) j.raw("layers", layer_record(w, o));
  std::printf("%s\n", j.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_op: %s\n", e.what());
    return 1;
  }
}
