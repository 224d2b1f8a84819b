#include "simcheck/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/coop.hpp"
#include "game/batch.hpp"
#include "game/ipd.hpp"
#include "game/markov.hpp"
#include "game/payoff.hpp"
#include "game/simd.hpp"
#include "game/strategy.hpp"
#include "util/rng.hpp"

namespace egt::simcheck {

namespace {

constexpr double kCrossKernelTol = 1e-12;  // AVX2 vs scalar, relative

double rel_err(double got, double want) {
  const double scale = std::max(1.0, std::fabs(want));
  return std::fabs(got - want) / scale;
}

void note_failure(KernelCheck& c, const std::string& what) {
  if (c.detail.empty()) c.detail = what;
  c.passed = false;
}

game::PayoffMatrix sample_payoff(util::Xoshiro256& rng, bool integral) {
  if (integral) return game::paper_payoff();
  return game::PayoffMatrix{3.0 + util::uniform01(rng),
                            -util::uniform01(rng),
                            4.0 + util::uniform01(rng),
                            util::uniform01(rng)};
}

/// AVX2 vs scalar on random mixed/pure batches (skipped when the AVX2
/// kernel is unavailable), plus scalar vs markov bit-identity.
void check_mem1(KernelReport& report, util::Xoshiro256& rng) {
  KernelCheck cross{"mem1.avx2_vs_scalar", true, 0, 0.0, {}};
  KernelCheck exact{"mem1.scalar_vs_markov_bitwise", true, 0, 0.0, {}};
  const bool avx2 = report.avx2_available;

  for (int iter = 0; iter < 64; ++iter) {
    const std::size_t n = 1 + util::uniform_below(rng, 9);  // remainder lanes
    const double eps = (iter % 3 == 0) ? 0.0 : 0.25 * util::uniform01(rng);
    const game::PayoffMatrix payoff = sample_payoff(rng, iter % 2 == 0);
    const auto rounds =
        static_cast<std::uint32_t>(1 + util::uniform_below(rng, 400));

    game::batch::Mem1Batch batch;
    std::vector<game::Strategy> as, bs;
    for (std::size_t k = 0; k < n; ++k) {
      // Mix pure and mixed memory-one strategies in one batch.
      if (util::uniform_below(rng, 4) == 0) {
        as.emplace_back(game::PureStrategy::random(1, rng));
      } else {
        as.emplace_back(game::MixedStrategy::random(1, rng));
      }
      bs.emplace_back(game::MixedStrategy::random(1, rng));
      batch.push_pair(as.back(), bs.back(), eps);
    }

    std::vector<game::batch::BatchTotals> sca(n);
    game::batch::expected_totals_mem1_scalar(batch, payoff, rounds,
                                             sca.data());
    for (std::size_t k = 0; k < n; ++k) {
      const game::GameResult want = game::markov::expected_game_mem1(
          as[k], bs[k], payoff, rounds, eps);
      exact.cases++;
      if (sca[k].payoff_a != want.payoff_a ||
          sca[k].payoff_b != want.payoff_b) {
        std::ostringstream os;
        os << "scalar kernel diverges from markov at iter " << iter
           << " pair " << k << ": " << sca[k].payoff_a
           << " != " << want.payoff_a;
        note_failure(exact, os.str());
      }
    }
    if (!avx2) continue;
    std::vector<game::batch::BatchTotals> avx(n);
    game::batch::expected_totals_mem1_avx2(batch, payoff, rounds, avx.data());
    for (std::size_t k = 0; k < n; ++k) {
      cross.cases++;
      const double worst = std::max(
          {rel_err(avx[k].payoff_a, sca[k].payoff_a),
           rel_err(avx[k].payoff_b, sca[k].payoff_b),
           rel_err(avx[k].coop_a, sca[k].coop_a),
           rel_err(avx[k].coop_b, sca[k].coop_b)});
      cross.worst_rel = std::max(cross.worst_rel, worst);
      if (worst > kCrossKernelTol) {
        std::ostringstream os;
        os << "avx2 vs scalar rel err " << worst << " > " << kCrossKernelTol
           << " at iter " << iter << " pair " << k;
        note_failure(cross, os.str());
      }
    }
  }
  if (cross.detail.empty()) {
    std::ostringstream os;
    if (avx2) {
      os << "worst rel err " << cross.worst_rel;
    } else {
      os << "skipped: AVX2 kernel unavailable";
    }
    cross.detail = os.str();
  }
  report.checks.push_back(std::move(cross));
  report.checks.push_back(std::move(exact));
}

/// Pure walkers vs markov::exact_pure_game / the legacy round loop —
/// bitwise, across memory depths and round counts.
void check_pure(KernelReport& report, util::Xoshiro256& rng) {
  KernelCheck walker{"pure.walker_vs_markov_bitwise", true, 0, 0.0, {}};
  KernelCheck sampled{"pure.run_vs_round_loop_bitwise", true, 0, 0.0, {}};

  for (int iter = 0; iter < 64; ++iter) {
    const int memory = static_cast<int>(util::uniform_below(rng, 4));
    const auto rounds =
        static_cast<std::uint32_t>(1 + util::uniform_below(rng, 1000));
    const game::PayoffMatrix payoff = sample_payoff(rng, iter % 2 == 0);
    const game::PureStrategy a = game::PureStrategy::random(memory, rng);
    const game::PureStrategy b = game::PureStrategy::random(memory, rng);

    const game::GameResult want =
        game::markov::exact_pure_game(a, b, payoff, rounds);
    const game::GameResult got =
        game::batch::exact_pure_game_fast(a, b, payoff, rounds);
    walker.cases++;
    if (got.payoff_a != want.payoff_a || got.payoff_b != want.payoff_b ||
        got.coop_a != want.coop_a || got.coop_b != want.coop_b) {
      std::ostringstream os;
      os << "walker diverges from exact_pure_game at iter " << iter
         << " (memory " << memory << ", rounds " << rounds << ")";
      note_failure(walker, os.str());
    }

    // The LinearSearch engine still runs the legacy loop (no fast path).
    const game::IpdParams params{payoff, rounds, 0.0};
    const game::IpdEngine linear(memory, params,
                                 game::LookupMode::LinearSearch);
    const game::GameResult loop = linear.play(a, b, util::StreamRng(0, 0));
    const game::GameResult fast =
        game::batch::run_pure_game(a, b, payoff, rounds);
    sampled.cases++;
    if (fast.payoff_a != loop.payoff_a || fast.payoff_b != loop.payoff_b ||
        fast.coop_a != loop.coop_a || fast.coop_b != loop.coop_b) {
      std::ostringstream os;
      os << "run_pure_game diverges from the round loop at iter " << iter
         << " (memory " << memory << ", rounds " << rounds << ")";
      note_failure(sampled, os.str());
    }
  }
  report.checks.push_back(std::move(walker));
  report.checks.push_back(std::move(sampled));
}

/// (A's coop rate, A's per-round payoff) of one ordered pair game.
std::pair<double, double> oracle_pair(const game::Strategy& a,
                                      const game::Strategy& b,
                                      const game::IpdParams& params,
                                      std::uint64_t stream_key) {
  if (a.is_pure() && b.is_pure() && params.noise == 0.0) {
    const auto g = game::markov::exact_pure_game(a.as_pure(), b.as_pure(),
                                                 params.payoff, params.rounds);
    return {static_cast<double>(g.coop_a) / g.rounds, g.mean_payoff_a()};
  }
  if (a.memory() == 1) {
    const auto o = game::markov::finite_outcome_mem1(
        a, b, params.payoff, params.rounds, params.noise);
    return {o.coop_a, o.payoff_a};
  }
  const game::IpdEngine engine(a.memory(), params);
  const auto g = engine.play(
      a, b, util::StreamRng(analysis::kSampleStreamSeed, stream_key));
  return {static_cast<double>(g.coop_a) / g.rounds, g.mean_payoff_a()};
}

/// A population of `n` SSets drawn from a pool of `distinct` strategies,
/// so it holds repeated classes and (usually) singletons.
pop::Population sample_population(util::Xoshiro256& rng, pop::SSetId n,
                                  std::size_t distinct, int memory,
                                  bool mixed) {
  std::vector<game::Strategy> pool;
  for (std::size_t k = 0; k < distinct; ++k) {
    if (mixed) {
      pool.emplace_back(game::MixedStrategy::random(memory, rng));
    } else {
      pool.emplace_back(game::PureStrategy::random(memory, rng));
    }
  }
  std::vector<game::Strategy> ss;
  for (pop::SSetId i = 0; i < n; ++i) {
    ss.push_back(pool[util::uniform_below(rng, pool.size())]);
  }
  return pop::Population(std::move(ss));
}

/// Batched, class-deduplicated report vs the per-pair oracle.
void check_report(KernelReport& report, util::Xoshiro256& rng) {
  KernelCheck c{"report.batched_vs_per_pair", true, 0, 0.0, {}};
  for (int iter = 0; iter < 32; ++iter) {
    // Cases: mixed memory-one at noise 0 and 0.05, pure memory-one with
    // and without noise, pure memory-two at noise 0.
    const int kind = iter % 5;
    const bool mixed = kind < 2;
    const int memory = kind == 4 ? 2 : 1;
    game::IpdParams params;
    params.payoff = sample_payoff(rng, iter % 2 == 0);
    params.rounds =
        static_cast<std::uint32_t>(1 + util::uniform_below(rng, 300));
    params.noise = (kind == 1 || kind == 3) ? 0.05 : 0.0;
    const auto n = static_cast<pop::SSetId>(2 + util::uniform_below(rng, 39));
    const std::size_t distinct = 1 + util::uniform_below(rng, n);
    const pop::Population pop =
        sample_population(rng, n, distinct, memory, mixed);

    const analysis::CooperationReport got =
        analysis::expected_play_cooperation(pop, params);
    const analysis::CooperationReport want = per_pair_report(pop, params);
    c.cases++;
    double worst = std::max(rel_err(got.mean_coop_rate, want.mean_coop_rate),
                            rel_err(got.mean_payoff, want.mean_payoff));
    for (pop::SSetId i = 0; i < n; ++i) {
      worst = std::max(
          worst, rel_err(got.per_sset_coop[i], want.per_sset_coop[i]));
    }
    c.worst_rel = std::max(c.worst_rel, worst);
    if (worst > kCrossKernelTol) {
      std::ostringstream os;
      os << "report vs per-pair oracle rel err " << worst << " > "
         << kCrossKernelTol << " at iter " << iter << " (" << n
         << " SSets, " << distinct << " strategies)";
      note_failure(c, os.str());
    }
  }
  if (c.detail.empty()) {
    std::ostringstream os;
    os << "worst rel err " << c.worst_rel;
    c.detail = os.str();
  }
  report.checks.push_back(std::move(c));
}

}  // namespace

analysis::CooperationReport per_pair_report(const pop::Population& pop,
                                            const game::IpdParams& params,
                                            std::uint64_t sample_seed) {
  const pop::SSetId n = pop.size();
  analysis::CooperationReport rep;
  rep.per_sset_coop.assign(n, 0.0);
  double coop_total = 0.0;
  double payoff_total = 0.0;
  for (pop::SSetId i = 0; i < n; ++i) {
    double coop_i = 0.0;
    for (pop::SSetId j = 0; j < n; ++j) {
      if (i == j) continue;
      const auto [coop, payoff] =
          oracle_pair(pop.strategy(i), pop.strategy(j), params,
                      util::stream_key(sample_seed, i, j));
      coop_i += coop;
      payoff_total += payoff;
    }
    rep.per_sset_coop[i] = coop_i / (n - 1);
    coop_total += coop_i;
  }
  const double games = static_cast<double>(n) * (n - 1);
  rep.mean_coop_rate = coop_total / games;
  rep.mean_payoff = payoff_total / games;
  return rep;
}

KernelReport run_kernel_checks(std::uint64_t seed) {
  KernelReport report;
  report.avx2_available =
      game::simd::compiled_with_avx2() && game::simd::cpu_supports_avx2();
  util::Xoshiro256 rng(seed);
  check_mem1(report, rng);
  check_pure(report, rng);
  check_report(report, rng);
  return report;
}

}  // namespace egt::simcheck
