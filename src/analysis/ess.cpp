#include "analysis/ess.hpp"

#include "analysis/coop.hpp"
#include "game/enumerate.hpp"
#include "util/check.hpp"

namespace egt::analysis {

InvasionAnalysis analyze_invasion(const game::Strategy& resident,
                                  const game::Strategy& mutant,
                                  std::uint32_t n,
                                  const game::IpdParams& params,
                                  double tolerance) {
  EGT_REQUIRE_MSG(n >= 3, "invasion analysis needs at least three SSets");
  EGT_REQUIRE_MSG(resident.memory() == mutant.memory(),
                  "resident and mutant must share one memory depth");
  const core::PairEvaluator eval = play_evaluator(params, resident.memory());
  EGT_REQUIRE_MSG(eval.strategy_pure(resident, resident) &&
                      eval.strategy_pure(resident, mutant),
                  "invasion analysis needs an analytically solvable game "
                  "(memory-one, or pure strategies without noise)");
  // One mutant among n-1 residents; everyone plays everyone else. The
  // resident-vs-mutant game answers both sides.
  const core::PairRequest games[2] = {{&resident, &resident, 0},
                                      {&resident, &mutant, 0}};
  game::batch::BatchTotals t[2];
  eval.evaluate(games, t);
  const double rounds = params.rounds;
  const double rr = t[0].payoff_a / rounds;
  const double rm = t[1].payoff_a / rounds;
  const double mr = t[1].payoff_b / rounds;

  InvasionAnalysis out;
  out.mutant_fitness = mr;  // all n-1 opponents are residents
  out.resident_fitness =
      (static_cast<double>(n - 2) * rr + rm) / static_cast<double>(n - 1);
  const double edge = out.mutant_fitness - out.resident_fitness;
  if (edge > tolerance) {
    out.outcome = InvasionOutcome::Invadable;
  } else if (edge < -tolerance) {
    out.outcome = InvasionOutcome::Resists;
  } else {
    out.outcome = InvasionOutcome::Neutral;
  }
  return out;
}

bool is_uninvadable_pure_mem1(const game::PureStrategy& resident,
                              std::uint32_t n, const game::IpdParams& params,
                              double tolerance) {
  EGT_REQUIRE_MSG(resident.memory() == 1, "memory-one sweep");
  for (const auto& mutant : game::all_pure_strategies(1)) {
    if (mutant == resident) continue;
    const auto a = analyze_invasion(game::Strategy(resident),
                                    game::Strategy(mutant), n, params,
                                    tolerance);
    if (a.outcome == InvasionOutcome::Invadable) return false;
  }
  return true;
}

std::vector<game::PureStrategy> uninvadable_pure_mem1(
    std::uint32_t n, const game::IpdParams& params, double tolerance) {
  std::vector<game::PureStrategy> out;
  for (const auto& resident : game::all_pure_strategies(1)) {
    if (is_uninvadable_pure_mem1(resident, n, params, tolerance)) {
      out.push_back(resident);
    }
  }
  return out;
}

}  // namespace egt::analysis
