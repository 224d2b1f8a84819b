#include "analysis/coop.hpp"

#include "util/check.hpp"

namespace egt::analysis {

core::PairEvaluator play_evaluator(const game::IpdParams& params, int memory) {
  core::SimConfig cfg;
  cfg.memory = memory;
  cfg.fitness_mode = core::FitnessMode::Analytic;
  cfg.game.payoff = params.payoff;
  cfg.game.rounds = params.rounds;
  cfg.game.noise = params.noise;
  cfg.seed = kSampleStreamSeed;
  return core::PairEvaluator(cfg);
}

double pair_cooperation(const game::Strategy& a, const game::Strategy& b,
                        const game::IpdParams& params,
                        std::uint64_t sample_seed) {
  const core::PairRequest req{&a, &b, sample_seed};
  game::batch::BatchTotals t;
  play_evaluator(params, a.memory()).evaluate({&req, 1}, {&t, 1});
  return t.coop_a / params.rounds;
}

CooperationReport expected_play_cooperation(const pop::Population& pop,
                                            const game::IpdParams& params,
                                            std::uint64_t sample_seed) {
  const pop::SSetId n = pop.size();
  EGT_REQUIRE(n >= 2);
  const core::PairEvaluator eval = play_evaluator(params, pop.memory());
  const double rounds = params.rounds;
  const auto& classes = pop.classes();
  std::vector<pop::ClassId> live;
  live.reserve(pop.class_count());
  for (pop::ClassId c = 0; c < classes.size(); ++c) {
    if (classes[c].members > 0) live.push_back(c);
  }

  // Strategy-pure pairs, one class row at a time: row p plays classes
  // p..u-1 (upper triangle, self pair included when two SSets share it),
  // and one game answers both sides. class_coop[c] collects the expected
  // cooperative moves of one member of class c over those games.
  std::vector<double> class_coop(classes.size(), 0.0);
  double class_payoff = 0.0;  // summed over ordered SSet pairs
  bool any_stream = false;
  std::vector<core::PairRequest> row;
  std::vector<pop::ClassId> cols;
  std::vector<game::batch::BatchTotals> out;
  for (std::size_t p = 0; p < live.size(); ++p) {
    const pop::ClassId a = live[p];
    const pop::StrategyClass& ca = classes[a];
    row.clear();
    cols.clear();
    for (std::size_t q = p; q < live.size(); ++q) {
      const pop::ClassId b = live[q];
      if (b == a && ca.members < 2) continue;  // nobody plays itself
      if (!eval.strategy_pure(ca.strategy, classes[b].strategy)) {
        any_stream = true;
        continue;
      }
      row.push_back({&ca.strategy, &classes[b].strategy, 0});
      cols.push_back(b);
    }
    out.resize(row.size());
    eval.evaluate(row, out);
    const double ma = ca.members;
    for (std::size_t m = 0; m < cols.size(); ++m) {
      const pop::ClassId b = cols[m];
      const game::batch::BatchTotals& t = out[m];
      if (b == a) {
        class_coop[a] += (ma - 1.0) * t.coop_a;
        class_payoff += ma * (ma - 1.0) * t.payoff_a;
      } else {
        const double mb = classes[b].members;
        class_coop[a] += mb * t.coop_a;
        class_coop[b] += ma * t.coop_b;
        class_payoff += ma * mb * (t.payoff_a + t.payoff_b);
      }
    }
  }

  // Stochastic pairs have no closed form: each SSet pair plays its own
  // stream, accumulated in the per-pair loop's (i, j) order.
  CooperationReport rep;
  rep.per_sset_coop.assign(n, 0.0);
  double coop_total = 0.0;
  double payoff_total = class_payoff / rounds;
  for (pop::SSetId i = 0; i < n; ++i) {
    const pop::StrategyClass& ci = classes[pop.strategy_class(i)];
    double coop_i = class_coop[pop.strategy_class(i)] / rounds;
    if (any_stream) {
      row.clear();
      for (pop::SSetId j = 0; j < n; ++j) {
        if (j == i) continue;
        const pop::StrategyClass& cj = classes[pop.strategy_class(j)];
        if (eval.strategy_pure(ci.strategy, cj.strategy)) continue;
        row.push_back({&pop.strategy(i), &pop.strategy(j),
                       util::stream_key(sample_seed, i, j)});
      }
      out.resize(row.size());
      eval.evaluate(row, out);
      for (std::size_t m = 0; m < row.size(); ++m) {
        coop_i += out[m].coop_a / rounds;
        payoff_total += out[m].payoff_a / rounds;
      }
    }
    rep.per_sset_coop[i] = coop_i / (n - 1);
    coop_total += coop_i;
  }
  const double games = static_cast<double>(n) * (n - 1);
  rep.mean_coop_rate = coop_total / games;
  rep.mean_payoff = payoff_total / games;
  return rep;
}

}  // namespace egt::analysis
