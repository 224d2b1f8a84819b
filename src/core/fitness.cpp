#include "core/fitness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace egt::core {

PairEvaluator::PairEvaluator(const SimConfig& config)
    : config_(config),
      engine_(config.memory, config.game.ipd_params(), config.lookup) {}

PairEvaluator::Route PairEvaluator::route(
    const game::Strategy& si, const game::Strategy& sj) const noexcept {
  if (config_.fitness_mode != FitnessMode::Analytic) {
    return Route::SampledStream;
  }
  // N-way matrix games: the memory-0 outcome chain is always exact, and
  // must never flow into a kernel that assumes binary moves.
  if (game::spec::requires_spec_chain(config_.game)) return Route::NWaySpec;
  if (si.is_pure() && sj.is_pure() && config_.game.noise == 0.0) {
    return Route::PureExact;
  }
  if (config_.memory == 1) return Route::Mem1Markov;
  return Route::SampledStream;  // stochastic memory >= 2: stream play
}

bool PairEvaluator::strategy_pure(const game::Strategy& si,
                                  const game::Strategy& sj) const noexcept {
  return route(si, sj) != Route::SampledStream;
}

void PairEvaluator::mem1_batch_payoffs(const game::batch::Mem1Batch& batch,
                                       std::span<double> out) const {
  game::batch::expected_payoff_mem1(batch, config_.game.payoff,
                                    config_.game.rounds, out);
}

namespace {

game::batch::BatchTotals totals_of(const game::GameResult& g) noexcept {
  return {g.payoff_a, g.payoff_b, static_cast<double>(g.coop_a),
          static_cast<double>(g.coop_b)};
}

}  // namespace

game::batch::BatchTotals PairEvaluator::play_unbatched(
    Route r, const PairRequest& pair) const {
  const game::GameSpec& g = config_.game;
  const game::Strategy& a = *pair.a;
  const game::Strategy& b = *pair.b;
  switch (r) {
    case Route::NWaySpec:
      return totals_of(game::spec::expected_game(
          g, game::spec::Behavioral::from_strategy(g, a),
          game::spec::Behavioral::from_strategy(g, b)));
    case Route::PureExact:
      return totals_of(game::batch::exact_pure_game_fast(
          a.as_pure(), b.as_pure(), g.payoff, g.rounds));
    case Route::SampledStream:
    case Route::Mem1Markov:
      break;
  }
  const util::StreamRng rng(config_.seed, pair.stream_key);
  // Sampled n-way play: g.rounds independent one-shot stage games.
  return totals_of(g.uses_nway() ? game::spec::play_oneshot(g, a, b, rng)
                                 : engine_.play(a, b, rng));
}

game::batch::BatchTotals PairEvaluator::evaluate_one(
    const PairRequest& pair) const {
  const Route r = route(*pair.a, *pair.b);
  if (r != Route::Mem1Markov) return play_unbatched(r, pair);
  game::batch::BatchTotals t;
  evaluate({&pair, 1}, {&t, 1});
  return t;
}

void PairEvaluator::evaluate(std::span<const PairRequest> pairs,
                             std::span<game::batch::BatchTotals> out) const {
  EGT_REQUIRE(out.size() >= pairs.size());
  const game::GameSpec& g = config_.game;
  // Mem1Markov pairs queue into one SoA batch; lanes[m] is the pair index
  // of batch lane m. Every other route answers in place.
  thread_local game::batch::Mem1Batch batch;
  thread_local std::vector<std::size_t> lanes;
  batch.clear();
  lanes.clear();
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const Route r = route(*pairs[k].a, *pairs[k].b);
    if (r == Route::Mem1Markov) {
      batch.push_pair(*pairs[k].a, *pairs[k].b, g.noise);
      lanes.push_back(k);
    } else {
      out[k] = play_unbatched(r, pairs[k]);
    }
  }
  if (lanes.empty()) return;
  if (lanes.size() == pairs.size()) {
    // Every pair is a lane, in order: the kernel writes out directly.
    game::batch::expected_totals_mem1(batch, g.payoff, g.rounds, out);
    return;
  }
  thread_local std::vector<game::batch::BatchTotals> lane_out;
  lane_out.resize(lanes.size());
  game::batch::expected_totals_mem1(batch, g.payoff, g.rounds, lane_out);
  for (std::size_t m = 0; m < lanes.size(); ++m) out[lanes[m]] = lane_out[m];
}

double PairEvaluator::pair_payoff(const game::Strategy& si,
                                  const game::Strategy& sj) const {
  EGT_REQUIRE_MSG(strategy_pure(si, sj),
                  "pair_payoff requires a strategy-pure pair");
  return evaluate_one({&si, &sj, 0}).payoff_a;
}

double PairEvaluator::payoff(const pop::Population& pop, pop::SSetId i,
                             pop::SSetId j, std::uint64_t gen_key) const {
  EGT_REQUIRE_MSG(config_.game.kind != game::GameKind::PublicGoods,
                  "public goods fitness is group-pooled, not pairwise");
  // Exact routes ignore the key: the value is a pure function of the
  // strategy pair (the dedup-eligibility rule).
  return evaluate_one({&pop.strategy(i), &pop.strategy(j),
                       util::stream_key(gen_key, i, j)})
      .payoff_a;
}

BlockFitness::BlockFitness(const SimConfig& config, pop::SSetId row_begin,
                           pop::SSetId row_end,
                           std::shared_ptr<const pop::InteractionGraph> graph,
                           obs::MetricsRegistry* metrics)
    : config_(config),
      eval_(config),
      graph_(std::move(graph)),
      begin_(row_begin),
      end_(row_end),
      dedup_(config.dedup && config.fitness_mode == FitnessMode::Analytic &&
             config.game.kind != game::GameKind::PublicGoods),
      pgg_(config.game.kind == game::GameKind::PublicGoods) {
  EGT_REQUIRE(row_begin <= row_end && row_end <= config.ssets);
  if (metrics != nullptr) {
    ct_cache_inserts_ = &metrics->counter("fitness.cache_inserts");
    ct_cache_prunes_ = &metrics->counter("fitness.cache_prunes");
    ct_restores_ = &metrics->counter("fitness.state_restores");
  }
  fitness_.assign(end_ - begin_, 0.0);
  scale_.reserve(end_ - begin_);
  for (pop::SSetId i = begin_; i < end_; ++i) scale_.push_back(row_scale(i));
  if (pairwise_cached()) {
    matrix_.assign(static_cast<std::size_t>(end_ - begin_) * config_.ssets,
                   0.0);
  }
  if (config.agent_threads > 0) {
    row_scratch_.assign(config_.ssets, 0.0);
    agent_pool_ = std::make_unique<par::ThreadPool>(config.agent_threads);
  }
  if (config.sset_threads > 0 && end_ > begin_) {
    sset_pool_ = std::make_unique<par::ThreadPool>(config.sset_threads);
  }
}

double BlockFitness::row_scale(pop::SSetId i) const noexcept {
  if (config_.fitness_scale == FitnessScale::Total) return 1.0;
  if (pgg_) {
    // Mean per-round, per-group payoff.
    return 1.0 /
           (static_cast<double>(pgg_group_count(i)) * config_.game.rounds);
  }
  const double opponents =
      structured() ? graph_->degree(i)
                   : static_cast<double>(config_.ssets - 1);
  return 1.0 / (opponents * config_.game.rounds);
}

std::uint32_t BlockFitness::pgg_group_count(pop::SSetId i) const noexcept {
  if (structured()) return 1 + static_cast<std::uint32_t>(graph_->degree(i));
  return config_.game.pgg_k == 0 ? 1 : config_.game.pgg_k;
}

double BlockFitness::pgg_contrib(const pop::Population& pop, pop::SSetId j,
                                 std::uint64_t gen_key) const {
  const double p = pop.strategy(j).coop_prob(0);
  const double eps = config_.game.noise;
  const double pe = (1.0 - eps) * p + eps * (1.0 - p);
  if (config_.fitness_mode == FitnessMode::Analytic) {
    return pe * config_.game.rounds;
  }
  util::StreamRng rng(config_.seed, util::stream_key(gen_key, j, j));
  double c = 0.0;
  for (std::uint32_t t = 0; t < config_.game.rounds; ++t) {
    if (util::bernoulli(rng, pe)) c += 1.0;
  }
  return c;
}

void BlockFitness::recompute_row_pgg(pop::SSetId i, const pop::Population& pop,
                                     std::uint64_t gen_key, Counts& counts) {
  const double r = config_.game.pgg_r;
  const double cost = config_.game.pgg_cost;
  const double own = pgg_contrib(pop, i, gen_key);
  double sum = 0.0;
  if (structured()) {
    // One group per SSet t, {t} ∪ N(t): i plays in its own group and in
    // every neighbour's.
    const auto group_share = [&](pop::SSetId t) {
      const auto nbrs = graph_->neighbors(t);
      double pool = pgg_contrib(pop, t, gen_key);
      for (pop::SSetId j : nbrs) pool += pgg_contrib(pop, j, gen_key);
      counts.pairs += 1 + nbrs.size();
      ++counts.games;
      return r * cost * pool / static_cast<double>(1 + nbrs.size());
    };
    sum += group_share(i) - own * cost;
    for (pop::SSetId t : graph_->neighbors(i)) {
      sum += group_share(t) - own * cost;
    }
  } else if (config_.game.pgg_k == 0) {
    // Well-mixed auto group: everyone shares one pool.
    double pool = 0.0;
    for (pop::SSetId j = 0; j < config_.ssets; ++j) {
      pool += pgg_contrib(pop, j, gen_key);
    }
    counts.pairs += config_.ssets;
    ++counts.games;
    sum = r * cost * pool / config_.ssets - own * cost;
  } else {
    // Well-mixed k-windows: i is a member of the k ring windows starting
    // at i-k+1 .. i (mod n). d(payoff_i)/d(own) = cost * (r - k): free
    // riding dominates for r < k, contribution for r > k.
    const std::uint32_t k = config_.game.pgg_k;
    const std::uint32_t n = config_.ssets;
    for (std::uint32_t o = 0; o < k; ++o) {
      const std::uint32_t t = (i + n - o) % n;
      double pool = 0.0;
      for (std::uint32_t d = 0; d < k; ++d) {
        pool += pgg_contrib(pop, (t + d) % n, gen_key);
      }
      counts.pairs += k;
      ++counts.games;
      sum += r * cost * pool / k - own * cost;
    }
  }
  fitness_[i - begin_] = sum * scale_[i - begin_];
}

double BlockFitness::pair_value(const pop::Population& pop, pop::SSetId i,
                                pop::SSetId j, std::uint64_t gen_key,
                                std::uint64_t& games, bool allow_insert) {
  if (dedup_) {
    const pop::ClassId ci = pop.strategy_class(i);
    const pop::ClassId cj = pop.strategy_class(j);
    // Only strategy-pure pairs are ever stored, so a known cell needs no
    // route check.
    const double hit = cached_pay(ci, cj);
    if (!std::isnan(hit)) return hit;
    const auto& classes = pop.classes();
    const game::Strategy& si = classes[ci].strategy;
    const game::Strategy& sj = classes[cj].strategy;
    if (eval_.strategy_pure(si, sj)) {
      const double v = eval_.pair_payoff(si, sj);
      ++games;
      if (allow_insert) insert_pay(pop, ci, cj, v);
      return v;
    }
  }
  ++games;
  return eval_.payoff(pop, i, j, gen_key);
}

void BlockFitness::sync_slots(const pop::Population& pop) {
  const auto& classes = pop.classes();
  slot_content_.resize(classes.size(), kNoContent);
  bool revive = false;
  for (pop::ClassId c = 0; c < classes.size(); ++c) {
    if (classes[c].members == 0) continue;
    std::uint32_t& id = slot_content_[c];
    if (id != kNoContent && content_hash_[id] == classes[c].hash) continue;
    const auto it = content_of_.find(classes[c].hash);
    if (it != content_of_.end()) {
      id = it->second;
    } else if (retired_hashes_.count(classes[c].hash) != 0) {
      id = intern_hash(classes[c].hash);  // a retired strategy came back
      revive = true;
    } else {
      id = kNoContent;
    }
  }
  if (!revive) return;
  // Move back every retired cell whose two contents both hold an ID again.
  std::erase_if(retired_, [&](const DedupEntry& e) {
    const auto a = content_of_.find(e.a);
    const auto b = content_of_.find(e.b);
    if (a == content_of_.end() || b == content_of_.end()) return false;
    cell(a->second, b->second) = e.payoff;
    return true;
  });
}

std::uint32_t BlockFitness::intern_hash(std::uint64_t h) {
  const auto [it, fresh] = content_of_.try_emplace(
      h, static_cast<std::uint32_t>(content_hash_.size()));
  if (fresh) {
    content_hash_.push_back(h);
    pay_.emplace_back();
  }
  return it->second;
}

std::uint32_t BlockFitness::intern_class(const pop::Population& pop,
                                         pop::ClassId c) {
  std::uint32_t& id = slot_content_[c];
  if (id == kNoContent) id = intern_hash(pop.classes()[c].hash);
  return id;
}

void BlockFitness::insert_pay(const pop::Population& pop, pop::ClassId a,
                              pop::ClassId b, double v) {
  const std::uint32_t ra = intern_class(pop, a);
  const std::uint32_t rb = intern_class(pop, b);
  double& c = cell(ra, rb);
  if (!std::isnan(c)) return;
  c = v;
  ++known_;
  if (ct_cache_inserts_ != nullptr) ct_cache_inserts_->inc();
}

void BlockFitness::queue_pair(const pop::Population& pop, pop::ClassId cr,
                              pop::ClassId cc) {
  if (!std::isnan(cached_pay(cr, cc))) return;
  const auto& classes = pop.classes();
  const game::Strategy& row = classes[cr].strategy;
  const game::Strategy& col = classes[cc].strategy;
  if (!eval_.strategy_pure(row, col)) return;
  const std::uint32_t ra = intern_class(pop, cr);
  const std::uint32_t rb = intern_class(pop, cc);
  double& c = cell(ra, rb);
  if (!std::isnan(c)) return;  // already queued (kPending)
  c = kPending;
  prefill_reqs_.push_back({&row, &col, 0});
  prefill_cells_.emplace_back(ra, rb);
}

void BlockFitness::flush_prefill() {
  if (prefill_reqs_.empty()) return;
  prefill_vals_.resize(prefill_reqs_.size());
  eval_.evaluate(prefill_reqs_, prefill_vals_);
  for (std::size_t m = 0; m < prefill_cells_.size(); ++m) {
    const auto [ra, rb] = prefill_cells_[m];
    pay_[ra][rb] = prefill_vals_[m].payoff_a;
  }
  known_ += prefill_cells_.size();
  games_ += prefill_cells_.size();
  if (ct_cache_inserts_ != nullptr) {
    ct_cache_inserts_->inc(prefill_cells_.size());
  }
  prefill_reqs_.clear();
  prefill_cells_.clear();
}

void BlockFitness::prefill_class(const pop::Population& pop, pop::ClassId cr) {
  // Cover exactly the keys a well-mixed row of class `cr` can touch, so
  // games_played stays identical to the serial lazy path for any thread
  // count: every live column class — except the self pair of a singleton
  // class, which no (i, j != i) ever realizes.
  const auto& classes = pop.classes();
  for (pop::ClassId cc = 0; cc < classes.size(); ++cc) {
    if (classes[cc].members == 0) continue;
    if (cc == cr && classes[cc].members < 2) continue;
    queue_pair(pop, cr, cc);
  }
  flush_prefill();
}

void BlockFitness::prefill_neighbors(const pop::Population& pop,
                                     pop::SSetId i) {
  const pop::ClassId ci = pop.strategy_class(i);
  for (const pop::SSetId j : graph_->neighbors(i)) {
    queue_pair(pop, ci, pop.strategy_class(j));
  }
  flush_prefill();
}

void BlockFitness::prefill_column(pop::SSetId k, const pop::Population& pop) {
  // A noise-free all-pure population takes the pure walker on every pair,
  // which the delta loop's lazy misses play cheaply one at a time.
  if (!dedup_) return;
  if (config_.game.noise == 0.0 && pop.mixed_class_count() == 0) return;
  // Each (c_i, c_k) pair once, in first-row order; the delta loop then
  // walks the same rows and only hits the table.
  const pop::ClassId ck = pop.strategy_class(k);
  for (pop::SSetId i = begin_; i < end_; ++i) {
    if (i == k) continue;
    if (structured() && !graph_->are_neighbors(i, k)) continue;
    queue_pair(pop, pop.strategy_class(i), ck);
  }
  flush_prefill();
}

void BlockFitness::recompute_row(pop::SSetId i, const pop::Population& pop,
                                 std::uint64_t gen_key, Counts& counts,
                                 bool nested) {
  if (pgg_) {
    recompute_row_pgg(i, pop, gen_key, counts);
    return;
  }
  const std::size_t row = i - begin_;
  const bool use_agent_pool = agent_pool_ != nullptr && !nested;
  double sum = 0.0;
  if (structured()) {
    // Structured population: only neighbours play.
    const std::span<const pop::SSetId> nbrs = graph_->neighbors(i);
    if (use_agent_pool) {
      // Agent tier for structured rows: the neighbour games run
      // concurrently into the scratch buffer (indexed by neighbour
      // position); the reduction then walks the neighbour list in its
      // fixed order — bit-identical to the serial loop.
      std::atomic<std::uint64_t> games{0};
      agent_pool_->parallel_for(
          nbrs.size(), [&](std::uint64_t b, std::uint64_t e) {
            std::uint64_t g = 0;
            for (std::uint64_t t = b; t < e; ++t) {
              row_scratch_[t] =
                  pair_value(pop, i, nbrs[t], gen_key, g, false);
            }
            games.fetch_add(g, std::memory_order_relaxed);
          });
      counts.games += games.load(std::memory_order_relaxed);
      counts.pairs += nbrs.size();
      for (std::size_t t = 0; t < nbrs.size(); ++t) {
        const double v = row_scratch_[t];
        if (cached()) matrix_[row * config_.ssets + nbrs[t]] = v;
        sum += v;
      }
    } else {
      for (pop::SSetId j : nbrs) {
        const double v = pair_value(pop, i, j, gen_key, counts.games, !nested);
        ++counts.pairs;
        if (cached()) matrix_[row * config_.ssets + j] = v;
        sum += v;
      }
    }
    fitness_[row] = sum * scale_[row];
    return;
  }
  if (use_agent_pool) {
    // Agent tier: the row's games run concurrently into a buffer; the sum
    // is then taken in fixed j order, so the result is bit-identical to
    // the serial path.
    std::atomic<std::uint64_t> games{0};
    agent_pool_->parallel_for(
        config_.ssets, [&](std::uint64_t b, std::uint64_t e) {
          std::uint64_t g = 0;
          for (std::uint64_t j = b; j < e; ++j) {
            if (j == i) continue;
            row_scratch_[j] = pair_value(pop, i, static_cast<pop::SSetId>(j),
                                         gen_key, g, false);
          }
          games.fetch_add(g, std::memory_order_relaxed);
        });
    counts.games += games.load(std::memory_order_relaxed);
    counts.pairs += config_.ssets - 1;
    for (pop::SSetId j = 0; j < config_.ssets; ++j) {
      if (j == i) continue;
      if (cached()) matrix_[row * config_.ssets + j] = row_scratch_[j];
      sum += row_scratch_[j];
    }
  } else if (!dedup_) {
    // The whole row in one evaluate() call: its Mem1Markov pairs share one
    // batch kernel call, every other pair plays its own route. The sum
    // still walks j in fixed order over the same per-pair values, so this
    // is bitwise the per-pair loop.
    thread_local std::vector<PairRequest> reqs;
    thread_local std::vector<game::batch::BatchTotals> vals;
    reqs.clear();
    for (pop::SSetId j = 0; j < config_.ssets; ++j) {
      if (j == i) continue;
      reqs.push_back({&pop.strategy(i), &pop.strategy(j),
                      util::stream_key(gen_key, i, j)});
    }
    vals.resize(reqs.size());
    eval_.evaluate(reqs, vals);
    counts.pairs += reqs.size();
    counts.games += reqs.size();
    std::size_t m = 0;
    for (pop::SSetId j = 0; j < config_.ssets; ++j) {
      if (j == i) continue;
      const double v = vals[m++].payoff_a;
      if (cached()) matrix_[row * config_.ssets + j] = v;
      sum += v;
    }
  } else {
    for (pop::SSetId j = 0; j < config_.ssets; ++j) {
      if (j == i) continue;
      const double v = pair_value(pop, i, j, gen_key, counts.games, !nested);
      ++counts.pairs;
      if (cached()) matrix_[row * config_.ssets + j] = v;
      sum += v;
    }
  }
  fitness_[row] = sum * scale_[row];
}

void BlockFitness::evaluate_rows(const pop::Population& pop,
                                 std::uint64_t gen_key) {
  const std::uint64_t rows = end_ - begin_;
  if (dedup_) {
    // Cover exactly the strategy-pure pairs the rows below will touch,
    // serially and up front. Pool workers then only ever read the table
    // (the hit set is guaranteed and games_played stays
    // thread-count-invariant), and the serial path inserts the same key
    // set it would have inserted lazily — but through one evaluate() call
    // per row class instead of one kernel call per miss.
    sync_slots(pop);
    if (structured()) {
      for (pop::SSetId i = begin_; i < end_; ++i) prefill_neighbors(pop, i);
    } else {
      std::vector<pop::ClassId> row_classes;
      row_classes.reserve(rows);
      for (pop::SSetId i = begin_; i < end_; ++i) {
        row_classes.push_back(pop.strategy_class(i));
      }
      std::sort(row_classes.begin(), row_classes.end());
      row_classes.erase(std::unique(row_classes.begin(), row_classes.end()),
                        row_classes.end());
      for (pop::ClassId cr : row_classes) prefill_class(pop, cr);
    }
  }
  if (sset_pool_ == nullptr) {
    Counts counts;
    for (pop::SSetId i = begin_; i < end_; ++i) {
      recompute_row(i, pop, gen_key, counts, false);
    }
    pairs_ += counts.pairs;
    games_ += counts.games;
    return;
  }
  // SSet-row tier: rows are independent (each writes only its fitness and
  // matrix entries and its own Counts slot); every row keeps its fixed
  // j-order sum, so any thread count is bit-identical to serial.
  std::vector<Counts> per_row(rows);
  sset_pool_->parallel_for(rows, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t r = b; r < e; ++r) {
      recompute_row(begin_ + static_cast<pop::SSetId>(r), pop, gen_key,
                    per_row[r], true);
    }
  });
  for (const Counts& c : per_row) {
    pairs_ += c.pairs;
    games_ += c.games;
  }
}

void BlockFitness::initialize(const pop::Population& pop) {
  evaluate_rows(pop, 0);
}

void BlockFitness::begin_generation(const pop::Population& pop,
                                    std::uint64_t generation) {
  if (cached()) return;  // values only move when a strategy changes
  evaluate_rows(pop, generation);
}

void BlockFitness::strategy_changed(pop::SSetId k, const pop::Population& pop,
                                    std::uint64_t generation) {
  if (!cached()) return;  // next begin_generation re-plays everything anyway
  Counts counts;
  if (pgg_) {
    // A single strategy change moves every group pool the SSet touches
    // (and, well-mixed, every row): recompute all owned rows. Row-local
    // and deterministic, so serial and parallel partitions agree on both
    // values and counters.
    for (pop::SSetId i = begin_; i < end_; ++i) {
      recompute_row(i, pop, generation, counts, false);
    }
    pairs_ += counts.pairs;
    games_ += counts.games;
    return;
  }
  if (dedup_) sync_slots(pop);
  if (k >= begin_ && k < end_) {
    if (dedup_) {
      // Make every strategy-pure pair of row k a hit first: the agent tier
      // (when active) then reads the table without ever inserting.
      if (structured()) {
        prefill_neighbors(pop, k);
      } else {
        prefill_class(pop, pop.strategy_class(k));
      }
    }
    recompute_row(k, pop, generation, counts, false);
  }
  prefill_column(k, pop);
  for (pop::SSetId i = begin_; i < end_; ++i) {
    if (i == k) continue;
    if (structured() && !graph_->are_neighbors(i, k)) continue;
    const std::size_t row = i - begin_;
    const std::size_t idx = row * config_.ssets + k;
    // Incremental class-delta update: the fresh value comes from the
    // class-pair table when the pair is strategy-pure (one game per new
    // class pair; prefill_column has already played the Mem1Markov ones),
    // and matrix_ still holds the pre-change value, so the fitness delta
    // needs no old-class bookkeeping.
    const double fresh = pair_value(pop, i, k, generation, counts.games, true);
    ++counts.pairs;
    fitness_[row] += (fresh - matrix_[idx]) * scale_[row];
    matrix_[idx] = fresh;
  }
  pairs_ += counts.pairs;
  games_ += counts.games;
  maybe_prune_cache(pop);
}

void BlockFitness::maybe_prune_cache(const pop::Population& pop) {
  if (!dedup_) return;
  const std::uint64_t live = pop.class_count();
  if (known_ > 256 + 8 * live * live) {
    compact_table(pop, true);
  } else if (content_hash_.size() > 2 * live + 64 &&
             table_cells_ > 4 * (known_ - retired_.size())) {
    compact_table(pop, false);
  }
}

void BlockFitness::compact_table(const pop::Population& pop, bool prune) {
  // Live contents keep an ID, renumbered in class-slot order.
  const std::size_t contents = content_hash_.size();
  std::vector<std::uint32_t> renumber(contents, kNoContent);
  std::vector<std::uint64_t> kept_hash;
  for (const pop::StrategyClass& c : pop.classes()) {
    if (c.members == 0) continue;
    const auto it = content_of_.find(c.hash);
    if (it == content_of_.end() || renumber[it->second] != kNoContent) {
      continue;
    }
    renumber[it->second] = static_cast<std::uint32_t>(kept_hash.size());
    kept_hash.push_back(c.hash);
  }
  const std::vector<std::vector<double>> old =
      std::exchange(pay_, std::vector<std::vector<double>>(kept_hash.size()));
  table_cells_ = 0;
  std::uint64_t dropped = 0;
  for (std::size_t a = 0; a < contents; ++a) {
    for (std::size_t b = 0; b < old[a].size(); ++b) {
      const double v = old[a][b];
      if (std::isnan(v)) continue;
      if (renumber[a] != kNoContent && renumber[b] != kNoContent) {
        cell(renumber[a], renumber[b]) = v;
      } else if (prune) {
        ++dropped;
      } else {
        // Both contents are listed, so whichever of them returns later
        // finds the cell (sync_slots).
        retired_.push_back({content_hash_[a], content_hash_[b], v});
        retired_hashes_.insert(content_hash_[a]);
        retired_hashes_.insert(content_hash_[b]);
      }
    }
  }
  if (prune) {
    // Every retired cell has a dead content: sync_slots gives each live
    // content listed in retired_hashes_ an ID and moves a cell back once
    // both of its contents hold one. So the prune drops them all.
    dropped += retired_.size();
    retired_.clear();
    retired_hashes_.clear();
    known_ -= dropped;
    if (ct_cache_prunes_ != nullptr) ct_cache_prunes_->inc(dropped);
  }
  content_hash_ = std::move(kept_hash);
  content_of_.clear();
  for (std::uint32_t id = 0; id < content_hash_.size(); ++id) {
    content_of_.emplace(content_hash_[id], id);
  }
  for (std::uint32_t& id : slot_content_) {
    if (id != kNoContent) id = renumber[id];
  }
}

void BlockFitness::restore_state(std::vector<double> fitness,
                                 std::vector<double> matrix,
                                 std::vector<DedupEntry> cache) {
  EGT_REQUIRE_MSG(cached(),
                  "restore_state only applies to cached fitness modes "
                  "(Sampled mode recomputes from the population)");
  EGT_REQUIRE_MSG(fitness.size() == fitness_.size(),
                  "restored fitness size mismatch");
  EGT_REQUIRE_MSG(matrix.size() == matrix_.size(),
                  "restored payoff matrix size mismatch");
  fitness_ = std::move(fitness);
  matrix_ = std::move(matrix);
  if (ct_restores_ != nullptr) ct_restores_->inc();
  if (dedup_) {
    content_of_.clear();
    content_hash_.clear();
    pay_.clear();
    retired_.clear();
    retired_hashes_.clear();
    known_ = 0;
    table_cells_ = 0;
    for (const DedupEntry& e : cache) {
      // NaN and -inf are the table's unknown and queued markers.
      EGT_REQUIRE_MSG(std::isfinite(e.payoff),
                      "restored dedup cache holds a non-finite payoff");
      double& c = cell(intern_hash(e.a), intern_hash(e.b));
      if (std::isnan(c)) ++known_;
      c = e.payoff;
    }
    // Slots are re-resolved by content on the next sync_slots.
    slot_content_.assign(slot_content_.size(), kNoContent);
  }
}

std::vector<BlockFitness::DedupEntry> BlockFitness::dedup_cache() const {
  std::vector<DedupEntry> out;
  out.reserve(known_);
  for (std::size_t a = 0; a < pay_.size(); ++a) {
    for (std::size_t b = 0; b < pay_[a].size(); ++b) {
      const double v = pay_[a][b];
      if (!std::isnan(v)) {
        out.push_back(DedupEntry{content_hash_[a], content_hash_[b], v});
      }
    }
  }
  out.insert(out.end(), retired_.begin(), retired_.end());
  // Deterministic blob bytes regardless of content numbering.
  std::sort(out.begin(), out.end(), [](const DedupEntry& x, const DedupEntry& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  return out;
}

double BlockFitness::fitness(pop::SSetId i) const {
  EGT_REQUIRE_MSG(i >= begin_ && i < end_, "fitness query outside block");
  return fitness_[i - begin_];
}

}  // namespace egt::core
