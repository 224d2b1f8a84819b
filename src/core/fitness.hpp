// Fitness evaluation (the game-dynamics tier).
//
// An SSet's relative fitness for a generation is the sum of its agents'
// payoffs against every other SSet's strategy (paper §IV-A/§IV-D). Each
// ordered pair (i, j) is one agent-vs-strategy game whose RNG stream is
// keyed by (seed, generation-key, i, j), so the value is a pure function of
// the configuration — independent of evaluation order, rank count, or which
// rank computes it.
//
// BlockFitness maintains the fitness of a contiguous row block [begin, end)
// of SSets. The serial engine uses one block covering everything; each
// parallel rank owns one block (memory then scales as rows/rank * ssets,
// mirroring the paper's per-node strategy-space storage).
//
// Every game is played through PairEvaluator::evaluate, one batched call
// that routes each pair (DESIGN.md §12) and returns both sides' payoff and
// cooperation totals; the analysis reports use the same call.
//
// Two orthogonal accelerations sit on top of the brute-force block:
//
//  * Strategy-interned dedup (config.dedup, Analytic mode): whenever the
//    pairwise payoff is a *pure function of the strategy pair* — the
//    dedup-eligibility rule, satisfied exactly where an exact method
//    applies (deterministic pure pair via the pure walker, or memory-one
//    via the batch Markov kernel) — the engine plays one game per unique
//    (class_i, class_j) from the population's interned class table and
//    reuses the value for every SSet pair in those classes: O(u^2) games
//    for u unique strategies instead of O(ssets^2). The values live in a
//    dense table indexed by strategy *content* ID, so a hit is two array
//    reads, never a hash probe. The missing class pairs of a row
//    (initialize) or of a changed column (strategy_changed) are played as
//    one evaluate() call each. Row sums still walk every j
//    in fixed order over the cached values, so fitness, matrix and
//    trajectories are bit-identical to brute force; only games_played
//    drops. Pairs whose payoff is (i, j)-keyed (Sampled/SampledFrozen
//    streams, the Analytic fall-through for stochastic memory>=2) are
//    never deduplicated.
//
//  * SSet-row tier (config.sset_threads): initialize / begin_generation
//    evaluate independent rows concurrently on a par::ThreadPool; each
//    row's sum keeps its fixed j order, so results stay bit-identical for
//    any thread count.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "game/batch.hpp"
#include "game/spec/chain.hpp"
#include "obs/metrics.hpp"
#include "par/threadpool.hpp"
#include "pop/population.hpp"

namespace egt::core {

/// One strategy pair for PairEvaluator::evaluate. The exact routes read
/// only the two strategies; the SampledStream route plays the stream
/// StreamRng(config.seed, stream_key) — the fitness tier passes
/// util::stream_key(gen_key, i, j), so the value is (i, j)-keyed.
struct PairRequest {
  const game::Strategy* a = nullptr;
  const game::Strategy* b = nullptr;
  std::uint64_t stream_key = 0;
};

/// Stateless pair evaluation under a SimConfig. evaluate() is the one way
/// strategy pairs are played at runtime; payoff() and pair_payoff() are
/// views of it, and mem1_batch_payoffs() is its Mem1Markov lane.
class PairEvaluator {
 public:
  explicit PairEvaluator(const SimConfig& config);

  /// Which kernel evaluates a strategy pair (the DESIGN.md §12 dispatch
  /// rules). Everything except SampledStream is a pure function of the
  /// strategy pair — the dedup-eligibility rule.
  enum class Route {
    NWaySpec,       ///< m-action spec chain (spec::requires_spec_chain) —
                    ///< never the 2x2 batch kernels
    PureExact,      ///< deterministic pure pair, zero noise: bit-packed
                    ///< cycle walker (batch::exact_pure_game_fast)
    Mem1Markov,     ///< memory-one analytic: SoA batch kernel
                    ///< (batch::expected_totals_mem1, AVX2 or scalar)
    SampledStream,  ///< stream-keyed play — never deduplicated, never
                    ///< batched
  };
  Route route(const game::Strategy& si,
              const game::Strategy& sj) const noexcept;

  /// Play a list of pairs: out[k] receives pair k's game totals over
  /// config.game.rounds rounds — both sides' payoffs and cooperation
  /// counts, as expectations on the exact routes (SNIPPETS.md's
  /// get_payoff_and_coop shape: one game answers both players). Each pair
  /// takes its route(); all Mem1Markov pairs of the call share one batch
  /// kernel call. Lane arithmetic is batch-size independent, so every
  /// value is bitwise what a call with that pair alone returns.
  /// `out.size() >= pairs.size()`.
  void evaluate(std::span<const PairRequest> pairs,
                std::span<game::batch::BatchTotals> out) const;

  /// evaluate()'s Mem1Markov lane for callers that pack a Mem1Batch
  /// themselves: out[k] gets the row-side payoff of the batch's pair k,
  /// bitwise equal to evaluate() on that pair.
  void mem1_batch_payoffs(const game::batch::Mem1Batch& batch,
                          std::span<double> out) const;

  /// Payoff of SSet `i` playing SSet `j` (i's side), using the stream keyed
  /// by (seed, gen_key, i, j). For FitnessMode::Analytic the value is an
  /// expectation and gen_key is ignored where exact methods apply.
  double payoff(const pop::Population& pop, pop::SSetId i, pop::SSetId j,
                std::uint64_t gen_key) const;

  /// Dedup-eligibility rule: true when payoff(·) for this strategy pair is
  /// a pure function of (si, sj) — an exact method applies in Analytic
  /// mode. Sampled streams (and the Analytic fall-through for stochastic
  /// memory>=2 pairs) are keyed by (gen_key, i, j) and are never eligible.
  bool strategy_pure(const game::Strategy& si,
                     const game::Strategy& sj) const noexcept;

  /// Payoff of a strategy-pure pair (si's side). Must only be called when
  /// strategy_pure(si, sj); returns exactly the value payoff() computes
  /// for any (i, j, gen_key) mapping to these strategies.
  double pair_payoff(const game::Strategy& si, const game::Strategy& sj) const;

  const game::IpdEngine& engine() const noexcept { return engine_; }

 private:
  /// evaluate() on a single pair (payoff and pair_payoff): a pair off the
  /// Mem1Markov route skips the batch scratch.
  game::batch::BatchTotals evaluate_one(const PairRequest& pair) const;

  /// One pair on a route other than Mem1Markov.
  game::batch::BatchTotals play_unbatched(Route r,
                                          const PairRequest& pair) const;

  SimConfig config_;
  game::IpdEngine engine_;
};

class BlockFitness {
 public:
  /// One entry of the exported dedup cache: payoff of content-hash pair
  /// (a, b), ready to be carried by a block checkpoint and re-interned on
  /// restore. Keys are strategy *content* hashes, never class ids — ids
  /// are recycled, content is forever.
  struct DedupEntry {
    std::uint64_t a = 0;  ///< Strategy::hash() of the row strategy
    std::uint64_t b = 0;  ///< Strategy::hash() of the column strategy
    double payoff = 0.0;
  };

  /// `graph` restricts game play to neighbours (null = well-mixed, the
  /// paper's population; the engines pass make_interaction_graph output).
  /// `metrics`, when given, receives the cold-path "fitness.*" counters
  /// (dedup cache inserts/prunes, state restores); the engines pass their
  /// own — per-rank, per-job — registry so concurrent simulations never
  /// share counters. Must outlive the block.
  BlockFitness(const SimConfig& config, pop::SSetId row_begin,
               pop::SSetId row_end,
               std::shared_ptr<const pop::InteractionGraph> graph = nullptr,
               obs::MetricsRegistry* metrics = nullptr);

  pop::SSetId row_begin() const noexcept { return begin_; }
  pop::SSetId row_end() const noexcept { return end_; }

  /// Full evaluation of the block (generation key = current generation for
  /// Sampled, 0 for the cached modes).
  void initialize(const pop::Population& pop);

  /// Called at the top of every generation *before* Nature acts.
  /// Sampled mode re-plays all games with this generation's streams; the
  /// cached modes are no-ops here.
  void begin_generation(const pop::Population& pop, std::uint64_t generation);

  /// Called after SSet `k` changed strategy in `generation`. Cached modes
  /// refresh row k (if owned) and every owned entry against k.
  void strategy_changed(pop::SSetId k, const pop::Population& pop,
                        std::uint64_t generation);

  /// Fitness of an owned SSet.
  double fitness(pop::SSetId i) const;

  /// Fitness of the whole block, indexed by (i - row_begin).
  std::span<const double> block() const noexcept { return fitness_; }

  /// Cached payoff matrix (rows x ssets, cached modes only; empty for
  /// Sampled). Exposed so the ft layer can checkpoint a block's full
  /// evaluation state.
  std::span<const double> payoff_matrix() const noexcept { return matrix_; }

  /// Recovery fast path (cached modes only): adopt a previously computed
  /// block state instead of re-evaluating. `fitness` must have one entry
  /// per owned row and `matrix` rows x ssets entries. The values must come
  /// from a block computed over the same population — the ft layer
  /// guarantees this with a population hash check. `cache` re-seeds the
  /// dedup class-pair table (ignored when dedup is off) so the restored
  /// block keeps answering strategy changes without replaying class games.
  void restore_state(std::vector<double> fitness, std::vector<double> matrix,
                     std::vector<DedupEntry> cache = {});

  /// Every cached cell of the dedup class-pair table (retired ones
  /// included) as content-hash entries sorted by (a, b) — the part of a
  /// block checkpoint that travels alongside the matrix. Empty when dedup
  /// is off.
  std::vector<DedupEntry> dedup_cache() const;

  /// Cells (8 B each) the dense class-pair table spans, known or not.
  /// After each strategy change at most max((2·live + 64)², 4 × cached
  /// cells) — see maybe_prune_cache. Zero when dedup is off.
  std::uint64_t table_cells() const noexcept { return table_cells_; }

  /// True when this block deduplicates strategy-pure pairs.
  bool dedup_active() const noexcept { return dedup_; }

  /// Logical ordered pairs evaluated so far — each (i, j) an owned row
  /// sums over counts once, whether its value came from a fresh game or
  /// the dedup cache. This is the counter the serial/parallel equality
  /// tests rely on.
  std::uint64_t pairs_evaluated() const noexcept { return pairs_; }

  /// Games actually played (expected-payoff computations included) —
  /// <= pairs_evaluated(); the gap is the dedup saving.
  std::uint64_t games_played() const noexcept { return games_; }

 private:
  /// Work done by one row evaluation, accumulated thread-locally so the
  /// SSet-row tier never races on the block counters.
  struct Counts {
    std::uint64_t pairs = 0;
    std::uint64_t games = 0;
  };

  bool cached() const noexcept {
    return config_.fitness_mode != FitnessMode::Sampled;
  }
  /// Cached modes keep the rows x ssets payoff matrix — except public
  /// goods, whose fitness is group-pooled, not pairwise (no matrix; a
  /// strategy change recomputes every owned row instead of a column).
  bool pairwise_cached() const noexcept { return cached() && !pgg_; }
  bool structured() const noexcept {
    return graph_ != nullptr && !graph_->is_complete();
  }
  /// Fitness normalisation of row i (1 / (opponents · rounds) for the
  /// per-round average); computed once per owned row into scale_.
  double row_scale(pop::SSetId i) const noexcept;

  /// Public goods group play (GameKind::PublicGoods, DESIGN.md §10).
  /// Groups: structured populations play one group {t} ∪ N(t) per SSet t;
  /// the well-mixed population plays one global group (pgg_k == 0) or the
  /// ssets ring windows {t .. t+k-1 mod n}. Each group's pool earns
  /// r * cost * (sum of member contributions) / |group|, and each member
  /// pays cost per own contribution.
  std::uint32_t pgg_group_count(pop::SSetId i) const noexcept;

  /// Effective contribution rounds of SSet j this generation: the analytic
  /// expectation rounds * p' under Analytic, a Bernoulli(p') sample per
  /// round on the (gen_key, j, j)-keyed stream otherwise (the self-pair
  /// key never collides with the i != j pair-game streams).
  double pgg_contrib(const pop::Population& pop, pop::SSetId j,
                     std::uint64_t gen_key) const;

  /// Row evaluation for the public goods kind: row-local and deterministic
  /// (safe from SSet-pool workers; never touches the pair cache or matrix).
  void recompute_row_pgg(pop::SSetId i, const pop::Population& pop,
                         std::uint64_t gen_key, Counts& counts);

  /// Value of ordered pair (i, j), bit-identical to eval_.payoff. In
  /// dedup mode a strategy-pure pair is answered from the class-pair
  /// table: a known cell is returned without touching the strategies; a
  /// miss plays the one game and, when `allow_insert`, stores it — pool
  /// workers pass false and only read the table, since every pair they
  /// touch was prefilled on the control path. `games` counts actual
  /// evaluations.
  double pair_value(const pop::Population& pop, pop::SSetId i, pop::SSetId j,
                    std::uint64_t gen_key, std::uint64_t& games,
                    bool allow_insert);

  /// Cached payoff of class pair (a, b) — a quiet NaN when the table does
  /// not hold it. Read-only, so safe from pool workers.
  double cached_pay(pop::ClassId a, pop::ClassId b) const noexcept {
    const std::uint32_t ra = slot_content_[a];
    const std::uint32_t rb = slot_content_[b];
    if (ra == kNoContent || rb == kNoContent) return kUnknown;
    const std::vector<double>& row = pay_[ra];
    return rb < row.size() ? row[rb] : kUnknown;
  }

  /// Writable cell (a, b) of the table, growing row a to reach column b.
  /// Control path only.
  double& cell(std::uint32_t a, std::uint32_t b) {
    std::vector<double>& row = pay_[a];
    if (b >= row.size()) {
      table_cells_ += b + 1 - row.size();
      row.resize(b + 1, kUnknown);
    }
    return row[b];
  }

  /// Refresh slot_content_ from the population's class table: a live slot
  /// whose content changed (or that had no content ID) is looked up again.
  /// Control path only; run at the top of evaluate_rows and
  /// strategy_changed, so the table never has to follow slot recycling.
  void sync_slots(const pop::Population& pop);

  /// Content ID of hash `h`, created (with an empty row) when new.
  std::uint32_t intern_hash(std::uint64_t h);

  /// Content ID of live class `c`, created for a content new to the
  /// table. Control path only.
  std::uint32_t intern_class(const pop::Population& pop, pop::ClassId c);

  /// Store the payoff of a class pair a lazy miss just played (no-op if a
  /// colliding slot stored it first); counts one cache insert.
  void insert_pay(const pop::Population& pop, pop::ClassId a, pop::ClassId b,
                  double v);

  /// Queue class pair (cr, cc) for the next flush_prefill when it is
  /// strategy-pure, unknown and not already queued (the queued cell holds
  /// kPending meanwhile, so a pair two neighbours or rows share is queued
  /// once).
  void queue_pair(const pop::Population& pop, pop::ClassId cr,
                  pop::ClassId cc);

  /// Play every queued pair through one evaluate() call and store it.
  /// Each counts as one game and one cache insert, exactly as the lazy
  /// miss it replaces would.
  void flush_prefill();

  /// Prefill every (cr, live class) pair a well-mixed row of class `cr`
  /// can touch (skips a singleton class's unreachable self pair).
  void prefill_class(const pop::Population& pop, pop::ClassId cr);

  /// Prefill the pairs structured row `i` plays against its neighbours.
  void prefill_neighbors(const pop::Population& pop, pop::SSetId i);

  /// strategy_changed's column k in one evaluate() call: prefill each
  /// (c_i, c_k) pair the owned rows touch, in first-row order (dedup mode
  /// only; skipped when every pair takes the pure walker).
  void prefill_column(pop::SSetId k, const pop::Population& pop);

  /// Sum row i in fixed j order over pair_value. Under dedup the caller
  /// prefills the row first, so pool workers only read the table.
  /// `nested`: running inside the SSet-row pool, which must neither insert
  /// nor touch the agent tier's shared scratch.
  void recompute_row(pop::SSetId i, const pop::Population& pop,
                     std::uint64_t gen_key, Counts& counts, bool nested);

  /// initialize / begin_generation body: all owned rows, through the
  /// SSet-row pool when configured.
  void evaluate_rows(const pop::Population& pop, std::uint64_t gen_key);

  /// The retention rule. Once the cache holds more than 256 + 8·live²
  /// cells, drop every cell whose row or column content is dead. Values
  /// are pure content functions, so pruning only ever trades a replay,
  /// never correctness. Short of that, once the table indexes more than
  /// 2·live + 64 contents and fewer than a quarter of its cells hold a
  /// payoff, retire the dead contents instead: their cells move, still
  /// counted, to retired_, and the table shrinks to the live contents
  /// (DESIGN.md §12).
  void maybe_prune_cache(const pop::Population& pop);

  /// Rebuild the table over the live contents. Cells with a dead content
  /// are dropped (and counted as prunes, with every retired cell) when
  /// `prune`, else retired.
  void compact_table(const pop::Population& pop, bool prune);

  static constexpr std::uint32_t kNoContent = ~std::uint32_t{0};
  static constexpr double kUnknown = std::numeric_limits<double>::quiet_NaN();
  /// A queued prefill cell; never seen outside one control-path gather.
  static constexpr double kPending = -std::numeric_limits<double>::infinity();

  SimConfig config_;
  PairEvaluator eval_;
  std::shared_ptr<const pop::InteractionGraph> graph_;
  pop::SSetId begin_;
  pop::SSetId end_;
  bool dedup_ = false;
  bool pgg_ = false;  ///< GameKind::PublicGoods: group-pooled fitness
  std::vector<double> fitness_;         // per owned row (scaled sums)
  std::vector<double> matrix_;          // cached modes: rows x ssets payoffs
  std::vector<double> row_scratch_;     // agent-tier evaluation buffer
  std::vector<double> scale_;           // per owned row: row_scale(i)
  std::unique_ptr<par::ThreadPool> agent_pool_;  // paper's second tier
  std::unique_ptr<par::ThreadPool> sset_pool_;   // SSet-row tier
  // Dedup class-pair table (DESIGN.md §12). Every strategy content that
  // holds a cached payoff has a content ID; pay_[row content] is a dense
  // row indexed by column content, kUnknown where no payoff is cached
  // (cells past a row's end included). Grown and pruned on the control
  // path only.
  std::unordered_map<std::uint64_t, std::uint32_t> content_of_;  // hash → ID
  std::vector<std::uint64_t> content_hash_;                      // ID → hash
  std::vector<std::vector<double>> pay_;
  // Cells of dead contents moved out of pay_ by compact_table: kept for
  // the prune count, the export and a strategy's return (sync_slots moves
  // a returning content's cells back), never looked up by pair_value.
  std::vector<DedupEntry> retired_;
  std::unordered_set<std::uint64_t> retired_hashes_;  // contents in retired_
  std::uint64_t known_ = 0;  // cached cells: pay_'s payoffs plus retired_
  std::uint64_t table_cells_ = 0;  // sum of pay_'s row lengths
  std::vector<std::uint32_t> slot_content_;  // ClassId → ID or kNoContent
  // flush_prefill's batch: the requests and their (row, column) IDs.
  std::vector<PairRequest> prefill_reqs_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> prefill_cells_;
  std::vector<game::batch::BatchTotals> prefill_vals_;
  std::uint64_t pairs_ = 0;
  std::uint64_t games_ = 0;
  // Cold-path instrumentation (null when the block runs unobserved). All
  // increments happen on the serial control path (inserts are forbidden
  // from pool workers), so a per-block registry needs no extra locking.
  obs::Counter* ct_cache_inserts_ = nullptr;
  obs::Counter* ct_cache_prunes_ = nullptr;
  obs::Counter* ct_restores_ = nullptr;
};

}  // namespace egt::core
