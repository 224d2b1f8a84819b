// The engine.* counter family and the per-rank instrument set that
// registers it, shared by the serial, collective and fault-tolerant engines
// (one name list; every consumer — simcheck, the egtd job ledger, the ft
// chaos oracle — reads counters through EngineCounters).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "core/wire.hpp"
#include "obs/metrics.hpp"

namespace egt::core {

/// The merged per-run event/work counters every engine reports.
struct EngineCounters {
  std::uint64_t generations = 0;
  std::uint64_t pc_events = 0;
  std::uint64_t adoptions = 0;
  std::uint64_t moran_events = 0;
  std::uint64_t mutations = 0;
  std::uint64_t pairs_evaluated = 0;
  std::uint64_t games_played = 0;

  struct Field {
    const char* name;  ///< registry name ("engine.<field>")
    std::uint64_t EngineCounters::*member;
  };
  /// Every counter, in field order (also the wire order of encode()).
  static const std::array<Field, 7> kFields;

  /// engine.games_played counts games after the strategy-interned dedup,
  /// whose class-pair table is per fitness block: its total depends on how
  /// the rows are partitioned across ranks (DESIGN.md §8). Comparisons
  /// between runs on different partitions skip it.
  static constexpr std::string_view kPartitionDependent =
      "engine.games_played";

  static EngineCounters from(const obs::MetricsSnapshot& snapshot);

  friend bool operator==(const EngineCounters&,
                         const EngineCounters&) = default;
  friend EngineCounters operator+(EngineCounters a, const EngineCounters& b);

  /// Seven u64 in field order.
  void encode(wire::Writer& w) const;
  static EngineCounters decode(wire::Reader& r);
};

/// One rank's phase histograms (obs::phase) and engine.* counters,
/// resolved once so the hot path updates them lock-free. Null pointers
/// (an unobserved engine, or the master-only counters on a rank that is
/// not the Nature rank) make every update a no-op. The event counters and
/// engine.generations live on the master only, so merged per-rank
/// registries count each event once; pairs and games are per rank (block
/// sums add up to the serial all-pairs count).
struct EngineInstruments {
  obs::Histogram* game_play = nullptr;
  obs::Histogram* plan = nullptr;
  obs::Histogram* fitness_return = nullptr;
  obs::Histogram* decision = nullptr;
  obs::Histogram* apply = nullptr;
  obs::Counter* pairs = nullptr;
  obs::Counter* games = nullptr;
  // Master only (null until promote()).
  obs::Counter* generations = nullptr;
  obs::Counter* pc_events = nullptr;
  obs::Counter* adoptions = nullptr;
  obs::Counter* moran_events = nullptr;
  obs::Counter* mutations = nullptr;
  obs::MetricsRegistry* registry = nullptr;

  EngineInstruments() = default;
  EngineInstruments(obs::MetricsRegistry* reg, bool master);

  /// Register the master-only counters (idempotent; a no-op unobserved).
  void promote();

  static void inc(obs::Counter* c, std::uint64_t n = 1) noexcept {
    if (c != nullptr) c->inc(n);
  }
};

}  // namespace egt::core
