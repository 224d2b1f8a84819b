// Metrics registry: named counters, gauges and histogram timers shared by
// both engines, the benches and the run_simulation front door.
//
// Design constraints (the measurement backbone must not perturb what it
// measures):
//   * the hot path — Counter::inc, Gauge::set, Histogram::record — is
//     lock-free: plain relaxed atomics on pre-registered instruments;
//   * registration (name -> instrument lookup) takes a mutex, so callers
//     resolve instruments once up front and keep the reference
//     (std::map nodes are stable, references never invalidate);
//   * one registry per rank in the parallel engine, merged after the run —
//     no cross-rank contention during the timed region.
//
// Naming convention: dotted lowercase paths. Phase timers use the
// "phase." prefix (obs::phase below) and are surfaced as the manifest's
// "phases" section; engine event counters use "engine.".
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/tracer.hpp"
#include "util/timer.hpp"

namespace egt::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (e.g. ranks, gen/s).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Bucket count of every Histogram (power-of-two nanosecond buckets).
inline constexpr std::size_t kHistogramBuckets = 48;

/// Plain-data copy of one histogram, used by snapshots and merging.
struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Estimate the q-quantile (q in [0, 1]) from the power-of-two buckets:
  /// linear interpolation inside the covering bucket, clamped to the
  /// recorded [min, max]. 0 when the histogram is empty.
  double quantile_seconds(double q) const noexcept;
};

/// Duration histogram: count/total/min/max plus power-of-two latency
/// buckets (bucket i counts samples in [2^i, 2^(i+1)) nanoseconds).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = kHistogramBuckets;

  void record_seconds(double seconds) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double total_seconds() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  /// 0 when empty.
  double min_seconds() const noexcept;
  double max_seconds() const noexcept;
  std::array<std::uint64_t, kBuckets> buckets() const noexcept;

  /// Fold another histogram's samples into this one.
  void merge(const Histogram& other) noexcept;
  /// Fold a snapshotted histogram's samples into this one (cross-rank
  /// aggregation goes through snapshots to avoid holding two locks).
  void merge(const HistogramSample& other) noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> total_{0.0};
  // Nanosecond extremes as integers: atomic min/max via CAS on doubles is
  // noisier than fetch-style loops on u64, and ns resolution is the clock's.
  std::atomic<std::uint64_t> min_ns_{~0ull};
  std::atomic<std::uint64_t> max_ns_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// RAII span: records the elapsed wall time into a histogram on
/// destruction (or an explicit stop()). A null histogram makes the timer
/// a no-op, so instrumented code needs no branches at the call site.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) : hist_(h) {}
  explicit ScopedTimer(Histogram& h) : hist_(&h) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { stop(); }

  /// Record now instead of at scope exit. Idempotent.
  void stop() noexcept {
    if (hist_ == nullptr) return;
    hist_->record_seconds(timer_.seconds());
    hist_ = nullptr;
  }

 private:
  Histogram* hist_;
  util::Timer timer_;
};

/// One timed phase: a single pair of clock readings feeds both the phase
/// histogram and the flight-recorder span, so the manifest's timer and the
/// trace's span agree exactly (same count, same durations). A null
/// histogram with the tracer off reads no clock at all.
class PhaseScope {
 public:
  PhaseScope(Histogram* h, const char* name, const char* cat = kCatPhase,
             const char* arg_name = nullptr, std::uint64_t arg = 0)
      : hist_(h), traced_(Tracer::enabled()) {
    if (hist_ == nullptr && !traced_) return;
    name_ = name;
    cat_ = cat;
    arg_name_ = arg_name;
    arg_ = arg;
    start_ns_ = Tracer::now_ns();
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope() {
    if (name_ == nullptr) return;
    const std::int64_t dur_ns = Tracer::now_ns() - start_ns_;
    if (hist_ != nullptr) {
      hist_->record_seconds(static_cast<double>(dur_ns) * 1e-9);
    }
    if (traced_) {
      TraceEvent ev;
      ev.kind = TraceEvent::Kind::Span;
      ev.ts_ns = start_ns_;
      ev.dur_ns = dur_ns;
      ev.name = name_;
      ev.cat = cat_;
      ev.arg_name = arg_name_;
      ev.arg = arg_;
      Tracer::record(ev);
    }
  }

  /// Attach/overwrite the span's numeric argument (e.g. a work count
  /// known only at scope exit).
  void set_arg(const char* arg_name, std::uint64_t arg) noexcept {
    arg_name_ = arg_name;
    arg_ = arg;
  }

 private:
  Histogram* hist_;
  bool traced_;
  const char* name_ = nullptr;  ///< null = nothing to record
  const char* cat_ = nullptr;
  const char* arg_name_ = nullptr;
  std::uint64_t arg_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Plain-data copy of a registry, safe to move across threads, compare in
/// tests and feed to the exporters (manifest JSON / time-series CSV).
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0.0;
  };
  using HistogramSample = obs::HistogramSample;

  std::vector<CounterSample> counters;      // sorted by name
  std::vector<GaugeSample> gauges;          // sorted by name
  std::vector<HistogramSample> histograms;  // sorted by name

  /// Null when absent.
  const CounterSample* find_counter(std::string_view name) const noexcept;
  const HistogramSample* find_histogram(std::string_view name) const noexcept;
  /// Counter value, 0 when absent.
  std::uint64_t counter_value(std::string_view name) const noexcept;
  /// Histogram total seconds, 0 when absent.
  double histogram_seconds(std::string_view name) const noexcept;
  /// Sum of total_seconds over every "phase." histogram.
  double phase_total_seconds() const noexcept;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. The returned reference stays valid for the
  /// registry's lifetime; resolve once, then update lock-free.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Fold another registry's instruments into this one: counters and
  /// histograms add, gauges take the other's value when set there.
  /// Used to aggregate the parallel engine's per-rank registries.
  void merge(const MetricsRegistry& other);

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;  // guards the maps, not the instruments
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Canonical per-generation phase timers (paper §VI splits runtime into
/// game-dynamics vs population-dynamics/communication time; these five
/// phases refine that split). Both engines emit the same names, so serial
/// and parallel manifests are directly comparable.
namespace phase {
inline constexpr const char* kGamePlay = "phase.game_play";
inline constexpr const char* kPlanBcast = "phase.plan_bcast";
inline constexpr const char* kFitnessReturn = "phase.fitness_return";
inline constexpr const char* kDecisionBcast = "phase.decision_bcast";
inline constexpr const char* kApplyUpdate = "phase.apply_update";

/// All five, in schema order.
inline constexpr const char* kAll[] = {kGamePlay, kPlanBcast, kFitnessReturn,
                                       kDecisionBcast, kApplyUpdate};
}  // namespace phase

}  // namespace egt::obs
