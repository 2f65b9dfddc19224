#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace mtdgrid::obs {

/// The engine's fixed deterministic work-counter set. Each enumerator is
/// one relaxed-atomic counter in every `MetricsRegistry` (O(1) add, no
/// registration). Under the repo's seeding contract (DESIGN.md
/// "Threading model & deterministic seeding") the counters marked
/// deterministic in `work_info` are pure functions of (seed, inputs) —
/// the thread count only moves WHERE work runs, never HOW MUCH — so they
/// appear in default `metrics` replies and are pinned with exact `==`
/// across thread counts in tests.
enum class Work : std::size_t {
  kSimplexSolves = 0,        ///< `opf::solve_linear_program` calls
  kSimplexPhase1Iterations,  ///< phase-1 (feasibility) pivots
  kSimplexPhase2Iterations,  ///< phase-2 (optimality) pivots
  kSimplexBlandPivots,       ///< pivots taken after the Bland fallback
  kCgIterations,             ///< always 0: the conjugate-gradient solver
                             ///< is gone; kept because the perfbench
                             ///< report still reads this row
  kCholeskyFactorizations,   ///< sparse Cholesky factorization attempts
  kCholeskyFactorNnz,        ///< nonzeros of L summed over factorizations
  kSpaFastPathEvals,         ///< SPA gamma via the rank-k incremental path
  kSpaFullEvals,             ///< SPA gamma via the full-matrix fallback
  kMcTrials,                 ///< Monte-Carlo detection trials
  kEngineHours,              ///< `mtd::DailyEngine::advance_hour` steps
  kZonesSelected,            ///< per-zone MTD selections completed
  kBoundaryRechecks,         ///< zone-selection full-model boundary rechecks
  kAttackerProbes,           ///< probe-oracle samples drawn by key estimators
  kStaleReplays,             ///< stale-knowledge attacks replayed across a
                             ///< re-keying boundary
  kCampaignCells,            ///< campaign frontier cells completed
  kPoolRegions,              ///< `core::parallel_*` regions entered
  kPoolTasks,                ///< tasks submitted to those regions
  kCount,                    ///< number of counters (not a counter)
};

/// Number of fixed work counters.
inline constexpr std::size_t kWorkCount =
    static_cast<std::size_t>(Work::kCount);

/// Static description of one `Work` counter.
struct WorkInfo {
  const char* name;   ///< snake_case wire/exposition name
  const char* help;   ///< one-line Prometheus HELP text
  /// True when the counter is thread-count invariant under the seeding
  /// contract and may appear in byte-diffed default replies. The pool
  /// region/task counters are structural (parallelization-level choices
  /// depend on the worker count) and are exported only through the
  /// Prometheus exposition.
  bool deterministic;
};

/// The static description of `w` (valid for every value but `kCount`).
const WorkInfo& work_info(Work w);

/// Point-in-time copy of a registry's fixed work counters, indexed by
/// `static_cast<std::size_t>(Work)`.
using WorkSnapshot = std::array<std::uint64_t, kWorkCount>;

/// A dynamically registered named counter (monotone, relaxed adds).
class Counter {
 public:
  /// Builds the counter (registries construct these; use
  /// `MetricsRegistry::counter` to obtain one).
  Counter(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  /// Adds `n` (relaxed; safe from any thread).
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Current value (relaxed load).
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  /// The registered name.
  const std::string& name() const { return name_; }
  /// The registered help text.
  const std::string& help() const { return help_; }

 private:
  std::string name_;
  std::string help_;
  std::atomic<std::uint64_t> value_{0};
};

/// A dynamically registered named gauge (last-write-wins double).
class Gauge {
 public:
  /// Builds the gauge (use `MetricsRegistry::gauge` to obtain one).
  Gauge(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  /// Sets the gauge (relaxed store; safe from any thread).
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  /// Adds `d` to the gauge (relaxed fetch_add).
  void add(double d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  /// Current value (relaxed load).
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  /// The registered name.
  const std::string& name() const { return name_; }
  /// The registered help text.
  const std::string& help() const { return help_; }

 private:
  std::string name_;
  std::string help_;
  std::atomic<double> value_{0.0};
};

/// A dynamically registered fixed-bound histogram with Prometheus
/// semantics: `bounds()[i]` is bucket i's inclusive upper bound, one
/// overflow bucket past the last bound, plus a running count and sum.
/// Observation is lock-free (relaxed adds); snapshots are point-in-time
/// relaxed loads, like every read in this module.
class Histogram {
 public:
  /// Builds the histogram over ascending `bounds` (use
  /// `MetricsRegistry::histogram` to obtain one).
  Histogram(std::string name, std::string help, std::vector<double> bounds)
      : name_(std::move(name)),
        help_(std::move(help)),
        bounds_(std::move(bounds)),
        buckets_(bounds_.size() + 1) {}

  /// Records one sample: the first bucket with `value <= bound` (the
  /// overflow bucket when none), plus count and sum.
  void observe(double value) noexcept {
    std::size_t b = bounds_.size();
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      if (value <= bounds_[i]) {
        b = i;
        break;
      }
    }
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// The registered name.
  const std::string& name() const { return name_; }
  /// The registered help text.
  const std::string& help() const { return help_; }
  /// The inclusive upper bounds (ascending; excludes the overflow bucket).
  const std::vector<double>& bounds() const { return bounds_; }
  /// Point-in-time copy of the per-bucket counts (bounds + overflow).
  std::vector<std::uint64_t> bucket_counts() const {
    std::vector<std::uint64_t> out(buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i)
      out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
  }
  /// Total observations (relaxed load).
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  /// Sum of observed values (relaxed load).
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

 private:
  std::string name_;
  std::string help_;
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of one dynamic counter.
struct CounterSample {
  std::string name;     ///< registered name
  std::string help;     ///< registered help text
  std::uint64_t value;  ///< value at snapshot time
};

/// Point-in-time copy of one gauge.
struct GaugeSample {
  std::string name;  ///< registered name
  std::string help;  ///< registered help text
  double value;      ///< value at snapshot time
};

/// Point-in-time copy of one histogram.
struct HistogramSample {
  std::string name;                   ///< registered name
  std::string help;                   ///< registered help text
  std::vector<double> bounds;         ///< inclusive upper bounds
  std::vector<std::uint64_t> buckets; ///< per-bucket counts (+ overflow)
  std::uint64_t count;                ///< total observations
  double sum;                         ///< sum of observed values
};

/// Everything a registry holds, copied at one point in time — the
/// snapshot-on-read pattern of `serve::HourKeySnapshot`: readers never
/// hold a lock while the hot paths keep recording.
struct MetricsSnapshot {
  WorkSnapshot work;                        ///< fixed work counters
  std::vector<CounterSample> counters;      ///< dynamic counters
  std::vector<GaugeSample> gauges;          ///< dynamic gauges
  std::vector<HistogramSample> histograms;  ///< dynamic histograms
};

/// Lock-free metrics registry: a fixed relaxed-atomic array for the
/// `Work` counters (the hot-path interface — one atomic add, no lookup)
/// plus dynamically registered named counters/gauges/histograms behind a
/// registration mutex with pointer-stable storage (a series reference
/// stays valid for the registry's lifetime; recording on it never takes
/// the mutex). Each `serve::MtdDaemon` shard owns one registry; library
/// code records into the thread's active registry (obs/scope.hpp), which
/// defaults to `global()`.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `n` to the fixed counter `w` (relaxed; safe from any thread).
  void add(Work w, std::uint64_t n = 1) noexcept {
    work_[static_cast<std::size_t>(w)].fetch_add(n,
                                                 std::memory_order_relaxed);
  }

  /// Current value of the fixed counter `w` (relaxed load).
  std::uint64_t value(Work w) const noexcept {
    return work_[static_cast<std::size_t>(w)].load(std::memory_order_relaxed);
  }

  /// Point-in-time copy of the fixed work counters.
  WorkSnapshot work_snapshot() const noexcept {
    WorkSnapshot out{};
    for (std::size_t i = 0; i < kWorkCount; ++i)
      out[i] = work_[i].load(std::memory_order_relaxed);
    return out;
  }

  /// Zeroes the fixed work counters (tests and benchmarks only; racing
  /// recorders may still land adds issued before the reset).
  void reset_work() noexcept {
    for (std::size_t i = 0; i < kWorkCount; ++i)
      work_[i].store(0, std::memory_order_relaxed);
  }

  /// Returns the named counter, registering it on first use (`help` is
  /// taken from the first registration). The reference is stable for the
  /// registry's lifetime.
  Counter& counter(const std::string& name, const std::string& help);

  /// Returns the named gauge, registering it on first use.
  Gauge& gauge(const std::string& name, const std::string& help);

  /// Returns the named histogram, registering it on first use with the
  /// given ascending bounds (`bounds` is ignored when already registered).
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds);

  /// Point-in-time copy of everything (fixed + dynamic series, in
  /// registration order).
  MetricsSnapshot snapshot() const;

  /// The process-wide default registry — the active registry of every
  /// thread that has no scoped override (obs/scope.hpp).
  static MetricsRegistry& global();

 private:
  std::array<std::atomic<std::uint64_t>, kWorkCount> work_{};

  mutable std::mutex mutex_;  // guards registration only, never recording
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

}  // namespace mtdgrid::obs
