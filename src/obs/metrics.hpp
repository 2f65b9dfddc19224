#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

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
  kPowerFlowSolves,          ///< `grid::solve_dc_power_flow` factor-and-
                             ///< solves (each also counts one
                             ///< `kCholeskyFactorizations`)
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

/// Lock-free metrics registry: one relaxed-atomic counter per `Work`
/// enumerator (the hot-path interface — one atomic add, no lookup, no
/// registration). Each `serve::MtdDaemon` shard owns one registry;
/// library code records into the thread's active registry
/// (obs/scope.hpp), which defaults to `global()`. The counters fill
/// cache lines of their own: pool workers add to them concurrently, and
/// a neighbour sharing one of those lines (the tracer's static guard that
/// every `Span` reads, the daemon's engine after its registry) would
/// bounce between cores on every add.
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

  /// The process-wide default registry — the active registry of every
  /// thread that has no scoped override (obs/scope.hpp).
  static MetricsRegistry& global();

 private:
  static constexpr std::size_t kCacheLine = 64;
  alignas(kCacheLine) std::array<std::atomic<std::uint64_t>, kWorkCount>
      work_{};
};

}  // namespace mtdgrid::obs
