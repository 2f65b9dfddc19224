#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "estimation/bdd.hpp"
#include "estimation/state_estimator.hpp"
#include "grid/load_trace.hpp"
#include "grid/power_system.hpp"
#include "mtd/daily.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::serve {

/// Latency histogram bucket upper bounds (microseconds, inclusive per
/// the `micros <=` scan in `MtdDaemon::record_latency`): 100 µs, 1 ms,
/// 10 ms, 100 ms, 1 s, plus an implicit overflow bucket.
inline constexpr double kLatencyBucketsUs[5] = {100.0, 1e3, 1e4, 1e5, 1e6};

/// The bucket index `record_latency` files `micros` under: the first i
/// with `micros <= kLatencyBucketsUs[i]`, else 5 (the overflow bucket).
/// A sample exactly on a bound lands in that bound's bucket.
inline int latency_bucket_index(double micros) {
  for (int i = 0; i < 5; ++i)
    if (micros <= kLatencyBucketsUs[i]) return i;
  return 5;
}

/// Options of the serving daemon. The embedded `daily` options carry the
/// re-keying budgets and targets (sensor noise `sigma_mw` and BDD
/// false-positive rate `fp_rate` come from `daily.effectiveness`, so the
/// daemon's detector matches the effectiveness methodology exactly).
struct DaemonOptions {
  /// Case name or `.m` path resolved through `io::load_case` by the
  /// name-loading constructor (ignored by the system-loading one).
  std::string case_name = "case14";
  /// Root seed: the re-keying engine consumes `Rng(seed)` exactly as
  /// `run_daily_simulation` would, and the probe/detect request
  /// substreams are derived from it (DESIGN.md "Serving architecture").
  std::uint64_t seed = 7;
  /// How many hourly key snapshots stay queryable (>= 1). Requests may
  /// pin any retained hour; older snapshots are dropped as the clock
  /// advances.
  std::size_t history_hours = 24;
  /// Re-keying targets and budgets (paper Section VII-C defaults).
  mtd::DailySimulationOptions daily;
};

/// Immutable snapshot of one keyed hour: everything a request needs,
/// bundled so a reader never observes a half-applied key change — the
/// re-keying tick builds the next snapshot completely, then atomically
/// publishes a new retention window containing it, and in-flight readers
/// keep their reference alive for as long as they need it.
struct HourKeySnapshot {
  std::size_t hour = 0;        ///< absolute virtual-clock hour
  std::size_t trace_hour = 0;  ///< hour % hours_per_day
  mtd::HourlyRecord record;    ///< the hour's simulation record
  bool keyed = false;          ///< false: selection failed, no key active
  linalg::Vector setpoints;    ///< D-FACTS reactances (dfacts order)
  linalg::Vector reactances;   ///< full post-MTD reactance vector
  opf::DispatchResult dispatch;  ///< OPF dispatch at the key
  linalg::Vector z_ref;        ///< noiseless reference measurements (MW)
  linalg::Matrix h_mtd;        ///< post-MTD measurement matrix H' (dense;
                               ///< the campaign verb's attacker keys)
  /// WLS estimator at the hour's key (null when `keyed` is false).
  std::shared_ptr<const estimation::StateEstimator> estimator;
  /// Chi-square bad-data detector paired with `estimator`.
  std::shared_ptr<const estimation::BadDataDetector> bdd;
};

/// Deterministic request/tick counters reported by the `metrics` verb:
/// for a fixed request transcript they are a pure function of that
/// transcript, so default `metrics` replies are byte-comparable across
/// thread counts (the latency histogram is the one opt-in exception).
struct DaemonCounters {
  std::uint64_t requests = 0;   ///< lines handled (including errors)
  std::uint64_t errors = 0;     ///< error replies sent
  std::uint64_t ticks = 0;      ///< re-keying steps (manual + scheduled)
  std::uint64_t dispatch = 0;   ///< dispatch requests served
  std::uint64_t detect = 0;     ///< detect requests served
  std::uint64_t probe = 0;      ///< probe requests served
  std::uint64_t status = 0;     ///< status requests served
  std::uint64_t metrics = 0;    ///< metrics requests served
  std::uint64_t campaign = 0;   ///< campaign requests served
};

/// The long-running MTD serving core (ROADMAP "Serving"): owns a loaded
/// case and a `mtd::DailyEngine`, advances a virtual clock through the
/// load trace one re-keying step per `tick()`, and answers the
/// newline-delimited-JSON requests documented in DESIGN.md "Serving
/// architecture" — `dispatch`, `detect`, `probe`, `status`, `metrics`,
/// `tick`, `campaign`, `shutdown`. `examples/mtd_daemon` serves
/// `handle_line` over a
/// loopback socket (`serve::SocketServer`); tests and benchmarks call it
/// in-process — one code path either way. A `ShardedDaemon` routes to N
/// of these, one per shard.
///
/// Concurrency contract (DESIGN.md "Fleet sharding"): `handle_line` and
/// `tick` may be called from any thread. Read verbs — `status`,
/// `metrics`, plain/analytic `detect`, `probe`, `shutdown` — take no
/// lock at all: they atomically load the published retention window of
/// immutable `HourKeySnapshot`s and answer from it, so reads scale with
/// cores and keep answering while a tick holds the write lock. Write
/// verbs — `tick`, `dispatch` — plus the Monte-Carlo `detect` method and
/// `campaign` (which fan out on the shared `core::ThreadPool`) serialize
/// on the per-daemon `exec_lock()`. Counters are relaxed atomics; for a fixed
/// sequential transcript they remain a pure function of that transcript.
/// All randomness is derived from counter-based substreams of
/// `DaemonOptions::seed` — replies are bit-identical for any thread
/// count and any interleaving of queries with re-keying.
///
/// \see mtd::DailyEngine for the re-keying core this daemon drives, and
/// mtd::run_daily_simulation for the batch form of the same loop.
class MtdDaemon : public LineService {
 public:
  /// The daemon's write lock, exposed so the fleet's broadcast tick can
  /// pre-acquire every shard's lock (in shard order) before fanning out,
  /// and so tests can pin the lock while probing the lock-free read path.
  using ExecLock = std::unique_lock<std::mutex>;

  /// Builds the daemon around an explicit system and trace, runs the
  /// pass-1 baseline, and keys hour 0 (one initial tick), so the daemon
  /// serves immediately.
  MtdDaemon(grid::PowerSystem sys, grid::DailyLoadTrace trace,
            DaemonOptions options);

  /// Convenience: loads `options.case_name` through `io::load_case` and
  /// replays the NYISO winter-weekday shape scaled to the case's nominal
  /// total load (`default_daemon_trace`).
  explicit MtdDaemon(const DaemonOptions& options);

  /// Handles one request line (without trailing newline) and returns the
  /// reply line (without trailing newline). Blank lines return an empty
  /// string (no reply). Never throws: protocol failures come back as
  /// pinned `{"ok":false,...}` replies and the connection stays usable.
  std::string handle_line(const std::string& line) override;

  /// Serves one already-parsed request — counted, locked (or not) and
  /// latency-tracked exactly like a `handle_line` call carrying the same
  /// request. The fleet's routing layer parses each line once and
  /// delegates here.
  std::string serve_request(const Request& req);

  /// Advances the virtual clock one hour (the re-keying step), publishes
  /// the new hour's snapshot, and returns the new current hour. Thread-
  /// safe; serializes with request execution.
  std::size_t tick();

  /// `tick` under a caller-held `exec_lock()` — the fleet's broadcast
  /// tick acquires every shard's lock first, then advances all shards in
  /// one parallel region (the lock stays owned by the acquiring thread
  /// throughout; the engine work may run on a pool worker).
  std::size_t tick(ExecLock& lock);

  /// Acquires and returns this daemon's write lock. While held, `tick`,
  /// `dispatch` and Monte-Carlo `detect` block; lock-free read verbs
  /// keep answering from the published snapshots.
  ExecLock exec_lock() const { return ExecLock(exec_mutex_); }

  /// The current (most recently keyed) virtual-clock hour.
  std::size_t current_hour() const;

  /// Snapshot of the current hour's key state (never null after
  /// construction).
  std::shared_ptr<const HourKeySnapshot> current_snapshot() const;

  /// Snapshot of a pinned hour, or null when that hour is not retained.
  std::shared_ptr<const HourKeySnapshot> snapshot_at(std::size_t hour) const;

  /// Point-in-time copy of the counters (relaxed atomic loads).
  DaemonCounters counters() const;

  /// Marks the daemon as shutting down (the `shutdown` verb does this
  /// after building its reply). The transport layer polls
  /// `shutdown_requested` and stops serving.
  void request_shutdown() { shutdown_.store(true); }

  /// True once a shutdown was requested.
  bool shutdown_requested() const override { return shutdown_.load(); }

  /// The daemon's options (immutable after construction).
  const DaemonOptions& options() const { return options_; }

  /// The name of the served case (registry name, path, or system name).
  const std::string& case_name() const { return case_name_; }

  /// This daemon's work-counter registry: every request (and the engine
  /// construction) runs under an `obs::ScopedRegistry` pointing here, so
  /// the engine's work counters are attributed per shard. The `metrics`
  /// verb reports the deterministic counters from this registry; the
  /// fleet sums shard registries (`ShardedDaemon::aggregate_work`).
  const obs::MetricsRegistry& registry() const { return registry_; }

  /// Records one handled-line service time into the latency accumulator
  /// (relaxed atomics; bucket choice per `latency_bucket_index`). Public
  /// so tests can inject exact samples and pin bucket counts.
  void record_latency(double micros);

 private:
  /// The published retention window: oldest..newest retained snapshots.
  /// Immutable once published — a tick builds a fresh vector and swaps
  /// the pointer atomically, so lock-free readers see a consistent
  /// window (single writer: the `exec_lock()` holder).
  using SnapshotWindow = std::vector<std::shared_ptr<const HourKeySnapshot>>;

  // Delegation helper for the name-loading constructor: the case is
  // loaded once and feeds both the system and its default trace.
  MtdDaemon(std::pair<grid::PowerSystem, grid::DailyLoadTrace> loaded,
            DaemonOptions options);

  std::string handle_request(const Request& req);
  /// True when serving `req` mutates engine state or fans out on the
  /// shared thread pool — those verbs take `exec_mutex_`; all others run
  /// lock-free off the published snapshot window.
  static bool needs_exec_lock(const Request& req);
  /// Serializes an error reply and counts it — every error path funnels
  /// through here so `DaemonCounters::errors` cannot drift from what the
  /// wire actually carried.
  std::string error_line(const ProtocolError& error);
  std::string not_keyed_reply(std::size_t hour);
  std::string reply_dispatch(const Request& req);
  std::string reply_detect(const Request& req);
  std::string reply_probe(const Request& req);
  std::string reply_status(const Request& req);
  std::string reply_metrics(const Request& req);
  std::string reply_tick(const Request& req);
  std::string reply_campaign(const Request& req);
  std::string reply_shutdown(const Request& req);
  std::size_t tick_locked();
  /// The current retention window (never null, never empty after
  /// construction).
  std::shared_ptr<const SnapshotWindow> window() const {
    return history_.load();
  }
  /// Resolves the snapshot a request addresses within `window`, or
  /// returns an error reply string via `error` (counted like every error
  /// reply).
  std::shared_ptr<const HourKeySnapshot> resolve_snapshot(
      const SnapshotWindow& window, const Request& req, std::string& error);

  DaemonOptions options_;
  std::string case_name_;
  /// Declared before `engine_`: the constructor scopes the engine's
  /// pass-1 construction work to this registry, so it must be alive
  /// first.
  obs::MetricsRegistry registry_;
  mtd::DailyEngine engine_;
  stats::Rng rng_;                 // the engine's sequential rng
  std::uint64_t probe_root_ = 0;   // substream family of `probe`
  std::uint64_t detect_root_ = 0;  // substream family of mc `detect`
  std::uint64_t campaign_root_ = 0;  // substream family of `campaign`

  /// Serializes the write verbs (`tick`, `dispatch`, Monte-Carlo
  /// `detect`); never touched by the lock-free read path.
  mutable std::mutex exec_mutex_;
  /// Atomically published retention window; written only under
  /// `exec_mutex_`, loaded without any lock by readers.
  std::atomic<std::shared_ptr<const SnapshotWindow>> history_;

  /// Relaxed-atomic mirror of `DaemonCounters` (lock-free increments).
  struct AtomicCounters {
    std::atomic<std::uint64_t> requests{0};  ///< lines handled
    std::atomic<std::uint64_t> errors{0};    ///< error replies sent
    std::atomic<std::uint64_t> ticks{0};     ///< re-keying steps
    std::atomic<std::uint64_t> dispatch{0};  ///< dispatch served
    std::atomic<std::uint64_t> detect{0};    ///< detect served
    std::atomic<std::uint64_t> probe{0};     ///< probe served
    std::atomic<std::uint64_t> status{0};    ///< status served
    std::atomic<std::uint64_t> metrics{0};   ///< metrics served
    std::atomic<std::uint64_t> campaign{0};  ///< campaign served
  };
  AtomicCounters counters_;

  // Latency accumulator (service time of handled lines, microseconds);
  // relaxed atomics so the lock-free read path records without a lock.
  std::atomic<std::uint64_t> latency_count_{0};
  std::atomic<double> latency_sum_us_{0.0};
  std::atomic<double> latency_max_us_{0.0};
  std::atomic<std::uint64_t> latency_buckets_[6] = {};

  std::atomic<bool> shutdown_{false};
};

/// The default serving trace: the NYISO winter-weekday shape rescaled so
/// its hourly totals relate to `sys`'s nominal total load the way the
/// original trace relates to the IEEE 14-bus system it was fitted to —
/// `case14` reproduces `DailyLoadTrace::nyiso_winter_weekday` exactly,
/// larger cases replay the same relative profile.
grid::DailyLoadTrace default_daemon_trace(const grid::PowerSystem& sys);

}  // namespace mtdgrid::serve
