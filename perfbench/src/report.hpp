#pragma once

// The benchmark's result line, process probes, and the per-layer profile
// built from obs::Tracer spans and obs::Work counter deltas.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Damages one reference value before checking, to prove the checks
  /// can fail (the command must then exit non-zero).
  bool corrupt_reference = false;
  std::string out_dir = ".bench_out";        ///< traces and layer tables
  std::string reference_dir = "perfbench/reference";
};

/// The result line: correctness counts plus named metrics in insertion
/// order. `set` overwrites an existing name.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Counts `n` attempted operations.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts `n` failed operations and logs why (first few only).
  void fail(const std::string& why, std::uint64_t n = 1);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  /// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// User + system CPU seconds consumed by this process so far.
double cpu_seconds();

/// Aggregated spans of one name: how many, their summed duration, and
/// their summed self time (duration minus same-thread child spans).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  double mean_us() const { return count ? total_us / count : 0.0; }
};

/// Folds completed spans into per-name totals with self time.
std::map<std::string, SpanTotals> span_totals(
    std::vector<mtdgrid::obs::TraceEvent> events);

/// Counter-wise `after - before`.
mtdgrid::obs::WorkSnapshot work_delta(const mtdgrid::obs::WorkSnapshot& before,
                                      const mtdgrid::obs::WorkSnapshot& after);

/// Everything a traced run feeds into the per-layer metrics. Values a
/// workload does not exercise stay 0.
struct LayerInputs {
  std::map<std::string, SpanTotals> spans;  ///< tracer + benchmark spans
  mtdgrid::obs::WorkSnapshot work{};        ///< counter deltas of the phase
  double units = 1.0;  ///< workload operations the counters are divided by
  /// Benchmark-side measurements keyed by per-layer metric name.
  std::map<std::string, double> direct;
};

/// Sets every per-layer metric: the names listed in BENCHMARK.json, each
/// derived from `in` (0 where the workload does not reach the layer).
void set_layer_metrics(Report& report, const LayerInputs& in);

/// Enables the global tracer and drops whatever it held.
void start_tracing();

/// Disables the global tracer and returns what it recorded.
std::vector<mtdgrid::obs::TraceEvent> stop_tracing();

/// Writes the Chrome trace JSON and the self-time/count table of a traced
/// run under `opt.out_dir`, and prints the table to stderr.
void write_trace_outputs(const Options& opt,
                         const std::vector<mtdgrid::obs::TraceEvent>& events,
                         const std::map<std::string, SpanTotals>& spans);

}  // namespace perfbench
