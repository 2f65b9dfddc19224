#pragma once

// Small statistics helpers shared by every workload, kept header-only so
// the self-test binary checks exactly the code the benchmark runs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest value with at least `q * n`
/// values at or below it (q in (0, 1]; q <= 0 gives the minimum).
/// Returns 0 for an empty sample.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t r = static_cast<std::size_t>(std::max(1.0, rank));
  return values[std::min(r, values.size()) - 1];
}

/// Median by nearest rank (the lower middle value for even counts), so
/// the reported value is always one that was measured.
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Interquartile mean of a sample: the mean of what is left after a
/// quarter (at least one value once there are three) is dropped from each
/// end. Robust to a few extreme values like the median, but it moves
/// smoothly with the share of high values where a median of a two-mode
/// sample jumps between the modes. Returns 0 for an empty sample.
inline double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t k = n >= 3 ? std::max<std::size_t>(1, n / 4) : 0;
  double sum = 0.0;
  for (std::size_t i = k; i < n - k; ++i) sum += values[i];
  return sum / static_cast<double>(n - 2 * k);
}

/// Interquartile mean over fixed time windows of each window's
/// q-percentile: sample i falls in window floor(at_s[i] / window_s).
/// Windows with fewer than `min_samples` samples are skipped (0 when none
/// qualifies). A few ms-long host stalls then move only the windows they
/// hit, and a shifting share of contended windows moves the statistic
/// gradually.
inline double windowed_percentile(const std::vector<double>& values,
                                  const std::vector<double>& at_s,
                                  double window_s, double q,
                                  std::size_t min_samples) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < values.size() && i < at_s.size(); ++i) {
    const double w = std::floor(std::max(0.0, at_s[i]) / window_s);
    const std::size_t k = static_cast<std::size_t>(w);
    if (k >= windows.size()) windows.resize(k + 1);
    windows[k].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& w : windows)
    if (w.size() >= min_samples && !w.empty())
      per_window.push_back(percentile(std::move(w), q));
  return interquartile_mean(std::move(per_window));
}

/// What one rung of the capacity ladder observed.
struct RungObservation {
  double rate = 0.0;          ///< offered rate (requests per second)
  double p99_us = 0.0;        ///< p99 latency from the scheduled send
  std::size_t failed = 0;     ///< failed, refused or mismatched requests
  /// Largest backlog (requests sent but not yet answered) seen in the
  /// second half of the rung's send schedule.
  std::size_t backlog_late_max = 0;
};

/// The ladder decision. A rung passes when nothing failed, its p99 meets
/// the limit, and its backlog did not grow: by Little's law a server that
/// keeps up holds about `rate * latency` requests in flight, so a backlog
/// above `rate * limit` plus one request per connection means requests
/// are queueing faster than they drain.
inline bool rung_passes(const RungObservation& r, double p99_limit_us,
                        std::size_t connections) {
  if (r.failed != 0) return false;
  if (!(r.p99_us <= p99_limit_us)) return false;
  const double allowed =
      r.rate * p99_limit_us * 1e-6 + static_cast<double>(connections);
  return static_cast<double>(r.backlog_late_max) <= allowed;
}

/// The fixed ladder of offered rates: `base * ratio^k` for k in [0, n).
inline std::vector<double> rate_ladder(double base, double ratio,
                                       std::size_t n) {
  std::vector<double> rates;
  rates.reserve(n);
  double r = base;
  for (std::size_t k = 0; k < n; ++k, r *= ratio) rates.push_back(r);
  return rates;
}

/// Bisection over a ladder whose rungs pass up to some index and fail
/// beyond it: returns the index of the highest passing rung, or -1 when
/// even the first fails. `passes(k)` runs rung k; it is called at most
/// ceil(log2(n + 1)) times.
template <typename Passes>
long highest_passing_rung(std::size_t n, Passes&& passes) {
  long lo = -1;                      // highest index known to pass
  long hi = static_cast<long>(n);    // lowest index known to fail
  while (hi - lo > 1) {
    const long mid = lo + (hi - lo) / 2;
    if (passes(static_cast<std::size_t>(mid)))
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

}  // namespace perfbench
