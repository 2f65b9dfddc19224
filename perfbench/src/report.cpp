#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "serve/json.hpp"

namespace perfbench {

using mtdgrid::serve::Json;
namespace obs = mtdgrid::obs;

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::fail(const std::string& why, std::uint64_t n) {
  if (n == 0) return;
  if (failed_ < 5) std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  failed_ += n;
}

std::string Report::json() const {
  Json metrics;
  for (const auto& [name, vu] : metrics_) {
    Json m;
    m.set("value", Json(vu.first));
    m.set("unit", Json(vu.second));
    metrics.set(name, std::move(m));
  }
  if (metrics_.empty()) metrics = Json(Json::Object{});
  Json out;
  out.set("correct", Json(correct()));
  out.set("attempted", Json(attempted_));
  out.set("failed", Json(failed_));
  out.set("metrics", std::move(metrics));
  return out.dump();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::map<std::string, SpanTotals> span_totals(
    std::vector<obs::TraceEvent> events) {
  // Per thread, in start order with enclosing spans first, a stack of
  // open spans finds each span's parent; the child's duration comes off
  // the parent's self time. Work a span hands to pool workers runs on
  // other threads and stays in the parent's self time.
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;
            });
  std::map<std::string, SpanTotals> out;
  std::vector<std::pair<double, const char*>> open;  // (end, name)
  std::uint32_t tid = 0;
  for (const obs::TraceEvent& e : events) {
    if (open.empty() || e.tid != tid) {
      open.clear();
      tid = e.tid;
    }
    while (!open.empty() && open.back().first <= e.ts_us) open.pop_back();
    SpanTotals& t = out[e.name];
    ++t.count;
    t.total_us += e.dur_us;
    t.self_us += e.dur_us;
    if (!open.empty()) out[open.back().second].self_us -= e.dur_us;
    open.push_back({e.ts_us + e.dur_us, e.name});
  }
  return out;
}

obs::WorkSnapshot work_delta(const obs::WorkSnapshot& before,
                             const obs::WorkSnapshot& after) {
  obs::WorkSnapshot d{};
  for (std::size_t i = 0; i < obs::kWorkCount; ++i) d[i] = after[i] - before[i];
  return d;
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per-layer metric set, in BENCHMARK.json order (run.py checks the
// two lists agree on every run).
constexpr LayerMetric kLayerMetrics[] = {
    {"serve.handle_line_us.detect", "us"},
    {"serve.handle_line_us.probe", "us"},
    {"serve.handle_line_us.status", "us"},
    {"serve.transport_us", "us"},
    {"serve.parse_request_us", "us"},
    {"estimation.residual_us", "us"},
    {"estimation.analytic_pdetect_us", "us"},
    {"mtd.advance_hour_ms", "ms"},
    {"spa_fastpath_evals", "count"},
    {"spa_full_evals", "count"},
    {"mtd.spa_fastpath_share", "ratio"},
    {"zones_selected", "count"},
    {"boundary_rechecks", "count"},
    {"opf.simplex_ms", "ms"},
    {"simplex_solves", "count"},
    {"simplex_phase1_iterations", "count"},
    {"simplex_phase2_iterations", "count"},
    {"simplex_bland_pivots", "count"},
    {"opf.pivots_per_solve", "count"},
    {"attack.self_ms", "ms"},
    {"campaign_cells", "count"},
    {"attacker_probes", "count"},
    {"stale_replays", "count"},
    {"linalg.sparse_cholesky_ms", "ms"},
    {"cholesky_factor_nnz", "count"},
    {"cg_iterations", "count"},
    {"linalg.sparse_se_ms", "ms"},
    {"grid.compose_ms", "ms"},
    {"pool_regions", "count"},
    {"pool_tasks", "count"},
    {"core.cpu_util", "ratio"},
    {"loadgen.read_p90_us", "us"},
    {"loadgen.read_p99_us", "us"},
    {"loadgen.lag_p99_us", "us"},
    {"loadgen.backlog_max", "count"},
    {"failed_frac", "ratio"},
    {"trace.overhead_pct", "%"},
};

// Span-mean metrics: metric name -> (span name, divisor from us).
struct SpanMean {
  const char* metric;
  const char* span;
  double scale;
};
constexpr SpanMean kSpanMeans[] = {
    {"serve.handle_line_us.detect", "serve.handle_line.detect", 1.0},
    {"serve.handle_line_us.probe", "serve.handle_line.probe", 1.0},
    {"serve.handle_line_us.status", "serve.handle_line.status", 1.0},
    {"mtd.advance_hour_ms", "mtd.advance_hour", 1e-3},
    {"opf.simplex_ms", "opf.simplex", 1e-3},
    {"linalg.sparse_cholesky_ms", "linalg.sparse_cholesky", 1e-3},
    {"linalg.sparse_se_ms", "linalg.sparse_se", 1e-3},
    {"grid.compose_ms", "grid.compose", 1e-3},
};

// Counter metrics reported per workload operation.
constexpr obs::Work kPerUnitWork[] = {
    obs::Work::kSpaFastPathEvals,
    obs::Work::kSpaFullEvals,
    obs::Work::kZonesSelected,
    obs::Work::kBoundaryRechecks,
    obs::Work::kSimplexSolves,
    obs::Work::kSimplexPhase1Iterations,
    obs::Work::kSimplexPhase2Iterations,
    obs::Work::kSimplexBlandPivots,
    obs::Work::kCampaignCells,
    obs::Work::kAttackerProbes,
    obs::Work::kStaleReplays,
    obs::Work::kCholeskyFactorNnz,
    obs::Work::kCgIterations,
    obs::Work::kPoolRegions,
    obs::Work::kPoolTasks,
};

}  // namespace

void set_layer_metrics(Report& report, const LayerInputs& in) {
  for (const LayerMetric& m : kLayerMetrics) report.set(m.name, 0.0, m.unit);
  const auto unit_of = [](const std::string& name) {
    for (const LayerMetric& m : kLayerMetrics)
      if (name == m.name) return std::string(m.unit);
    return std::string("count");
  };
  for (const SpanMean& s : kSpanMeans) {
    const auto it = in.spans.find(s.span);
    if (it != in.spans.end())
      report.set(s.metric, it->second.mean_us() * s.scale, unit_of(s.metric));
  }
  const double units = in.units > 0.0 ? in.units : 1.0;
  const auto count = [&](obs::Work w) {
    return static_cast<double>(in.work[static_cast<std::size_t>(w)]);
  };
  for (const obs::Work w : kPerUnitWork)
    report.set(obs::work_info(w).name, count(w) / units, "count");
  const double fast = count(obs::Work::kSpaFastPathEvals);
  const double full = count(obs::Work::kSpaFullEvals);
  if (fast + full > 0.0)
    report.set("mtd.spa_fastpath_share", fast / (fast + full), "ratio");
  const double solves = count(obs::Work::kSimplexSolves);
  if (solves > 0.0)
    report.set("opf.pivots_per_solve",
               (count(obs::Work::kSimplexPhase1Iterations) +
                count(obs::Work::kSimplexPhase2Iterations)) /
                   solves,
               "count");
  for (const auto& [name, value] : in.direct) report.set(name, value, unit_of(name));
}

void start_tracing() {
  obs::Tracer::global().drain();
  obs::Tracer::global().set_enabled(true);
}

std::vector<obs::TraceEvent> stop_tracing() {
  obs::Tracer::global().set_enabled(false);
  return obs::Tracer::global().drain();
}

void write_trace_outputs(const Options& opt,
                         const std::vector<obs::TraceEvent>& events,
                         const std::map<std::string, SpanTotals>& spans) {
  std::ostringstream table;
  table << "span                              count     total_ms      self_ms"
           "      mean_us\n";
  std::vector<std::pair<std::string, SpanTotals>> rows(spans.begin(),
                                                       spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  for (const auto& [name, t] : rows) {
    char line[160];
    std::snprintf(line, sizeof line, "%-30s %9llu %12.3f %12.3f %12.2f\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_us / 1e3, t.self_us / 1e3, t.mean_us());
    table << line;
  }
  std::cerr << table.str();

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed);
  std::ofstream trace(stem + ".trace.json");
  obs::write_chrome_trace(trace, events);
  std::ofstream(stem + ".layers.txt") << table.str();
  if (!trace || ec)
    std::fprintf(stderr, "perfbench: could not write %s.*\n", stem.c_str());
}

}  // namespace perfbench
