// The batch workloads: an adversary campaign on case57 (campaign) and
// repeated zone re-key cycles on the composed case57x3 (megagrid_zones).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attack/adaptive.hpp"
#include "attack/campaign.hpp"
#include "estimation/state_estimator.hpp"
#include "grid/compose.hpp"
#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "mtd/zone_selection.hpp"
#include "obs/scope.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "stats.hpp"
#include "stats/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mtdgrid;
using serve::Json;

// Set-up here takes under a millisecond, so it is repeated and the median
// reported.
constexpr int kSetupRepeats = 21;

// Runs `op` until `seconds` have passed (at least once) and returns each
// call's wall time in seconds. `between`, when given, runs untimed before
// every call.
std::vector<double> repeat_for(double seconds,
                               const std::function<void(std::size_t)>& op,
                               const std::function<void()>& between = {}) {
  std::vector<double> times;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       times.empty() || seconds_between(start, Clock::now()) < seconds; ++i) {
    if (between) between();
    const auto t0 = Clock::now();
    op(i);
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return times;
}

// What a traced repeat measured.
struct TracedRepeat {
  LayerInputs in;  // counters per call, spans, cpu use, tracing overhead
  std::vector<obs::TraceEvent> events;
  double mean_op_ms = 0.0;  // traced calls
};

// Repeats `op` untraced for `seconds`, then traced for `seconds` with its
// counters scoped to a private registry. The tracing overhead compares
// the median call times of the two halves.
TracedRepeat traced_repeat(double seconds,
                           const std::function<void(std::size_t)>& op) {
  const std::vector<double> untraced = repeat_for(seconds, op);
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scope(&registry);
  start_tracing();
  const double cpu0 = cpu_seconds();
  const auto wall0 = Clock::now();
  const std::vector<double> traced = repeat_for(seconds, [&](std::size_t i) {
    op(untraced.size() + i);
  });
  const double wall_s = seconds_between(wall0, Clock::now());
  const double cpu_s = cpu_seconds() - cpu0;
  TracedRepeat out;
  out.events = stop_tracing();
  out.in.spans = span_totals(out.events);
  out.in.work = registry.work_snapshot();
  out.in.units = static_cast<double>(traced.size());
  out.in.direct["core.cpu_util"] =
      cpu_s / (wall_s * std::thread::hardware_concurrency());
  out.in.direct["trace.overhead_pct"] =
      100.0 * (median(traced) - median(untraced)) / median(untraced);
  out.mean_op_ms =
      1e3 * std::accumulate(traced.begin(), traced.end(), 0.0) / traced.size();
  return out;
}

void set_batch_metrics(Report& report, double setup_s,
                       const std::vector<double>& times, double items) {
  report.set("setup_s", setup_s, "s");
  report.set("p50_ms", median(times) * 1e3, "ms");
  report.set("throughput_per_s", items / median(times), "1/s");
}

// ---- campaign ------------------------------------------------------------

// The campaign: case57 under the reduced serving budgets, 6 defender
// hours, re-keying every hour or every third hour, the default panel. The
// defender keys at one SPA threshold: with the adaptive gamma grid the
// number of retries per hour depended on the seed, and a frontier took
// 11 to 27 s across seeds 1-10.
attack::CampaignOptions campaign_options(std::uint64_t seed) {
  attack::CampaignOptions o;
  o.seed = seed;
  o.horizon_hours = 6;
  o.rekey_every = {1, 3};
  o.daily.gamma_grid = {0.15};
  o.daily.base_search_evaluations = 120;
  o.daily.effectiveness.num_attacks = 40;
  o.daily.selection.extra_starts = 1;
  o.daily.selection.search.max_evaluations = 150;
  return o;
}

// (mean_detection, eta) per cell, schedule-major.
using FrontierSummary = std::vector<std::pair<double, double>>;

FrontierSummary summarize(const attack::CampaignFrontier& f) {
  FrontierSummary out;
  for (const attack::CampaignCell& c : f.cells)
    out.push_back({c.mean_detection, c.eta});
  return out;
}

// The stored frontier of `seed`, if the reference file has one.
std::optional<FrontierSummary> stored_frontier(const Options& opt) {
  std::ifstream in(opt.reference_dir + "/campaign.json");
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  const Json doc = Json::parse(text.str());
  const Json* frontiers = doc.find("frontiers");
  const Json* cells =
      frontiers ? frontiers->find(std::to_string(opt.seed)) : nullptr;
  if (cells == nullptr) return std::nullopt;
  FrontierSummary out;
  for (const Json& cell : cells->as_array())
    out.push_back({cell.as_array().at(0).as_number(),
                   cell.as_array().at(1).as_number()});
  return out;
}

// Checks one frontier; returns the first problem, or "" when it is sound.
std::string check_frontier(const attack::CampaignFrontier& f,
                           const attack::CampaignOptions& o,
                           const std::optional<FrontierSummary>& stored,
                           double omniscient_eta) {
  const std::size_t panel = attack::default_attackers().size();
  if (f.cells.size() != o.rekey_every.size() * panel)
    return "frontier has " + std::to_string(f.cells.size()) + " cells";
  for (const attack::CampaignCell& c : f.cells) {
    if (c.hours_scored == 0) return "a cell scored no hours";
    if (!(c.mean_detection >= 0.0 && c.mean_detection <= 1.0 && c.eta >= 0.0 &&
          c.eta <= 1.0))
      return "a cell is outside [0, 1]";
    // The omniscient attacker crafts a = H' c from the key in force, so
    // it evades exactly: eta 0 and detection at the false-positive rate.
    if (c.attacker.policy == attack::AttackerPolicy::kOmniscient &&
        (c.eta != omniscient_eta || c.mean_detection > 0.01))
      return "omniscient cell is not the evasion baseline";
  }
  if (stored) {
    const FrontierSummary got = summarize(f);
    if (got.size() != stored->size()) return "stored frontier size differs";
    for (std::size_t i = 0; i < got.size(); ++i)
      if (std::abs(got[i].first - (*stored)[i].first) > 1e-9 ||
          std::abs(got[i].second - (*stored)[i].second) > 1e-9)
        return "cell " + std::to_string(i) + " differs from the stored frontier";
  }
  return "";
}

// ---- megagrid zones ------------------------------------------------------

// The slow zone-selection test's budget: completion, not strength.
mtd::ZoneSelectionOptions zone_options() {
  mtd::ZoneSelectionOptions o;
  o.selection.gamma_threshold = 0.01;
  o.selection.extra_starts = 0;
  o.selection.search.max_evaluations = 20;
  o.max_rounds = 1;
  return o;
}

// Three case57 copies, 171 buses. A case118x3 cycle took 3 to 5.6 s for
// the same 10,062 simplex pivots, so a 10 s run held two or three cycles
// and its median followed the host's speed drift; a case57x3 cycle takes
// about 0.15 s.
constexpr const char* kZoneCase = "case57x3";
constexpr std::size_t kZoneCopies = 3;
constexpr double kSigmaMw = 0.05;

}  // namespace

void run_campaign(const Options& opt, Report& report) {
  std::optional<grid::PowerSystem> sys;
  std::optional<grid::DailyLoadTrace> trace;
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    sys.emplace(io::load_case("case57"));
    trace.emplace(serve::default_daemon_trace(*sys));
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  const attack::CampaignOptions options = campaign_options(opt.seed);
  std::optional<FrontierSummary> stored = stored_frontier(opt);
  double omniscient_eta = 0.0;
  if (opt.corrupt_reference) {
    omniscient_eta = 1.0;
    if (stored) (*stored)[0].first += 0.5;
  }
  std::fprintf(stderr, "perfbench: campaign seed %llu, stored reference: %s\n",
               static_cast<unsigned long long>(opt.seed), stored ? "yes" : "no");

  std::string first_json;
  const auto op = [&](std::size_t) {
    const attack::CampaignFrontier f = attack::run_campaign(*sys, *trace, options);
    report.attempt();
    std::string problem = check_frontier(f, options, stored, omniscient_eta);
    const std::string json = attack::to_json(f);
    if (first_json.empty()) first_json = json;
    if (problem.empty() && json != first_json)
      problem = "frontier differs between repeats";
    if (!problem.empty()) report.fail(problem);
  };

  if (opt.trace) {
    TracedRepeat t = traced_repeat(opt.seconds / 2, op);
    // attack.self_ms: campaign time not spent advancing the defender.
    const auto hours = t.in.spans.find("mtd.advance_hour");
    const double engine_ms = hours == t.in.spans.end()
                                 ? 0.0
                                 : hours->second.total_us / 1e3 / t.in.units;
    t.in.direct["attack.self_ms"] = t.mean_op_ms - engine_ms;
    set_layer_metrics(report, t.in);
    write_trace_outputs(opt, t.events, t.in.spans);
    return;
  }
  const std::vector<double> times = repeat_for(opt.seconds, op);
  set_batch_metrics(report, median(setups), times,
                    static_cast<double>(options.rekey_every.size() *
                                        attack::default_attackers().size()));
}

std::string campaign_reference(std::uint64_t count) {
  const grid::PowerSystem sys = io::load_case("case57");
  const grid::DailyLoadTrace trace = serve::default_daemon_trace(sys);
  Json frontiers;
  for (std::uint64_t seed = 0; seed < count; ++seed) {
    std::fprintf(stderr, "perfbench: reference frontier for seed %llu\n",
                 static_cast<unsigned long long>(seed));
    Json cells{Json::Array{}};
    for (const auto& [detection, eta] :
         summarize(attack::run_campaign(sys, trace, campaign_options(seed)))) {
      Json cell{Json::Array{}};
      cell.push_back(Json(detection));
      cell.push_back(Json(eta));
      cells.push_back(std::move(cell));
    }
    frontiers.set(std::to_string(seed), std::move(cells));
  }
  Json doc;
  doc.set("frontiers", std::move(frontiers));
  return doc.dump();
}

void run_megagrid_zones(const Options& opt, Report& report) {
  // Set-up composes and partitions the grid. Besides the repeats up front,
  // it runs again before every cycle, outside the cycle's time, so its
  // median spans the whole run like the cycle times do, not a few ms at
  // process start.
  std::optional<grid::PowerSystem> sys;
  std::optional<grid::ZonePartition> partition;
  std::vector<double> setups;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    sys.emplace(io::load_case(kZoneCase));
    partition.emplace(grid::partition_into_copies(*sys, kZoneCopies));
    setups.push_back(seconds_between(t0, Clock::now()));
  };
  for (int k = 0; k < kSetupRepeats; ++k) set_up();
  const mtd::ZoneSelectionOptions options = zone_options();

  // A seed-derived true state; each cycle estimates it from one probe
  // sample of its measurements at the freshly stitched reactances.
  stats::Rng rng(stats::stream_seed(opt.seed, 0x7a6f6e6573ULL));  // "zones"
  linalg::Vector theta(sys->num_buses() - 1);
  for (std::size_t i = 0; i < theta.size(); ++i) theta[i] = rng.gaussian(0.0, 0.1);
  const std::uint64_t probe_root = rng.next_u64();
  const double theta_shift = opt.corrupt_reference ? 1.0 : 0.0;

  const auto op = [&](std::size_t cycle) {
    const mtd::ZoneSelectionResult r = mtd::select_mtd_zones(
        *sys, *partition, options, stats::stream_seed(opt.seed, cycle));
    linalg::Vector estimate;
    {
      obs::Span span("linalg.sparse_se", "linalg");
      const linalg::Vector z = attack::probe_measurement(
          grid::noiseless_measurements(*sys, r.reactances, theta), kSigmaMw,
          probe_root, cycle, 0);
      const estimation::StateEstimator se(
          grid::sparse_measurement_matrix(*sys, r.reactances), kSigmaMw);
      estimate = se.estimate(z);
    }
    report.attempt();
    if (!r.feasible ||
        r.full_spa < options.selection.gamma_threshold -
                         options.selection.constraint_tol) {
      report.fail("zone selection infeasible (full SPA " +
                  std::to_string(r.full_spa) + ")");
      return;
    }
    double worst = 0.0;
    for (std::size_t i = 0; i < theta.size(); ++i)
      worst = std::max(worst, std::abs(estimate[i] - theta[i] - theta_shift));
    if (!(worst < 1e-3))
      report.fail("sparse state estimate is off by " + std::to_string(worst) +
                  " rad");
  };

  if (opt.trace) {
    TracedRepeat t = traced_repeat(opt.seconds / 2, op);
    t.in.direct["grid.compose_ms"] = median(setups) * 1e3;
    set_layer_metrics(report, t.in);
    write_trace_outputs(opt, t.events, t.in.spans);
    return;
  }
  const std::vector<double> times = repeat_for(opt.seconds, op, set_up);
  set_batch_metrics(report, median(setups), times,
                    static_cast<double>(kZoneCopies));
}

}  // namespace perfbench
