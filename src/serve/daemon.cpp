#include "serve/daemon.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "attack/adaptive.hpp"
#include "attack/campaign.hpp"
#include "estimation/detection.hpp"
#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "obs/prometheus.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"

namespace mtdgrid::serve {

namespace {

// Substream family tags (DESIGN.md "Serving architecture"): the daemon's
// request randomness is rooted at stream_seed(seed, tag), so request
// streams never collide with the engine's sequential draws and a reply is
// a pure function of (seed, verb, hour, id) — independent of request
// interleaving and thread count. The probe and campaign tags are shared
// with the attack layer (attack::kProbeOracleTag /
// attack::kCampaignStreamTag), so an in-process campaign's probe-based
// attacker observes exactly the samples a client probing this daemon at
// the same (seed, hour, id) would receive.
constexpr std::uint64_t kDetectStreamTag = 0x646574656374ULL; // "detect"

Json vector_json(const linalg::Vector& v) {
  Json arr{Json::Array{}};
  for (std::size_t i = 0; i < v.size(); ++i) arr.push_back(Json(v[i]));
  return arr;
}

// Per-name span aggregate for the "trace_us" reply section.
struct TraceAgg {
  const char* name;
  const char* category;
  std::size_t count;
  double total_us;
};

}  // namespace

grid::DailyLoadTrace default_daemon_trace(const grid::PowerSystem& sys) {
  const grid::DailyLoadTrace base =
      grid::DailyLoadTrace::nyiso_winter_weekday();
  // The NYISO winter-weekday totals were fitted to the IEEE 14-bus
  // system's 259 MW nominal total; any other case replays the same
  // relative profile scaled to its own nominal load.
  constexpr double kCase14NominalMw = 259.0;
  const double scale = sys.total_load_mw() / kCase14NominalMw;
  std::vector<double> totals(base.size());
  for (std::size_t h = 0; h < base.size(); ++h)
    totals[h] = base.total_mw(h) * scale;
  return grid::DailyLoadTrace(std::move(totals));
}

MtdDaemon::MtdDaemon(grid::PowerSystem sys, grid::DailyLoadTrace trace,
                     DaemonOptions options)
    : options_(std::move(options)),
      case_name_(sys.name()),
      // Guaranteed copy elision constructs the engine in place while the
      // lambda's registry scope is active, so the pass-1 baseline's work
      // (one OPF solve per trace hour) is attributed to this shard.
      engine_([&]() -> mtd::DailyEngine {
        obs::ScopedRegistry obs_scope(&registry_);
        return mtd::DailyEngine(std::move(sys), std::move(trace),
                                options_.daily);
      }()),
      rng_(options_.seed),
      probe_root_(stats::stream_seed(options_.seed, attack::kProbeOracleTag)),
      detect_root_(stats::stream_seed(options_.seed, kDetectStreamTag)),
      campaign_root_(
          stats::stream_seed(options_.seed, attack::kCampaignStreamTag)) {
  if (options_.history_hours == 0) options_.history_hours = 1;
  history_.store(std::make_shared<SnapshotWindow>());
  tick();  // key hour 0: the daemon serves immediately after construction
}

MtdDaemon::MtdDaemon(std::pair<grid::PowerSystem, grid::DailyLoadTrace> loaded,
                     DaemonOptions options)
    : MtdDaemon(std::move(loaded.first), std::move(loaded.second),
                std::move(options)) {}

MtdDaemon::MtdDaemon(const DaemonOptions& options)
    : MtdDaemon(
          [&options] {
            grid::PowerSystem sys = io::load_case(options.case_name);
            grid::DailyLoadTrace trace = default_daemon_trace(sys);
            return std::pair(std::move(sys), std::move(trace));
          }(),
          options) {
  case_name_ = options_.case_name;  // report the registry name, not the
                                    // case file's internal system name
}

std::size_t MtdDaemon::tick() {
  std::lock_guard<std::mutex> exec_lock(exec_mutex_);
  return tick_locked();
}

std::size_t MtdDaemon::tick(ExecLock& lock) {
  // The caller pre-acquired this daemon's write lock (fleet broadcast
  // tick: all shard locks first, then one parallel region). The lock may
  // be owned by a different thread than the one running the engine work;
  // mutual exclusion is what matters, and unlocking stays with the owner.
  if (lock.mutex() != &exec_mutex_ || !lock.owns_lock())
    throw std::logic_error("tick(ExecLock&): lock must hold this daemon's "
                           "exec_lock()");
  return tick_locked();
}

std::size_t MtdDaemon::tick_locked() {
  // Direct `tick()` callers (construction, the fleet's broadcast tick,
  // the re-keying scheduler) arrive without a request scope; requests
  // re-scoping to the same registry is a harmless no-op.
  obs::ScopedRegistry obs_scope(&registry_);
  obs::Span span("serve.tick", "serve");
  mtd::DailyHourOutcome outcome = engine_.advance_hour(rng_);

  auto snap = std::make_shared<HourKeySnapshot>();
  snap->hour = outcome.record.hour;
  snap->trace_hour = snap->hour % engine_.hours_per_day();
  snap->record = outcome.record;
  snap->keyed = outcome.record.feasible;
  if (snap->keyed) {
    const auto dfacts = engine_.system().dfacts_branches();
    snap->setpoints = linalg::Vector(dfacts.size());
    for (std::size_t k = 0; k < dfacts.size(); ++k)
      snap->setpoints[k] = outcome.reactances[dfacts[k]];
    snap->reactances = std::move(outcome.reactances);
    snap->dispatch = std::move(outcome.dispatch);
    snap->z_ref = std::move(outcome.z_ref);
    snap->estimator = std::make_shared<const estimation::StateEstimator>(
        grid::sparse_measurement_matrix(engine_.system(), snap->reactances),
        options_.daily.effectiveness.sigma_mw);
    snap->bdd = std::make_shared<const estimation::BadDataDetector>(
        *snap->estimator, options_.daily.effectiveness.fp_rate);
  }

  // Publish: readers atomically load the whole retention window, so a
  // request never observes a half-applied key change or a half-trimmed
  // window. `exec_mutex_` makes this the only writer.
  auto next = std::make_shared<SnapshotWindow>(*history_.load());
  next->push_back(std::move(snap));
  while (next->size() > options_.history_hours)
    next->erase(next->begin());
  const std::size_t hour = next->back()->hour;
  history_.store(std::move(next));
  counters_.ticks.fetch_add(1, std::memory_order_relaxed);
  return hour;
}

std::size_t MtdDaemon::current_hour() const {
  return window()->back()->hour;
}

std::shared_ptr<const HourKeySnapshot> MtdDaemon::current_snapshot() const {
  return window()->back();
}

std::shared_ptr<const HourKeySnapshot> MtdDaemon::snapshot_at(
    std::size_t hour) const {
  for (const auto& snap : *window())
    if (snap->hour == hour) return snap;
  return nullptr;
}

DaemonCounters MtdDaemon::counters() const {
  DaemonCounters c;
  c.requests = counters_.requests.load(std::memory_order_relaxed);
  c.errors = counters_.errors.load(std::memory_order_relaxed);
  c.ticks = counters_.ticks.load(std::memory_order_relaxed);
  c.dispatch = counters_.dispatch.load(std::memory_order_relaxed);
  c.detect = counters_.detect.load(std::memory_order_relaxed);
  c.probe = counters_.probe.load(std::memory_order_relaxed);
  c.status = counters_.status.load(std::memory_order_relaxed);
  c.metrics = counters_.metrics.load(std::memory_order_relaxed);
  c.campaign = counters_.campaign.load(std::memory_order_relaxed);
  return c;
}

bool MtdDaemon::needs_exec_lock(const Request& req) {
  switch (req.verb) {
    case Verb::kTick:
    case Verb::kDispatch:
      return true;  // mutate / read engine state
    case Verb::kDetect:
      // Monte-Carlo scoring fans out on the shared thread pool; routing
      // it through the write lock bounds pool contention per shard. The
      // plain BDD and analytic methods are snapshot-pure and lock-free.
      return req.method == DetectMethod::kMonteCarlo;
    case Verb::kCampaign:
      // Fans out on the shared thread pool (one evaluate_effectiveness
      // per scored hour and policy), like Monte-Carlo detect.
      return true;
    default:
      return false;
  }
}

std::string MtdDaemon::handle_line(const std::string& line) {
  std::string trimmed = line;
  while (!trimmed.empty() &&
         (trimmed.back() == '\r' || trimmed.back() == '\n'))
    trimmed.pop_back();
  if (trimmed.find_first_not_of(" \t") == std::string::npos) return "";

  ParseOutcome outcome = parse_request(trimmed);
  if (const ProtocolError* err = std::get_if<ProtocolError>(&outcome)) {
    counters_.requests.fetch_add(1, std::memory_order_relaxed);
    return error_line(*err);
  }
  return serve_request(std::get<Request>(outcome));
}

std::string MtdDaemon::serve_request(const Request& req) {
  const auto t0 = std::chrono::steady_clock::now();
  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  const auto run = [&]() -> std::string {
    if (needs_exec_lock(req)) {
      std::lock_guard<std::mutex> exec_lock(exec_mutex_);
      return handle_request(req);
    }
    // Lock-free read path: answers entirely off the atomically loaded
    // snapshot window, even while a tick holds the write lock.
    return handle_request(req);
  };
  std::string reply;
  if (req.trace) {
    // Opt-in span capture: the mutex-guarded sink is constructed only
    // here, so untraced requests never pay for it. The spans carry wall
    // clock, so the section is opt-in exactly like "latency".
    obs::SpanCapture capture;
    {
      obs::ScopedContext obs_scope({&registry_, &capture});
      obs::Span span(verb_name(req.verb), "serve");
      reply = run();
    }
    // Splice the aggregated spans into the reply object (error replies
    // are objects too, so popping the closing brace is always valid).
    if (!reply.empty() && reply.back() == '}') {
      Json spans{Json::Array{}};
      // Aggregate by span name in first-seen order: stable, compact, and
      // independent of cross-thread interleaving in everything but the
      // wall-clock fields.
      std::vector<TraceAgg> agg;
      for (const obs::TraceEvent& e : capture.events()) {
        TraceAgg* slot = nullptr;
        for (TraceAgg& a : agg)
          if (a.name == e.name) slot = &a;
        if (slot == nullptr) {
          agg.push_back({e.name, e.category, 0, 0.0});
          slot = &agg.back();
        }
        ++slot->count;
        slot->total_us += e.dur_us;
      }
      for (const TraceAgg& a : agg) {
        Json entry;
        entry.set("name", Json(std::string(a.name)));
        entry.set("cat", Json(std::string(a.category)));
        entry.set("count", Json(a.count));
        entry.set("total_us", Json(a.total_us));
        spans.push_back(std::move(entry));
      }
      reply.pop_back();
      reply += ",\"trace_us\":" + spans.dump() + "}";
    }
  } else {
    obs::ScopedRegistry obs_scope(&registry_);
    reply = run();
  }
  const auto t1 = std::chrono::steady_clock::now();
  record_latency(
      std::chrono::duration<double, std::micro>(t1 - t0).count());
  return reply;
}

std::string MtdDaemon::error_line(const ProtocolError& error) {
  counters_.errors.fetch_add(1, std::memory_order_relaxed);
  return error_reply(error);
}

std::string MtdDaemon::not_keyed_reply(std::size_t hour) {
  return error_line(
      {"not-keyed", "hour " + std::to_string(hour) +
                        " has no active key (selection infeasible)"});
}

std::string MtdDaemon::handle_request(const Request& req) {
  switch (req.verb) {
    case Verb::kDispatch: return reply_dispatch(req);
    case Verb::kDetect: return reply_detect(req);
    case Verb::kProbe: return reply_probe(req);
    case Verb::kStatus: return reply_status(req);
    case Verb::kMetrics: return reply_metrics(req);
    case Verb::kTick: return reply_tick(req);
    case Verb::kCampaign: return reply_campaign(req);
    case Verb::kShutdown: return reply_shutdown(req);
  }
  return error_line({"internal", "unhandled verb"});
}

std::shared_ptr<const HourKeySnapshot> MtdDaemon::resolve_snapshot(
    const SnapshotWindow& window, const Request& req, std::string& error) {
  if (!req.has_hour) return window.back();
  for (const auto& snap : window)
    if (snap->hour == req.hour) return snap;
  error = error_line(
      {"bad-hour",
       "hour " + std::to_string(req.hour) + " is not retained (retained: " +
           std::to_string(window.front()->hour) + ".." +
           std::to_string(window.back()->hour) + ")"});
  return nullptr;
}

std::string MtdDaemon::reply_dispatch(const Request& req) {
  const auto win = window();
  std::string error;
  const auto snap = resolve_snapshot(*win, req, error);
  if (!snap) return error;
  if (!snap->keyed) return not_keyed_reply(snap->hour);
  counters_.dispatch.fetch_add(1, std::memory_order_relaxed);
  Json reply;
  reply.set("ok", Json(true));
  reply.set("op", Json("dispatch"));
  if (req.has_id) reply.set("id", Json(req.id));
  reply.set("hour", Json(snap->hour));
  reply.set("trace_hour", Json(snap->trace_hour));
  reply.set("gamma_th", Json(snap->record.gamma_threshold));
  reply.set("spa", Json(snap->record.gamma_ht_hmtd));
  reply.set("cost", Json(snap->record.mtd_opf_cost));
  reply.set("base_cost", Json(snap->record.base_opf_cost));
  reply.set("cost_increase_pct", Json(snap->record.cost_increase_pct));
  Json branches{Json::Array{}};
  for (const std::size_t b : engine_.system().dfacts_branches())
    branches.push_back(Json(b));
  reply.set("branches", std::move(branches));
  reply.set("setpoints", vector_json(snap->setpoints));
  return reply.dump();
}

std::string MtdDaemon::reply_detect(const Request& req) {
  const auto win = window();
  std::string error;
  const auto snap = resolve_snapshot(*win, req, error);
  if (!snap) return error;
  if (!snap->keyed) return not_keyed_reply(snap->hour);
  const linalg::Vector& z = req.has_z ? req.z : snap->z_ref;
  if (z.size() != snap->estimator->num_measurements())
    return error_line(
        {"bad-request",
         "\"z\" must have " +
             std::to_string(snap->estimator->num_measurements()) +
             " entries (order: L forward flows, L reverse flows, N "
             "injections; MW)"});
  const double residual = snap->estimator->normalized_residual_norm(z);
  if (!std::isfinite(residual))
    return error_line(
        {"bad-request",
         "\"z\" is out of range: its normalized residual overflows"});
  counters_.detect.fetch_add(1, std::memory_order_relaxed);
  Json reply;
  reply.set("ok", Json(true));
  reply.set("op", Json("detect"));
  if (req.has_id) reply.set("id", Json(req.id));
  reply.set("hour", Json(snap->hour));
  reply.set("alarm", Json(snap->bdd->alarm(residual)));
  reply.set("residual", Json(residual));
  reply.set("tau", Json(snap->bdd->threshold()));
  reply.set("dof", Json(snap->bdd->dof()));
  if (req.method != DetectMethod::kBdd) {
    // Score the *implied deviation* a = z - z_ref: how reliably would the
    // detector catch this exact injection across noise realizations.
    linalg::Vector a = z;
    a -= snap->z_ref;
    double p_detect = 0.0;
    if (req.method == DetectMethod::kAnalytic) {
      p_detect = estimation::analytic_detection_probability(
          *snap->estimator, *snap->bdd, a);
      reply.set("method", Json("analytic"));
    } else {
      // Per-request substream: a pure function of (seed, hour, id), so
      // the reply does not depend on request interleaving, other
      // requests, or the thread count.
      const std::uint64_t root = stats::stream_seed(
          stats::stream_seed(detect_root_, snap->hour), req.id);
      p_detect = estimation::monte_carlo_detection_probability_seeded(
          *snap->estimator, *snap->bdd, snap->z_ref, a, req.trials, root);
      reply.set("method", Json("mc"));
      reply.set("trials", Json(req.trials));
    }
    reply.set("p_detect", Json(p_detect));
  }
  return reply.dump();
}

std::string MtdDaemon::reply_probe(const Request& req) {
  const auto win = window();
  std::string error;
  const auto snap = resolve_snapshot(*win, req, error);
  if (!snap) return error;
  if (!snap->keyed) return not_keyed_reply(snap->hour);
  counters_.probe.fetch_add(1, std::memory_order_relaxed);
  // Attack-free sample on the request's own substream (pure function of
  // (seed, hour, id)): z = z_ref + sigma * N(0, I). One definition shared
  // with the attacker-side estimators (attack::probe_measurement).
  const linalg::Vector z = attack::probe_measurement(
      snap->z_ref, options_.daily.effectiveness.sigma_mw, probe_root_,
      snap->hour, req.id);
  const double residual = snap->estimator->normalized_residual_norm(z);
  Json reply;
  reply.set("ok", Json(true));
  reply.set("op", Json("probe"));
  if (req.has_id) reply.set("id", Json(req.id));
  reply.set("hour", Json(snap->hour));
  reply.set("alarm", Json(snap->bdd->alarm(residual)));
  reply.set("residual", Json(residual));
  reply.set("z", vector_json(z));
  return reply.dump();
}

std::string MtdDaemon::reply_status(const Request& req) {
  const auto win = window();
  std::string error;
  const auto snap = resolve_snapshot(*win, req, error);
  if (!snap) return error;
  counters_.status.fetch_add(1, std::memory_order_relaxed);
  const std::size_t retained_lo = win->front()->hour;
  const std::size_t retained_hi = win->back()->hour;
  const std::uint64_t ticks =
      counters_.ticks.load(std::memory_order_relaxed);
  const std::uint64_t requests =
      counters_.requests.load(std::memory_order_relaxed);
  Json reply;
  reply.set("ok", Json(true));
  reply.set("op", Json("status"));
  if (req.has_id) reply.set("id", Json(req.id));
  reply.set("proto", Json(static_cast<std::size_t>(kProtocolVersion)));
  reply.set("case", Json(case_name_));
  reply.set("hour", Json(snap->hour));
  reply.set("trace_hour", Json(snap->trace_hour));
  reply.set("hours_per_day", Json(engine_.hours_per_day()));
  reply.set("keyed", Json(snap->keyed));
  reply.set("gamma_th", Json(snap->record.gamma_threshold));
  reply.set("eta", Json(snap->record.eta_at_target));
  reply.set("spa", Json(snap->record.gamma_ht_hmtd));
  reply.set("cost_increase_pct", Json(snap->record.cost_increase_pct));
  reply.set("load_mw", Json(snap->record.total_load_mw));
  Json retained{Json::Array{}};
  retained.push_back(Json(retained_lo));
  retained.push_back(Json(retained_hi));
  reply.set("retained", std::move(retained));
  reply.set("ticks", Json(ticks));
  reply.set("requests", Json(requests));
  return reply.dump();
}

std::string MtdDaemon::reply_metrics(const Request& req) {
  counters_.metrics.fetch_add(1, std::memory_order_relaxed);
  const DaemonCounters c = counters();
  std::uint64_t buckets[6];
  const std::uint64_t lat_count =
      latency_count_.load(std::memory_order_relaxed);
  const double lat_sum = latency_sum_us_.load(std::memory_order_relaxed);
  const double lat_max = latency_max_us_.load(std::memory_order_relaxed);
  for (int i = 0; i < 6; ++i)
    buckets[i] = latency_buckets_[i].load(std::memory_order_relaxed);
  const obs::WorkSnapshot work = registry_.work_snapshot();

  if (req.prometheus_format) {
    // Prometheus text exposition, carried as a JSON string field so the
    // transport stays line-based. It includes the wall-clock latency
    // histogram and the structural pool counters, so (like "latency")
    // this form never appears in byte-diffed transcripts.
    obs::PrometheusBuilder b;
    b.counter("mtdgrid_requests_total",
              "Request lines handled (including errors)", c.requests);
    b.counter("mtdgrid_errors_total", "Error replies sent", c.errors);
    b.counter("mtdgrid_ticks_total", "Re-keying steps (manual + scheduled)",
              c.ticks);
    b.counter_family("mtdgrid_verb_requests_total",
                     "Requests served successfully, by verb",
                     {{{{"verb", "dispatch"}}, c.dispatch},
                      {{{"verb", "detect"}}, c.detect},
                      {{{"verb", "probe"}}, c.probe},
                      {{{"verb", "status"}}, c.status},
                      {{{"verb", "metrics"}}, c.metrics},
                      {{{"verb", "campaign"}}, c.campaign}});
    obs::render_work_counters(b, work);
    b.gauge("mtdgrid_current_hour", "Current virtual-clock hour",
            static_cast<double>(window()->back()->hour));
    b.histogram("mtdgrid_request_latency_seconds",
                "Service time of handled request lines",
                {1e-4, 1e-3, 1e-2, 1e-1, 1.0},
                std::vector<std::uint64_t>(buckets, buckets + 6), lat_count,
                lat_sum / 1e6);
    Json reply;
    reply.set("ok", Json(true));
    reply.set("op", Json("metrics"));
    if (req.has_id) reply.set("id", Json(req.id));
    reply.set("format", Json("prometheus"));
    reply.set("prometheus", Json(b.text()));
    return reply.dump();
  }

  Json reply;
  reply.set("ok", Json(true));
  reply.set("op", Json("metrics"));
  if (req.has_id) reply.set("id", Json(req.id));
  reply.set("requests", Json(c.requests));
  reply.set("errors", Json(c.errors));
  reply.set("ticks", Json(c.ticks));
  reply.set("dispatch", Json(c.dispatch));
  reply.set("detect", Json(c.detect));
  reply.set("probe", Json(c.probe));
  reply.set("status", Json(c.status));
  reply.set("metrics", Json(c.metrics));
  reply.set("campaign", Json(c.campaign));
  // Engine work counters, deterministic ones only (obs::work_info): for
  // a fixed transcript these are pure functions of (seed, inputs), so
  // default metrics replies stay byte-identical across thread counts —
  // CI diffs them at --threads 1 vs 8. The structural pool counters are
  // exported via the Prometheus form instead.
  Json engine;
  for (std::size_t i = 0; i < obs::kWorkCount; ++i) {
    const obs::WorkInfo& info = obs::work_info(static_cast<obs::Work>(i));
    if (info.deterministic) engine.set(info.name, Json(work[i]));
  }
  reply.set("engine", std::move(engine));
  if (req.include_latency) {
    // The one non-deterministic reply section, opt-in so that default
    // metrics replies stay byte-comparable across runs and thread counts.
    Json latency;
    latency.set("count", Json(lat_count));
    latency.set("mean_us",
                Json(lat_count > 0 ? lat_sum / static_cast<double>(lat_count)
                                   : 0.0));
    latency.set("max_us", Json(lat_max));
    Json hist;
    static const char* const kNames[6] = {"le_100us", "le_1ms",   "le_10ms",
                                          "le_100ms", "le_1s",    "gt_1s"};
    for (int i = 0; i < 6; ++i) hist.set(kNames[i], Json(buckets[i]));
    latency.set("buckets", std::move(hist));
    reply.set("latency_us", std::move(latency));
  }
  return reply.dump();
}

std::string MtdDaemon::reply_tick(const Request& req) {
  tick_locked();  // exec lock already held by handle_line
  const auto snap = current_snapshot();
  Json reply;
  reply.set("ok", Json(true));
  reply.set("op", Json("tick"));
  if (req.has_id) reply.set("id", Json(req.id));
  reply.set("hour", Json(snap->hour));
  reply.set("trace_hour", Json(snap->trace_hour));
  reply.set("keyed", Json(snap->keyed));
  reply.set("gamma_th", Json(snap->record.gamma_threshold));
  reply.set("eta", Json(snap->record.eta_at_target));
  reply.set("load_mw", Json(snap->record.total_load_mw));
  return reply.dump();
}

std::string MtdDaemon::reply_campaign(const Request& req) {
  const auto win = window();
  // Scorable boundaries: consecutive keyed snapshot pairs (prev, cur) —
  // the key retired at cur's re-keying step and the key it adopted.
  std::vector<std::size_t> pairs;  // indices of `cur` within the window
  for (std::size_t i = 1; i < win->size(); ++i)
    if ((*win)[i - 1]->keyed && (*win)[i]->keyed) pairs.push_back(i);
  if (req.has_hours && pairs.size() > req.hours)
    pairs.erase(pairs.begin(), pairs.end() - static_cast<std::ptrdiff_t>(
                                                 req.hours));
  if (pairs.empty())
    return error_line(
        {"not-keyed",
         "campaign needs two consecutive keyed retained hours (tick "
         "first)"});
  counters_.campaign.fetch_add(1, std::memory_order_relaxed);

  static const attack::AttackerPolicy kAll[4] = {
      attack::AttackerPolicy::kZeroKnowledge,
      attack::AttackerPolicy::kStaleKey, attack::AttackerPolicy::kProbe,
      attack::AttackerPolicy::kOmniscient};
  std::vector<attack::AttackerPolicy> policies;
  if (req.has_policy) {
    attack::AttackerPolicy p = attack::AttackerPolicy::kZeroKnowledge;
    attack::parse_attacker_policy(req.policy, p);  // validated at parse
    policies.push_back(p);
  } else {
    policies.assign(kAll, kAll + 4);
  }

  // The engine never mutates the nominal reactances (ticks only move the
  // loads), so its system gives the zero-knowledge key.
  const attack::HourScoring scoring{options_.daily.effectiveness,
                                    options_.daily.target_delta, probe_root_,
                                    {}};

  Json reply;
  reply.set("ok", Json(true));
  reply.set("op", Json("campaign"));
  if (req.has_id) reply.set("id", Json(req.id));
  reply.set("first_hour", Json((*win)[pairs.front()]->hour));
  reply.set("last_hour", Json((*win)[pairs.back()]->hour));
  reply.set("hours_scored", Json(pairs.size()));
  Json hours_json{Json::Array{}};
  for (const std::size_t i : pairs)
    hours_json.push_back(Json((*win)[i]->hour));
  reply.set("hours", std::move(hours_json));

  const std::uint64_t request_root =
      stats::stream_seed(campaign_root_, req.id);
  Json out_policies{Json::Array{}};
  for (const attack::AttackerPolicy policy : policies) {
    Json cell;
    cell.set("policy", Json(attack::attacker_policy_name(policy)));
    if (policy == attack::AttackerPolicy::kProbe)
      cell.set("probe_budget", Json(req.probes));
    double detection_sum = 0.0;
    double eta_sum = 0.0;
    std::uint64_t probes_used = 0;
    std::uint64_t boundary_replays = 0;
    Json hourly_detection{Json::Array{}};
    Json hourly_eta{Json::Array{}};
    // Substream keyed by (policy, hour), not by evaluation order: a
    // single-policy reply matches that policy's section of the
    // all-policies reply for the same id and window.
    const std::uint64_t policy_root = stats::stream_seed(
        request_root, static_cast<std::uint64_t>(policy));
    const attack::AttackerSpec spec{policy, req.probes, 0};
    for (const std::size_t i : pairs) {
      const HourKeySnapshot& prev = *(*win)[i - 1];
      const HourKeySnapshot& cur = *(*win)[i];
      const attack::HourKeys keys{cur.hour, cur.reactances, cur.z_ref,
                                  prev.reactances};
      stats::Rng rng = stats::make_stream(policy_root, cur.hour);
      const attack::HourScore score =
          attack::score_hour(engine_.system(), spec, keys, scoring, rng);
      detection_sum += score.mean_detection;
      eta_sum += score.eta;
      probes_used += score.probes;
      if (score.replayed) ++boundary_replays;
      hourly_detection.push_back(Json(score.mean_detection));
      hourly_eta.push_back(Json(score.eta));
    }
    const double n = static_cast<double>(pairs.size());
    cell.set("mean_detection", Json(detection_sum / n));
    cell.set("eta", Json(eta_sum / n));
    cell.set("probes_used", Json(probes_used));
    cell.set("boundary_replays", Json(boundary_replays));
    cell.set("hourly_mean_detection", std::move(hourly_detection));
    cell.set("hourly_eta", std::move(hourly_eta));
    obs::add(obs::Work::kCampaignCells);
    out_policies.push_back(std::move(cell));
  }
  reply.set("policies", std::move(out_policies));
  return reply.dump();
}

std::string MtdDaemon::reply_shutdown(const Request& req) {
  request_shutdown();
  Json reply;
  reply.set("ok", Json(true));
  reply.set("op", Json("shutdown"));
  if (req.has_id) reply.set("id", Json(req.id));
  return reply.dump();
}

void MtdDaemon::record_latency(double micros) {
  latency_count_.fetch_add(1, std::memory_order_relaxed);
  latency_sum_us_.fetch_add(micros, std::memory_order_relaxed);
  double prev = latency_max_us_.load(std::memory_order_relaxed);
  while (micros > prev &&
         !latency_max_us_.compare_exchange_weak(prev, micros,
                                                std::memory_order_relaxed)) {
  }
  latency_buckets_[latency_bucket_index(micros)].fetch_add(
      1, std::memory_order_relaxed);
}

}  // namespace mtdgrid::serve
