// The serving workload: open-loop reads over loopback to a 2-shard case57
// fleet (serve_read).

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "estimation/detection.hpp"
#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "loadgen.hpp"
#include "obs/scope.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/sharded.hpp"
#include "stats.hpp"
#include "stats/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mtdgrid;
using serve::Json;

// The fleet: the reduced mtd_loadgen budgets on two case57 shards. Its
// seed is fixed — it is the deployed key stream, not traffic — so every
// run keys the same hours; the workload seed drives the traffic.
constexpr std::uint64_t kFleetSeed = 7;
constexpr std::size_t kShards = 2;
constexpr std::size_t kHistoryHours = 4;
constexpr std::size_t kSetupTicks = 3;

// The read stream: two connections at a fixed offered rate (about half
// the capacity the ladder finds on a 4-core x86 host), cycling a pool of
// distinct requests.
constexpr std::size_t kReadConnections = 2;
constexpr double kReadRate = 3500.0;
constexpr std::size_t kPoolSize = 256;
// Reads for kWarmupS right after set-up are checked but not timed: the
// first second on fresh connections runs several times slower.
constexpr double kWarmupS = 1.0;
// Capacity ladder: rates 500 * 1.06^k, k < 64 (500 to ~19,700 per second),
// searched by bisection; a rung passes when p99 <= 20 ms without backlog.
constexpr double kP99LimitUs = 20000.0;
constexpr double kLadderBase = 500.0;
constexpr double kLadderRatio = 1.06;
constexpr std::size_t kLadderRungs = 64;

serve::ShardedOptions fleet_options() {
  serve::ShardedOptions o;
  o.cases.assign(kShards, "case57");
  o.seed = kFleetSeed;
  o.history_hours = kHistoryHours;
  o.daily.base_search_evaluations = 120;
  o.daily.effectiveness.num_attacks = 40;
  o.daily.selection.extra_starts = 1;
  o.daily.selection.search.max_evaluations = 150;
  return o;
}

// Opens one span per handled line, named by verb, so a traced run sees
// handle_line time per verb and the engine spans nest inside it.
class SpannedService : public serve::LineService {
 public:
  explicit SpannedService(serve::LineService& inner) : inner_(inner) {}

  std::string handle_line(const std::string& line) override {
    obs::Span span(span_name(line), "serve");
    return inner_.handle_line(line);
  }

  bool shutdown_requested() const override {
    return inner_.shutdown_requested();
  }

 private:
  // Every line the benchmark sends starts with {"op":"<verb>".
  static const char* span_name(const std::string& line) {
    const auto is = [&](const char* verb) {
      return line.size() > 7 && line.compare(7, std::strlen(verb), verb) == 0;
    };
    if (is("detect")) return "serve.handle_line.detect";
    if (is("probe")) return "serve.handle_line.probe";
    if (is("status")) return "serve.handle_line.status";
    return "serve.handle_line.other";
  }

  serve::LineService& inner_;
};

enum class ReadOp { kDetect, kDetectAnalytic, kProbe, kStatus };

// One distinct read request.
struct ReadTemplate {
  ReadOp op = ReadOp::kDetect;
  std::size_t shard = 0;
  std::size_t hour = 0;  // one of the retained hours 0..kHistoryHours-1
  std::uint64_t id = 0;
  linalg::Vector z_probe;  // detect: an attack-free probe sample
  linalg::Vector attack;   // detect: FDI a = H_nominal c, or empty
  double attack_sigmas = 0.0;  // ||r_a|| the FDI is scaled to at the key
  bool is_detect() const {
    return op == ReadOp::kDetect || op == ReadOp::kDetectAnalytic;
  }
};

// The detect vector of `t` at its hour's key: the probe sample plus the
// FDI scaled so its attack residual is `attack_sigmas` noise sigmas.
linalg::Vector detect_z(const ReadTemplate& t, const serve::HourKeySnapshot& key) {
  linalg::Vector z = t.z_probe;
  if (t.attack.size() != 0) {
    linalg::Vector a = t.attack;
    a *= t.attack_sigmas / key.estimator->attack_residual_norm(a);
    z += a;
  }
  return z;
}

std::string json_of(const linalg::Vector& v) {
  Json out{Json::Array{}};
  for (std::size_t j = 0; j < v.size(); ++j) out.push_back(Json(v[j]));
  return out.dump();
}

std::string line_for(const ReadTemplate& t, const linalg::Vector& z) {
  const char* op = t.op == ReadOp::kProbe    ? "probe"
                   : t.op == ReadOp::kStatus ? "status"
                                             : "detect";
  std::string s = std::string("{\"op\":\"") + op + "\",\"id\":" +
                  std::to_string(t.id) + ",\"shard\":" +
                  std::to_string(t.shard) + ",\"hour\":" +
                  std::to_string(t.hour);
  if (t.op == ReadOp::kDetectAnalytic) s += ",\"method\":\"analytic\"";
  if (t.is_detect()) s += ",\"z\":" + json_of(z);
  return s + "}";
}

// The pool's request lines with the reference reply of each, computed
// serially in-process before any of them is sent. Status replies end in
// request counters, so their reference is the reply up to the counters.
struct RequestTable {
  std::vector<std::string> lines;
  std::vector<std::string> expected;
  std::vector<linalg::Vector> z;  // detect vectors (empty for other ops)
};

std::shared_ptr<RequestTable> build_table(serve::ShardedDaemon& fleet,
                                          const std::vector<ReadTemplate>& pool,
                                          Report& report) {
  auto table = std::make_shared<RequestTable>();
  for (const ReadTemplate& t : pool) {
    linalg::Vector z;
    if (t.is_detect()) {
      const auto key = fleet.shard(t.shard).snapshot_at(t.hour);
      if (!key || !key->keyed)
        throw std::runtime_error("hour " + std::to_string(t.hour) +
                                 " is not keyed after set-up");
      z = detect_z(t, *key);
    }
    std::string line = line_for(t, z);
    std::string reply = fleet.handle_line(line);
    if (reply.rfind("{\"ok\":true", 0) != 0)
      report.fail("reference request failed: " + reply);
    if (t.op == ReadOp::kStatus) reply.resize(reply.find(",\"retained\":"));
    table->lines.push_back(std::move(line));
    table->expected.push_back(std::move(reply));
    table->z.push_back(std::move(z));
  }
  return table;
}

// Ties the reference detect replies to the estimation layer: the residual
// and analytic detection probability in each reply must equal a direct
// StateEstimator evaluation at the pinned hour's key.
void check_against_estimator(serve::ShardedDaemon& fleet,
                             const std::vector<ReadTemplate>& pool,
                             const RequestTable& table, Report& report) {
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const ReadTemplate& t = pool[i];
    if (!t.is_detect()) continue;
    const auto key = fleet.shard(t.shard).snapshot_at(t.hour);
    const Json reply = Json::parse(table.expected[i]);
    if (reply.find("residual")->as_number() !=
        key->estimator->normalized_residual_norm(table.z[i]))
      report.fail("detect residual differs from StateEstimator");
    if (t.op == ReadOp::kDetectAnalytic &&
        reply.find("p_detect")->as_number() !=
            estimation::analytic_detection_probability(
                *key->estimator, *key->bdd, table.z[i] - key->z_ref))
      report.fail("analytic p_detect differs from the estimation layer");
  }
}

linalg::Vector probe_z(serve::ShardedDaemon& fleet, std::size_t shard,
                       std::size_t hour, std::uint64_t id) {
  const Json reply = Json::parse(fleet.handle_line(
      "{\"op\":\"probe\",\"id\":" + std::to_string(id) + ",\"shard\":" +
      std::to_string(shard) + ",\"hour\":" + std::to_string(hour) + "}"));
  const Json* z = reply.find("z");
  if (z == nullptr) throw std::runtime_error("probe failed during set-up");
  std::vector<double> values;
  for (const Json& v : z->as_array()) values.push_back(v.as_number());
  return linalg::Vector(std::move(values));
}

// The seed-derived request pool: 3/4 detect (a third of those analytic),
// 3/16 probe, 1/16 status, over both shards and the retained hours. Half
// of the detect vectors are attack-free probe samples, half add a
// zero-knowledge FDI a = H_nominal c to one, scaled at the pinned key to
// 2-8 noise sigmas of attack residual: near the detector's threshold,
// where detection is in doubt. The noncentral chi-square behind the
// analytic method costs time growing with that residual, so the targets
// are stratified over the range to keep the pool's work alike across
// seeds.
std::vector<ReadTemplate> build_pool(serve::ShardedDaemon& fleet,
                                     std::uint64_t seed) {
  stats::Rng rng(stats::stream_seed(seed, 0x72656164ULL));  // "read"
  const linalg::Matrix h = grid::measurement_matrix(io::load_case("case57"));
  std::vector<ReadTemplate> pool(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    ReadTemplate& t = pool[i];
    t.op = i < 128   ? ReadOp::kDetect
           : i < 192 ? ReadOp::kDetectAnalytic
           : i < 240 ? ReadOp::kProbe
                     : ReadOp::kStatus;
    t.shard = rng.uniform_index(kShards);
    t.hour = rng.uniform_index(kHistoryHours);
    t.id = rng.uniform_index(1000000);
    if (!t.is_detect()) continue;
    t.z_probe = probe_z(fleet, t.shard, t.hour, 1000000 + i);
    if (i % 2 == 1) {
      linalg::Vector c(h.cols());
      for (std::size_t j = 0; j < c.size(); ++j) c[j] = rng.gaussian(0.0, 0.02);
      t.attack = h * c;
      t.attack_sigmas = 2.0 + 6.0 * (i / 2 % 32 + rng.uniform()) / 32.0;
    }
  }
  for (std::size_t i = kPoolSize - 1; i > 0; --i)
    std::swap(pool[i], pool[rng.uniform_index(i + 1)]);
  return pool;
}

// Damages one detect reference so every reply it is compared with fails.
void corrupt(RequestTable& table, const std::vector<ReadTemplate>& pool) {
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].op != ReadOp::kDetect) continue;
    std::string& ref = table.expected[i];
    ref[ref.size() - 2] ^= 1;
    return;
  }
}

void account(Report& report, const PhaseResult& phase) {
  report.attempt(phase.sent);
  report.fail(phase.first_failure, phase.failed);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

// Read latency of a phase: the q-percentile of each 0.5 s window of the
// schedule, interquartile mean over the windows.
double read_latency_us(const PhaseResult& r, double q) {
  return windowed_percentile(r.latency_us, r.due_s, 0.5, q, 100);
}

// Direct timings of the read path's public calls, outside any load.
void time_read_path(serve::ShardedDaemon& fleet,
                    const std::vector<ReadTemplate>& pool,
                    const RequestTable& table, LayerInputs& in) {
  volatile double sink = 0.0;
  double parse_us = 0.0, residual_us = 0.0, analytic_us = 0.0;
  std::size_t parses = 0, residuals = 0, analytics = 0;
  for (int pass = 0; pass < 20; ++pass) {
    for (const std::string& line : table.lines) {
      const auto t0 = Clock::now();
      const serve::ParseOutcome outcome = serve::parse_request(line);
      parse_us += seconds_between(t0, Clock::now()) * 1e6;
      sink = sink + static_cast<double>(outcome.index());
      ++parses;
    }
  }
  for (int pass = 0; pass < 5; ++pass) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const ReadTemplate& t = pool[i];
      if (!t.is_detect()) continue;
      const auto key = fleet.shard(t.shard).snapshot_at(t.hour);
      auto t0 = Clock::now();
      sink = sink + key->estimator->normalized_residual_norm(table.z[i]);
      residual_us += seconds_between(t0, Clock::now()) * 1e6;
      ++residuals;
      if (t.op != ReadOp::kDetectAnalytic) continue;
      const linalg::Vector a = table.z[i] - key->z_ref;
      t0 = Clock::now();
      sink = sink + estimation::analytic_detection_probability(
                        *key->estimator, *key->bdd, a);
      analytic_us += seconds_between(t0, Clock::now()) * 1e6;
      ++analytics;
    }
  }
  in.direct["serve.parse_request_us"] = parse_us / parses;
  in.direct["estimation.residual_us"] = residual_us / residuals;
  in.direct["estimation.analytic_pdetect_us"] = analytic_us / analytics;
}

// handle_line time of the read verbs, mean over every traced read.
double read_handle_mean_us(const std::map<std::string, SpanTotals>& spans) {
  double total = 0.0;
  std::uint64_t count = 0;
  for (const char* name : {"serve.handle_line.detect", "serve.handle_line.probe",
                           "serve.handle_line.status"}) {
    const auto it = spans.find(name);
    if (it == spans.end()) continue;
    total += it->second.total_us;
    count += it->second.count;
  }
  return count ? total / count : 0.0;
}

void log_phase(const char* what, double rate, const PhaseResult& r) {
  std::fprintf(stderr,
               "perfbench: %s at %.0f/s: %llu sent, p50 %.1f us, p99 %.1f us, "
               "lag p99 %.1f us, backlog max %zu (late %zu), %llu failed\n",
               what, rate, static_cast<unsigned long long>(r.sent),
               percentile(r.latency_us, 0.5), percentile(r.latency_us, 0.99),
               percentile(r.lag_us, 0.99), r.backlog_max, r.backlog_late_max,
               static_cast<unsigned long long>(r.failed));
}

}  // namespace

void run_serve_read(const Options& opt, Report& report) {
  const auto t0 = Clock::now();
  serve::ShardedDaemon fleet(fleet_options());
  for (std::size_t k = 0; k < kSetupTicks; ++k) fleet.tick_all();
  const std::vector<ReadTemplate> pool = build_pool(fleet, opt.seed);
  const auto table = build_table(fleet, pool, report);
  check_against_estimator(fleet, pool, *table, report);
  if (opt.corrupt_reference) corrupt(*table, pool);
  SpannedService front(fleet);
  serve::SocketServer server(front, 0);
  const double setup_s = seconds_between(t0, Clock::now());

  const std::uint16_t port = server.port();
  const auto next = [&](std::uint64_t n) {
    const std::size_t i = n % pool.size();
    return ReadRequest{
        &table->lines[i], &table->expected[i],
        pool[i].op == ReadOp::kStatus ? Expect::kPrefix : Expect::kExact,
        table};
  };
  account(report, run_open_loop(port, kReadConnections, kReadRate, kWarmupS, next));

  if (opt.trace) {
    const PhaseResult untraced =
        run_open_loop(port, kReadConnections, kReadRate, opt.seconds / 2, next);
    account(report, untraced);
    start_tracing();
    const obs::WorkSnapshot w0 = fleet.aggregate_work();
    const double cpu0 = cpu_seconds();
    const auto wall0 = Clock::now();
    const PhaseResult traced =
        run_open_loop(port, kReadConnections, kReadRate, opt.seconds / 2, next);
    const double wall_s = seconds_between(wall0, Clock::now());
    const double cpu_s = cpu_seconds() - cpu0;
    LayerInputs in;
    in.work = work_delta(w0, fleet.aggregate_work());
    const auto events = stop_tracing();
    account(report, traced);
    log_phase("traced reads", kReadRate, traced);
    in.spans = span_totals(events);
    in.units = static_cast<double>(traced.sent);
    const double untraced_p50 = read_latency_us(untraced, 0.5);
    in.direct["serve.transport_us"] =
        mean(traced.round_trip_us) - read_handle_mean_us(in.spans);
    in.direct["core.cpu_util"] =
        cpu_s / (wall_s * std::thread::hardware_concurrency());
    in.direct["loadgen.read_p90_us"] = read_latency_us(traced, 0.9);
    in.direct["loadgen.read_p99_us"] = read_latency_us(traced, 0.99);
    in.direct["loadgen.lag_p99_us"] = percentile(traced.lag_us, 0.99);
    in.direct["loadgen.backlog_max"] = static_cast<double>(traced.backlog_max);
    in.direct["trace.overhead_pct"] =
        100.0 * (read_latency_us(traced, 0.5) - untraced_p50) / untraced_p50;
    time_read_path(fleet, pool, *table, in);
    set_layer_metrics(report, in);
    write_trace_outputs(opt, events, in.spans);
    return;
  }

  const PhaseResult fixed =
      run_open_loop(port, kReadConnections, kReadRate, opt.seconds * 0.6, next);
  account(report, fixed);
  log_phase("reads", kReadRate, fixed);

  const std::vector<double> rates =
      rate_ladder(kLadderBase, kLadderRatio, kLadderRungs);
  // A failed rung is run once more before it counts as failed: a host
  // scheduling stall of a few ms near capacity can sink one attempt, and
  // bisection never revisits the rungs above a failure.
  std::size_t probes = 0;
  for (std::size_t n = rates.size(); n > 0; n /= 2) ++probes;
  const double rung_s = opt.seconds * 0.4 / (1.5 * static_cast<double>(probes));
  std::vector<double> achieved(rates.size(), 0.0);
  const long best = highest_passing_rung(rates.size(), [&](std::size_t k) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      const PhaseResult r =
          run_open_loop(port, kReadConnections, rates[k], rung_s, next);
      account(report, r);
      RungObservation rung;
      rung.rate = rates[k];
      rung.p99_us = percentile(r.latency_us, 0.99);
      rung.failed = r.failed;
      rung.backlog_late_max = r.backlog_late_max;
      const bool ok = rung_passes(rung, kP99LimitUs, kReadConnections);
      log_phase(ok ? "rung passed" : "rung failed", rates[k], r);
      if (ok) {
        achieved[k] = r.latency_us.size() / r.elapsed_s;
        return true;
      }
    }
    return false;
  });

  report.set("setup_s", setup_s, "s");
  report.set("p50_ms", read_latency_us(fixed, 0.5) / 1e3, "ms");
  report.set("throughput_per_s", best >= 0 ? achieved[best] : 0.0, "1/s");
}

}  // namespace perfbench
