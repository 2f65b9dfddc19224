// Thread-count invariance and race behavior of the serving daemon —
// registered in MTDGRID_CONCURRENCY_TESTS (ctest `concurrency` label), so
// the TSan CI leg runs every test here. CONTRIBUTING.md "Determinism
// rules for new code" is the contract being enforced.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attack/adaptive.hpp"
#include "attack/campaign.hpp"
#include "core/thread_pool.hpp"
#include "grid/cases.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "serve_test_util.hpp"

namespace mtdgrid::serve {
namespace {

/// The acceptance-criterion test: one request script, two daemons built
/// and served under different global thread counts, byte-identical
/// transcripts (the construction-time hour-0 re-key included).
TEST(ServeDaemonDeterminismTest, TranscriptsAreByteIdenticalAcrossThreads) {
  const std::vector<std::string> script = {
      R"({"op":"status"})",
      R"({"op":"dispatch","id":1})",
      R"({"op":"probe","id":2})",
      R"({"op":"detect","id":3,"method":"analytic"})",
      R"({"op":"detect","id":4,"method":"mc","trials":150})",
      R"({"op":"tick"})",
      R"({"op":"status"})",
      R"({"op":"dispatch","hour":1})",
      R"({"op":"detect","id":5,"hour":0,"method":"mc","trials":100})",
      R"({"op":"campaign","id":6,"probes":4})",
      R"({"op":"metrics"})",
  };
  const auto transcript_at = [&](std::size_t threads) {
    core::ThreadPool::set_global_num_threads(threads);
    const std::unique_ptr<MtdDaemon> daemon = test::make_fast_daemon();
    std::vector<std::string> replies;
    for (const std::string& line : script)
      replies.push_back(daemon->handle_line(line));
    return replies;
  };
  const auto t1 = transcript_at(1);
  const auto t8 = transcript_at(8);
  core::ThreadPool::set_global_num_threads(0);  // restore the default
  ASSERT_EQ(t1.size(), t8.size());
  for (std::size_t i = 0; i < t1.size(); ++i)
    EXPECT_EQ(t1[i], t8[i]) << "request " << script[i];
}

/// A request pinned to a retained hour must return bit-identical replies
/// whether the daemon is quiescent or re-keying ticks are racing it: the
/// tick publishes each hour as one immutable snapshot swap, so a reader
/// never observes a half-applied key change.
TEST(ServeDaemonDeterminismTest, DetectRacingTickMatchesQuiescedRun) {
  const std::string detect_req =
      R"({"op":"detect","id":6,"hour":0,"method":"mc","trials":100})";
  const std::string probe_req = R"({"op":"probe","id":8,"hour":0})";

  // Reference replies from a quiesced daemon (no tick in flight).
  const std::unique_ptr<MtdDaemon> quiesced = test::make_fast_daemon();
  const std::string want_detect = quiesced->handle_line(detect_req);
  const std::string want_probe = quiesced->handle_line(probe_req);

  // Same-seed daemon: fire the same requests from two threads while a
  // third advances the virtual clock twice.
  const std::unique_ptr<MtdDaemon> racing = test::make_fast_daemon();
  std::vector<std::string> got_detect(16), got_probe(16);
  std::thread ticker([&] {
    racing->tick();
    racing->tick();
  });
  std::thread prober([&] {
    for (auto& reply : got_probe) reply = racing->handle_line(probe_req);
  });
  for (auto& reply : got_detect) reply = racing->handle_line(detect_req);
  ticker.join();
  prober.join();

  for (const std::string& reply : got_detect) EXPECT_EQ(reply, want_detect);
  for (const std::string& reply : got_probe) EXPECT_EQ(reply, want_probe);
  EXPECT_EQ(racing->current_hour(), 2u);
}

/// The lock-free read contract, enforced directly: status, probe, and
/// the bdd/analytic detects answer off the atomically published
/// snapshot window WITHOUT touching the exec lock. The test thread
/// holds the daemon's own write lock while issuing reads on the same
/// thread — an implementation that locked the read path would deadlock
/// right here (the ctest TIMEOUT is the backstop).
TEST(ServeDaemonLockFreeReadTest, ReadsAnswerWhileWriteLockIsHeld) {
  const std::unique_ptr<MtdDaemon> daemon = test::make_fast_daemon();
  const std::string want_status = daemon->handle_line(R"({"op":"status"})");
  {
    const MtdDaemon::ExecLock held = daemon->exec_lock();
    const Json status =
        Json::parse(daemon->handle_line(R"({"op":"status"})"));
    EXPECT_TRUE(status.find("ok")->as_bool());
    EXPECT_EQ(status.find("hour")->as_number(), 0.0);
    const Json probe =
        Json::parse(daemon->handle_line(R"({"op":"probe","id":2})"));
    EXPECT_TRUE(probe.find("ok")->as_bool());
    const Json detect = Json::parse(daemon->handle_line(
        R"({"op":"detect","id":3,"method":"analytic"})"));
    EXPECT_TRUE(detect.find("ok")->as_bool());
    const Json metrics =
        Json::parse(daemon->handle_line(R"({"op":"metrics"})"));
    EXPECT_TRUE(metrics.find("ok")->as_bool());
  }
  // With the lock released the write verbs work again.
  const Json tick = Json::parse(daemon->handle_line(R"({"op":"tick"})"));
  EXPECT_TRUE(tick.find("ok")->as_bool());
  EXPECT_EQ(tick.find("hour")->as_number(), 1.0);
}

/// While a long tick holds the write lock on another thread, reads keep
/// answering from the snapshot pinned before the tick: the stale-hour
/// reply carries the pinned "hour" until the tick publishes, and no
/// reader ever blocks behind the writer.
TEST(ServeDaemonLockFreeReadTest, ReadsServePinnedSnapshotDuringTick) {
  const std::unique_ptr<MtdDaemon> daemon = test::make_fast_daemon();
  {
    // Stand in for an in-flight tick: the exec lock is held, hour-0
    // state is still published. Reads must come back (same thread =
    // deadlock would hang) with the pinned hour.
    const MtdDaemon::ExecLock held = daemon->exec_lock();
    const Json status =
        Json::parse(daemon->handle_line(R"({"op":"status"})"));
    EXPECT_EQ(status.find("hour")->as_number(), 0.0);
    const Json pinned = Json::parse(
        daemon->handle_line(R"({"op":"probe","id":4,"hour":0})"));
    EXPECT_EQ(pinned.find("hour")->as_number(), 0.0);
  }
  // Now run a real tick on a second thread and reads from this one until
  // it publishes: every reply is coherent — hour 0 before, hour 1 after,
  // nothing in between.
  std::thread ticker([&] { daemon->tick(); });
  for (;;) {
    const Json status =
        Json::parse(daemon->handle_line(R"({"op":"status"})"));
    const double hour = status.find("hour")->as_number();
    EXPECT_TRUE(hour == 0.0 || hour == 1.0) << "hour " << hour;
    if (hour == 1.0) break;
  }
  ticker.join();
  EXPECT_EQ(daemon->current_hour(), 1u);
}

/// The latency accumulator's max is maintained by a CAS loop over
/// relaxed atomics: hammer it from 8 recorder threads with disjoint
/// value ranges and pin the exact count, max, and per-bucket totals.
/// TSan (the `concurrency` CI leg) checks the loop is race-free.
TEST(ServeDaemonLatencyRaceTest, ConcurrentRecordersKeepExactCountAndMax) {
  const std::unique_ptr<MtdDaemon> daemon = test::make_fast_daemon();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> recorders;
  recorders.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Thread t records 50 + t, 50 + t + 8, ...: every sample lands
        // in le_100us except the global max, planted by thread 7.
        const double sample =
            (t == kThreads - 1 && i == kPerThread - 1)
                ? 5e6
                : 50.0 + static_cast<double>(t + kThreads * i) /
                             static_cast<double>(kThreads * kPerThread);
        daemon->record_latency(sample);
      }
    });
  }
  for (std::thread& r : recorders) r.join();
  const Json reply = Json::parse(
      daemon->handle_line(R"({"op":"metrics","latency":true})"));
  const Json* latency = reply.find("latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->find("count")->as_number(), kThreads * kPerThread);
  EXPECT_EQ(latency->find("max_us")->as_number(), 5e6);
  const Json* buckets = latency->find("buckets");
  EXPECT_EQ(buckets->find("le_100us")->as_number(),
            kThreads * kPerThread - 1);
  EXPECT_EQ(buckets->find("gt_1s")->as_number(), 1.0);
}

/// The tentpole acceptance at the daemon level: the deterministic engine
/// work counters in the default metrics reply are byte-identical across
/// thread counts. (The transcript test above already diffs the metrics
/// reply; this pins the counters individually with names in failures.)
TEST(ServeDaemonDeterminismTest, EngineWorkCountersMatchAcrossThreadCounts) {
  const auto engine_counters = [](std::size_t threads) {
    core::ThreadPool::set_global_num_threads(threads);
    const std::unique_ptr<MtdDaemon> daemon = test::make_fast_daemon();
    daemon->handle_line(R"({"op":"detect","id":1,"method":"mc","trials":80})");
    daemon->handle_line(R"({"op":"tick"})");
    daemon->handle_line(R"({"op":"dispatch"})");
    return daemon->handle_line(R"({"op":"metrics"})");
  };
  const std::string t1 = engine_counters(1);
  const std::string t8 = engine_counters(8);
  core::ThreadPool::set_global_num_threads(0);
  EXPECT_EQ(t1, t8);
}

/// The `campaign` verb and `attack::run_campaign` share one scorer: for
/// every wire policy, each hourly value of a campaign reply equals, bit
/// for bit, `attack::score_hour` on the daemon's retained snapshots with
/// the documented stream (stream_seed(campaign_root, id), policy, hour)
/// and the probe oracle's root. Runs on the shared pool, so the TSan leg
/// covers the scorer's parallel effectiveness evaluation too.
TEST(ServeDaemonCampaignTest, CampaignRepliesComeFromScoreHour) {
  const std::unique_ptr<MtdDaemon> daemon = test::make_fast_daemon();
  daemon->tick();
  daemon->tick();
  const DaemonOptions& options = daemon->options();
  const grid::PowerSystem sys = grid::make_case14();  // nominal reactances
  const attack::HourScoring scoring{
      options.daily.effectiveness, options.daily.target_delta,
      stats::stream_seed(options.seed, attack::kProbeOracleTag)};
  const std::uint64_t request_root = stats::stream_seed(
      stats::stream_seed(options.seed, attack::kCampaignStreamTag), 6);

  const Json reply = Json::parse(
      daemon->handle_line(R"({"op":"campaign","id":6,"probes":4})"));
  ASSERT_TRUE(reply.find("ok")->as_bool());
  const Json::Array& hours = reply.find("hours")->as_array();
  ASSERT_FALSE(hours.empty());
  const Json::Array& policies = reply.find("policies")->as_array();
  ASSERT_EQ(policies.size(), 4u);
  for (const Json& cell : policies) {
    attack::AttackerPolicy policy = attack::AttackerPolicy::kRamp;
    ASSERT_TRUE(attack::parse_attacker_policy(
        cell.find("policy")->as_string(), policy));
    SCOPED_TRACE(attack::attacker_policy_name(policy));
    const attack::AttackerSpec spec{policy, 4, 0};
    const std::uint64_t policy_root = stats::stream_seed(
        request_root, static_cast<std::uint64_t>(policy));
    const Json::Array& detection =
        cell.find("hourly_mean_detection")->as_array();
    const Json::Array& eta = cell.find("hourly_eta")->as_array();
    ASSERT_EQ(detection.size(), hours.size());
    ASSERT_EQ(eta.size(), hours.size());
    double probes = 0.0;
    double replays = 0.0;
    for (std::size_t i = 0; i < hours.size(); ++i) {
      const auto hour = static_cast<std::size_t>(hours[i].as_number());
      const auto cur = daemon->snapshot_at(hour);
      const auto prev = daemon->snapshot_at(hour - 1);
      ASSERT_TRUE(cur && prev && cur->keyed && prev->keyed);
      const attack::HourKeys keys{hour, cur->reactances, cur->z_ref,
                                  prev->reactances};
      stats::Rng rng = stats::make_stream(policy_root, hour);
      const attack::HourScore want =
          attack::score_hour(sys, spec, keys, scoring, rng);
      EXPECT_EQ(detection[i].as_number(), want.mean_detection) << hour;
      EXPECT_EQ(eta[i].as_number(), want.eta) << hour;
      probes += static_cast<double>(want.probes);
      replays += want.replayed ? 1.0 : 0.0;
    }
    EXPECT_EQ(cell.find("probes_used")->as_number(), probes);
    EXPECT_EQ(cell.find("boundary_replays")->as_number(), replays);
  }
}

}  // namespace
}  // namespace mtdgrid::serve
