// Campaign determinism (ISSUE 10 acceptance): the knowledge frontier —
// including its serialized JSON and the deterministic work counters — is
// a BIT-IDENTICAL pure function of (seed, configuration) at thread
// counts 1, 2, and 8. Exact == on doubles and bytes on purpose:
// "close enough" would hide reduction-ordering bugs.

#include "attack/campaign.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "grid/cases.hpp"
#include "grid/load_trace.hpp"
#include "io/case_registry.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "serve/daemon.hpp"

namespace mtdgrid::attack {
namespace {

const std::array<std::size_t, 3> kThreadCounts = {1, 2, 8};

CampaignOptions fast_options() {
  CampaignOptions options;
  options.seed = 11;
  options.horizon_hours = 4;
  options.rekey_every = {1, 2};
  options.daily.gamma_grid = {0.05, 0.15};
  options.daily.base_search_evaluations = 120;
  options.daily.effectiveness.num_attacks = 40;
  options.daily.selection.extra_starts = 1;
  options.daily.selection.search.max_evaluations = 150;
  return options;
}

/// One campaign run under its own metrics registry: the serialized
/// frontier plus the deterministic work counters it accumulated.
struct CampaignRun {
  std::string frontier_json;
  std::vector<std::uint64_t> work;  // deterministic counters only
};

CampaignRun run_once() {
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scope(&registry);
  const CampaignFrontier frontier =
      run_campaign(grid::make_case14(),
                   grid::DailyLoadTrace::nyiso_winter_weekday(),
                   fast_options());
  CampaignRun run;
  run.frontier_json = to_json(frontier);
  const obs::WorkSnapshot work = registry.work_snapshot();
  for (std::size_t i = 0; i < obs::kWorkCount; ++i)
    if (obs::work_info(static_cast<obs::Work>(i)).deterministic)
      run.work.push_back(work[i]);
  return run;
}

TEST(CampaignDeterminismTest, FrontierAndCountersBitIdenticalAcrossThreads) {
  std::vector<CampaignRun> runs;
  for (const std::size_t threads : kThreadCounts) {
    core::ThreadPool::set_global_num_threads(threads);
    runs.push_back(run_once());
  }
  core::ThreadPool::set_global_num_threads(0);  // restore the default

  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].frontier_json, runs[0].frontier_json)
        << "threads " << kThreadCounts[i];
    EXPECT_EQ(runs[i].work, runs[0].work) << "threads " << kThreadCounts[i];
  }

  // Sanity on the frontier itself: both schedules times the default
  // six-attacker panel, probes and replays actually counted.
  const CampaignFrontier frontier =
      run_campaign(grid::make_case14(),
                   grid::DailyLoadTrace::nyiso_winter_weekday(),
                   fast_options());
  ASSERT_EQ(frontier.cells.size(), 12u);
  std::uint64_t probes = 0, replays = 0;
  for (const CampaignCell& cell : frontier.cells) {
    EXPECT_GT(cell.hours_scored, 0u);
    probes += cell.probes_used;
    replays += cell.boundary_replays;
  }
  EXPECT_GT(probes, 0u);
  EXPECT_GT(replays, 0u);
}

TEST(CampaignDeterminismTest, RepeatedRunsShareBytes) {
  // Two runs in the same process (same thread count) are byte-identical:
  // no hidden global state leaks into the frontier.
  const CampaignRun a = run_once();
  const CampaignRun b = run_once();
  EXPECT_EQ(a.frontier_json, b.frontier_json);
  EXPECT_EQ(a.work, b.work);
}

TEST(CampaignDeterminismTest, SchedulesShareOneDefenderEngine) {
  // Every schedule reads the same hourly keys, so a three-schedule
  // campaign advances the defender exactly once per horizon hour.
  CampaignOptions options = fast_options();
  options.rekey_every = {1, 2, 3};
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scope(&registry);
  run_campaign(grid::make_case14(),
               grid::DailyLoadTrace::nyiso_winter_weekday(), options);
  EXPECT_EQ(registry.value(obs::Work::kEngineHours), options.horizon_hours);
}

TEST(CampaignDeterminismTest, SharedEngineLeaksNoStateBetweenSchedules) {
  // The rekey_every = 1 cells of a {1, 2} campaign (cell indices 0-5)
  // serialize byte-equal to a {1}-only campaign's.
  CampaignOptions only_one = fast_options();
  only_one.rekey_every = {1};
  const grid::DailyLoadTrace trace =
      grid::DailyLoadTrace::nyiso_winter_weekday();
  CampaignFrontier both =
      run_campaign(grid::make_case14(), trace, fast_options());
  const CampaignFrontier alone =
      run_campaign(grid::make_case14(), trace, only_one);
  ASSERT_EQ(alone.cells.size(), 6u);
  ASSERT_EQ(both.cells.size(), 12u);
  both.cells.resize(alone.cells.size());
  EXPECT_EQ(to_json(both), to_json(alone));
}

TEST(CampaignDeterminismTest, NameOverloadFacesTheDaemonDefaultTrace) {
  // A campaign and a daemon on the same case face the same defender: the
  // case-name overload replays serve::default_daemon_trace.
  CampaignFrontier by_name = run_campaign("case14", fast_options());
  const grid::PowerSystem sys = io::load_case("case14");
  CampaignFrontier explicit_trace =
      run_campaign(sys, serve::default_daemon_trace(sys), fast_options());
  // case14.m names itself "ieee14"; only the name overload reports the
  // registry name.
  by_name.case_name = explicit_trace.case_name = "case14";
  ASSERT_EQ(by_name.cells.size(), 12u);
  EXPECT_EQ(to_json(by_name), to_json(explicit_trace));
}

}  // namespace
}  // namespace mtdgrid::attack
