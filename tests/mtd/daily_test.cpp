#include "mtd/daily.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "grid/cases.hpp"
#include "grid/measurement.hpp"
#include "mtd/spa.hpp"

namespace mtdgrid::mtd {
namespace {

DailySimulationOptions fast_options() {
  DailySimulationOptions opt;
  opt.effectiveness.num_attacks = 120;
  opt.selection.extra_starts = 2;
  opt.selection.search.max_evaluations = 400;
  opt.gamma_grid = {0.05, 0.15, 0.25};
  return opt;
}

TEST(DailyTest, ProducesCompleteFeasibleDay) {
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const grid::DailyLoadTrace trace =
      grid::DailyLoadTrace::nyiso_winter_weekday();
  stats::Rng rng(1);
  const auto records = run_daily_simulation(sys, trace, fast_options(), rng);
  ASSERT_EQ(records.size(), 24u);
  for (const HourlyRecord& r : records) {
    EXPECT_TRUE(r.feasible) << "hour " << r.hour;
    EXPECT_DOUBLE_EQ(r.total_load_mw, trace.total_mw(r.hour));
    EXPECT_GT(r.base_opf_cost, 0.0);
    EXPECT_GE(r.cost_increase_pct, 0.0);
    EXPECT_GT(r.eta_at_target, 0.0);
  }
}

TEST(DailyTest, EachHourStopsOnceEtaReachesNineTenths) {
  // The grid search stops at the first threshold whose eta'(0.9) reaches
  // 0.9, so only an hour keyed at the grid's last entry may fall short.
  // On this day eight hours stop at 0.15, six of them with eta' in
  // [0.9, 0.95): a lower or a higher target moves that count.
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const DailySimulationOptions opt = fast_options();
  stats::Rng rng(1);
  const auto records = run_daily_simulation(
      sys, grid::DailyLoadTrace::nyiso_winter_weekday(), opt, rng);
  int stopped_early = 0;
  for (const HourlyRecord& r : records) {
    ASSERT_TRUE(r.feasible) << "hour " << r.hour;
    if (r.gamma_threshold == opt.gamma_grid.back()) continue;
    ++stopped_early;
    EXPECT_GE(r.eta_at_target, 0.9) << "hour " << r.hour;
  }
  EXPECT_EQ(stopped_early, 8);
}

TEST(DailyTest, NaturalReactanceDriftIsSmall) {
  // gamma(H_t, H_t') must be nearly zero across the day (paper Fig. 11):
  // the warm-started hourly OPF tracks the slowly varying load.
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const grid::DailyLoadTrace trace =
      grid::DailyLoadTrace::nyiso_winter_weekday();
  stats::Rng rng(2);
  const auto records = run_daily_simulation(sys, trace, fast_options(), rng);
  double max_drift = 0.0;
  for (const HourlyRecord& r : records)
    max_drift = std::max(max_drift, r.gamma_ht_htp);
  EXPECT_LT(max_drift, 0.12);
}

TEST(DailyTest, MtdAnglesDominateNaturalDrift) {
  // The deliberate perturbation must rotate the column space much more
  // than the natural load-driven drift does.
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const grid::DailyLoadTrace trace =
      grid::DailyLoadTrace::nyiso_winter_weekday();
  stats::Rng rng(3);
  const auto records = run_daily_simulation(sys, trace, fast_options(), rng);
  double mean_mtd = 0.0, mean_drift = 0.0;
  for (const HourlyRecord& r : records) {
    mean_mtd += r.gamma_htp_hmtd;
    mean_drift += r.gamma_ht_htp;
  }
  EXPECT_GT(mean_mtd / 24.0, 3.0 * (mean_drift / 24.0));
}

TEST(DailyTest, AttackerViewApproximatesDefenderView) {
  // gamma(H_t, H'_t') ~ gamma(H_t', H'_t'): the approximation the paper's
  // Section VI argues from temporal load correlation.
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const grid::DailyLoadTrace trace =
      grid::DailyLoadTrace::nyiso_winter_weekday();
  stats::Rng rng(4);
  const auto records = run_daily_simulation(sys, trace, fast_options(), rng);
  for (const HourlyRecord& r : records) {
    EXPECT_NEAR(r.gamma_ht_hmtd, r.gamma_htp_hmtd, 0.12)
        << "hour " << r.hour;
  }
}

TEST(DailyTest, RejectsEmptyGammaGrid) {
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const grid::DailyLoadTrace trace =
      grid::DailyLoadTrace::nyiso_winter_weekday();
  stats::Rng rng(5);
  DailySimulationOptions opt = fast_options();
  opt.gamma_grid.clear();
  EXPECT_THROW(run_daily_simulation(sys, trace, opt, rng),
               std::invalid_argument);
  EXPECT_THROW(DailyEngine(sys, trace, opt), std::invalid_argument);
}

DailySimulationOptions engine_options() {
  DailySimulationOptions opt;
  opt.effectiveness.num_attacks = 40;
  opt.selection.extra_starts = 1;
  opt.selection.search.max_evaluations = 150;
  opt.base_search_evaluations = 120;
  opt.gamma_grid = {0.05, 0.15};
  return opt;
}

TEST(DailyEngineTest, AdvanceHourReproducesRunDailySimulationBitExact) {
  // The wrapper and 24 explicit advance_hour calls must be the same
  // computation: exact == on every record field and on the rng state
  // afterwards (the engine consumes the caller's draws identically).
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const grid::DailyLoadTrace trace =
      grid::DailyLoadTrace::nyiso_winter_weekday();
  const DailySimulationOptions opt = engine_options();
  stats::Rng rng_wrapper(21), rng_engine(21);
  const auto records = run_daily_simulation(sys, trace, opt, rng_wrapper);
  ASSERT_EQ(records.size(), 24u);

  DailyEngine engine(sys, trace, opt);
  EXPECT_EQ(engine.hours_per_day(), 24u);
  for (std::size_t h = 0; h < 24; ++h) {
    ASSERT_EQ(engine.next_hour(), h);
    const DailyHourOutcome out = engine.advance_hour(rng_engine);
    const HourlyRecord& want = records[h];
    const HourlyRecord& got = out.record;
    EXPECT_EQ(got.hour, want.hour);
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.total_load_mw, want.total_load_mw);
    EXPECT_EQ(got.base_opf_cost, want.base_opf_cost);
    EXPECT_EQ(got.mtd_opf_cost, want.mtd_opf_cost);
    EXPECT_EQ(got.cost_increase_pct, want.cost_increase_pct);
    EXPECT_EQ(got.gamma_threshold, want.gamma_threshold);
    EXPECT_EQ(got.gamma_ht_htp, want.gamma_ht_htp);
    EXPECT_EQ(got.gamma_ht_hmtd, want.gamma_ht_hmtd);
    EXPECT_EQ(got.gamma_htp_hmtd, want.gamma_htp_hmtd);
    EXPECT_EQ(got.eta_at_target, want.eta_at_target);

    // The outcome carries the operational state the serving layer needs.
    if (got.feasible) {
      const std::size_t L = sys.num_branches();
      ASSERT_EQ(out.reactances.size(), L);
      EXPECT_TRUE(sys.reactances_within_limits(out.reactances));
      ASSERT_EQ(out.z_ref.size(), 2 * L + sys.num_buses());
      EXPECT_TRUE(out.dispatch.feasible);
    }
  }
  // Both generators must sit at the same stream position afterwards.
  EXPECT_EQ(rng_wrapper.next_u64(), rng_engine.next_u64());

  // The virtual clock keeps going past midnight: hour 24 replays trace
  // hour 0 with the warm-start state carried across the day boundary.
  const DailyHourOutcome wrapped = engine.advance_hour(rng_engine);
  EXPECT_EQ(wrapped.record.hour, 24u);
  EXPECT_EQ(wrapped.record.total_load_mw, trace.total_mw(0));
  EXPECT_TRUE(wrapped.record.feasible);
}

TEST(DailyEngineTest, RecordAnglesMatchDenseSpa) {
  // The record's three angles come from SpaEvaluators referenced at the
  // attacker's key and the hour's no-MTD key; the dense spa() of the
  // three keys' matrices is the oracle.
  for (const char* name : {"case14", "case57"}) {
    SCOPED_TRACE(name);
    const grid::PowerSystem sys = std::string(name) == "case14"
                                      ? grid::make_case14()
                                      : grid::make_case57();
    // The NYISO shape scaled from its 14-bus fit to the case's load.
    const grid::DailyLoadTrace shape =
        grid::DailyLoadTrace::nyiso_winter_weekday();
    std::vector<double> totals(shape.size());
    for (std::size_t h = 0; h < shape.size(); ++h)
      totals[h] = shape.total_mw(h) * sys.total_load_mw() / 259.0;
    DailyEngine engine(sys, grid::DailyLoadTrace(std::move(totals)),
                       engine_options());
    stats::Rng rng(31);
    int checked = 0;
    for (int step = 0; step < 3; ++step) {
      const std::size_t t = engine.next_hour() % engine.hours_per_day();
      const DailyHourOutcome out = engine.advance_hour(rng);
      if (!out.record.feasible) continue;
      const std::size_t prev = (t + engine.hours_per_day() - 1) %
                               engine.hours_per_day();
      const linalg::Matrix h_attacker =
          grid::measurement_matrix(sys, engine.baseline_key(prev));
      const linalg::Matrix h_now =
          grid::measurement_matrix(sys, engine.baseline_key(t));
      const linalg::Matrix h_mtd =
          grid::measurement_matrix(sys, out.reactances);
      EXPECT_NEAR(out.record.gamma_ht_htp, spa(h_attacker, h_now), 1e-9);
      EXPECT_NEAR(out.record.gamma_ht_hmtd, spa(h_attacker, h_mtd), 1e-9);
      EXPECT_NEAR(out.record.gamma_htp_hmtd, spa(h_now, h_mtd), 1e-9);
      ++checked;
    }
    EXPECT_GT(checked, 0);
  }
}

}  // namespace
}  // namespace mtdgrid::mtd
