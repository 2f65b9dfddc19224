// Infeasible-hour regression: when the defender cannot key an hour (its
// pass-1 baseline OPF is infeasible), a schedule holding an earlier key
// must re-dispatch at THAT hour's loads, not at the last keyed hour's.
// Hour 3 of the trace is scaled 20x so no dispatch can serve it: the
// hour must go unscored, and hour 4 (also unkeyed, since its attacker
// knowledge is hour 3's baseline) is scored at its own loads.

#include "attack/campaign.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "grid/cases.hpp"
#include "grid/load_trace.hpp"
#include "mtd/daily.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::attack {
namespace {

constexpr std::size_t kInfeasibleHour = 3;

grid::DailyLoadTrace overloaded_trace() {
  const grid::DailyLoadTrace base =
      grid::DailyLoadTrace::nyiso_winter_weekday();
  std::vector<double> totals(base.size());
  for (std::size_t h = 0; h < base.size(); ++h) totals[h] = base.total_mw(h);
  totals[kInfeasibleHour] *= 20.0;
  return grid::DailyLoadTrace(std::move(totals));
}

CampaignOptions options() {
  CampaignOptions opt;
  opt.seed = 11;
  opt.horizon_hours = 6;
  opt.rekey_every = {2};
  opt.attackers = {{AttackerPolicy::kZeroKnowledge, 0, 0}};
  opt.daily.gamma_grid = {0.05, 0.15};
  opt.daily.base_search_evaluations = 120;
  opt.daily.effectiveness.num_attacks = 40;
  opt.daily.selection.extra_starts = 1;
  opt.daily.selection.search.max_evaluations = 150;
  return opt;
}

TEST(CampaignInfeasibleHourTest, UnkeyedHoursAreDispatchedAtTheirOwnLoads) {
  const CampaignFrontier frontier =
      run_campaign(grid::make_case14(), overloaded_trace(), options());
  ASSERT_EQ(frontier.cells.size(), 1u);
  // Hours 2 (re-key), 4 and 5 (held key, own loads); hour 3 cannot be
  // dispatched at 20x load and hours 0-1 precede the first re-key.
  EXPECT_EQ(frontier.cells[0].hours_scored, 3u);
}

TEST(CampaignInfeasibleHourTest, EngineAppliesLoadsOfUnkeyedHours) {
  const grid::DailyLoadTrace trace = overloaded_trace();
  mtd::DailyEngine engine(grid::make_case14(), trace, options().daily);
  stats::Rng rng(11);
  for (std::size_t h = 0; h <= kInfeasibleHour + 1; ++h) {
    const mtd::DailyHourOutcome out = engine.advance_hour(rng);
    if (h >= kInfeasibleHour) EXPECT_FALSE(out.record.feasible) << h;
    EXPECT_NEAR(engine.system().total_load_mw(), trace.total_mw(h),
                1e-9 * trace.total_mw(h))
        << "hour " << h;
  }
}

}  // namespace
}  // namespace mtdgrid::attack
