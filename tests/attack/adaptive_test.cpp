// Property tests for the attacker-side probe machinery (ISSUE 10): the
// probe oracle matches the daemon's probe verb sample for sample, the key
// estimator converges to the defender's keyed subspace as the probe
// budget grows, and the estimate goes stale the moment the defender
// re-keys.

#include "attack/adaptive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "grid/cases.hpp"
#include "grid/measurement.hpp"
#include "mtd/spa.hpp"
#include "opf/dc_opf.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::attack {
namespace {

/// A keyed operating point: the defender at reactances `x` (every D-FACTS
/// branch scaled by `factor`, clamped to the device limits) serving the
/// case's nominal loads.
struct KeyedPoint {
  linalg::Vector x;
  linalg::Matrix h;
  linalg::Vector z_ref;
};

KeyedPoint keyed_point(const grid::PowerSystem& sys, double factor) {
  KeyedPoint p;
  p.x = sys.reactances();
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  for (const std::size_t l : sys.dfacts_branches())
    p.x[l] = std::clamp(p.x[l] * factor, lo[l], hi[l]);
  p.h = grid::measurement_matrix(sys, p.x);
  const opf::DispatchResult d = opf::solve_dc_opf(sys, p.x);
  EXPECT_TRUE(d.feasible);
  p.z_ref = grid::noiseless_measurements(sys, p.x, d.theta_reduced);
  return p;
}

TEST(AdaptiveAttackTest, ProbeMeasurementMatchesDaemonProbeVerb) {
  // The campaign's probe-based attacker must observe *exactly* the
  // samples a client probing the serving daemon would receive: same tag,
  // same substream, same formula.
  serve::DaemonOptions options;
  options.seed = 11;
  options.daily.gamma_grid = {0.05, 0.15};
  options.daily.base_search_evaluations = 120;
  options.daily.effectiveness.num_attacks = 40;
  options.daily.selection.extra_starts = 1;
  options.daily.selection.search.max_evaluations = 150;
  serve::MtdDaemon daemon(grid::make_case14(),
                          grid::DailyLoadTrace::nyiso_winter_weekday(),
                          options);
  const auto snap = daemon.current_snapshot();
  ASSERT_TRUE(snap->keyed);

  const std::uint64_t probe_root =
      stats::stream_seed(options.seed, kProbeOracleTag);
  const linalg::Vector local = probe_measurement(
      snap->z_ref, options.daily.effectiveness.sigma_mw, probe_root,
      snap->hour, 42);

  const serve::Json reply = serve::Json::parse(
      daemon.handle_line(R"({"op":"probe","id":42})"));
  ASSERT_TRUE(reply.find("ok")->as_bool());
  const serve::Json::Array& wire = reply.find("z")->as_array();
  ASSERT_EQ(wire.size(), local.size());
  for (std::size_t i = 0; i < local.size(); ++i)
    EXPECT_EQ(wire[i].as_number(), local[i]);  // bit-identical
}

TEST(AdaptiveAttackTest, NoiselessProbeRecoversTheKeyExactly) {
  // With sigma = 0 one probe pins the flows exactly, so every D-FACTS
  // branch carrying measurable flow is identified to round-off.
  const grid::PowerSystem sys = grid::make_case14();
  const KeyedPoint key = keyed_point(sys, 1.25);
  const KeyEstimate est =
      probe_and_estimate_key(sys, key.z_ref, 0.0, 123, 0, 1);
  EXPECT_EQ(est.probes_used, 1u);
  EXPECT_GT(est.identified_branches, 0u);
  for (const std::size_t l : sys.dfacts_branches())
    EXPECT_NEAR(est.reactances[l], key.x[l], 1e-6 * key.x[l]) << l;
  EXPECT_LT(mtd::spa(grid::measurement_matrix(sys, est.reactances), key.h),
            1e-6);
}

TEST(AdaptiveAttackTest, EstimateConvergesToKeyedSubspaceWithBudget) {
  // Under realistic probe noise the estimated subspace closes in on the
  // keyed one as the budget grows (noise on the mean flows shrinks as
  // 1/sqrt(B)), on both benchmark cases of the paper.
  for (const grid::PowerSystem& sys :
       {grid::make_case14(), grid::make_case57()}) {
    const KeyedPoint key = keyed_point(sys, 1.3);
    const double gamma_nominal =
        mtd::spa(grid::measurement_matrix(sys), key.h);
    const double sigma = 2.0;  // harsh noise so the budget visibly matters
    double prev_gamma = 1e9;
    for (const int budget : {1, 16, 256}) {
      const KeyEstimate est =
          probe_and_estimate_key(sys, key.z_ref, sigma, 7, 0, budget);
      const double gamma =
          mtd::spa(grid::measurement_matrix(sys, est.reactances), key.h);
      EXPECT_LT(gamma, prev_gamma + 1e-12)
          << sys.name() << " budget " << budget;
      prev_gamma = gamma;
    }
    // The big-budget estimate beats zero knowledge by a wide margin
    // (observed ~0.45x on case14, ~0.1x on case57 at these knobs).
    EXPECT_LT(prev_gamma, 0.5 * gamma_nominal) << sys.name();
  }
}

TEST(AdaptiveAttackTest, EstimateGoesStaleAcrossRekeyingBoundary) {
  // An estimate of key A aligns with A, not with the key B the defender
  // re-keys to: probing buys current knowledge only until the boundary.
  const grid::PowerSystem sys = grid::make_case14();
  const KeyedPoint key_a = keyed_point(sys, 1.3);
  const KeyedPoint key_b = keyed_point(sys, 0.75);
  const KeyEstimate est =
      probe_and_estimate_key(sys, key_a.z_ref, 0.05, 99, 0, 8);
  const linalg::Matrix h_est = grid::measurement_matrix(sys, est.reactances);
  const double gamma_to_a = mtd::spa(h_est, key_a.h);
  const double gamma_to_b = mtd::spa(h_est, key_b.h);
  EXPECT_LT(gamma_to_a, 5e-3);
  EXPECT_GT(gamma_to_b, 10.0 * std::max(gamma_to_a, 1e-9));
}

TEST(AdaptiveAttackTest, ValidatesArguments) {
  const grid::PowerSystem sys = grid::make_case14();
  const KeyedPoint key = keyed_point(sys, 1.2);
  EXPECT_THROW(probe_and_estimate_key(sys, key.z_ref, 0.05, 1, 0, 0),
               std::invalid_argument);
  EXPECT_THROW(estimate_key(sys, {}), std::invalid_argument);
  EXPECT_THROW(estimate_key(sys, {linalg::Vector(3)}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mtdgrid::attack
