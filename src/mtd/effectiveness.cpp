#include "mtd/effectiveness.hpp"

#include <cstdint>
#include <stdexcept>

#include "attack/fdi_attack.hpp"
#include "core/parallel.hpp"
#include "estimation/bdd.hpp"
#include "estimation/detection.hpp"
#include "estimation/state_estimator.hpp"

namespace mtdgrid::mtd {

namespace {

/// Scores one candidate matrix against an already drawn attack sample.
/// Attack i's Monte-Carlo noise (when used) comes from the substream family
/// `stats::stream_seed(noise_root, i)` — a pure function of (noise_root, i)
/// — and per-attack probabilities are reduced in attack order, so the
/// result is bit-identical for every thread count.
EffectivenessResult score_candidate(const std::vector<attack::FdiAttack>& attacks,
                                    const linalg::SparseMatrix& h_actual,
                                    const linalg::Vector& z_ref,
                                    const EffectivenessOptions& options,
                                    std::uint64_t noise_root) {
  const estimation::StateEstimator estimator(h_actual, options.sigma_mw);
  const estimation::BadDataDetector bdd(estimator, options.fp_rate);

  EffectivenessResult result;
  result.detection_probabilities = core::parallel_map<double>(
      attacks.size(), [&](std::size_t i) {
        switch (options.method) {
          case DetectionMethod::kMonteCarlo:
            return estimation::monte_carlo_detection_probability_seeded(
                estimator, bdd, z_ref, attacks[i].a, options.noise_trials,
                stats::stream_seed(noise_root, i));
          case DetectionMethod::kAnalytic:
            break;
        }
        return estimation::analytic_detection_probability(estimator, bdd,
                                                          attacks[i].a);
      });

  // Ordered fold: the mean is the same left-to-right sum the sequential
  // run produces, whatever the scheduling above did.
  double sum = 0.0;
  for (double pd : result.detection_probabilities) sum += pd;
  result.mean_detection = sum / static_cast<double>(attacks.size());

  result.eta.reserve(options.deltas.size());
  for (double delta : options.deltas)
    result.eta.push_back(eta_at(result.detection_probabilities, delta));
  return result;
}

void validate(std::size_t measurements, const linalg::Vector& z_ref,
              const EffectivenessOptions& options) {
  if (z_ref.size() != measurements)
    throw std::invalid_argument(
        "effectiveness: z_ref length must equal the measurement count");
  if (options.num_attacks <= 0)
    throw std::invalid_argument("effectiveness: need at least one attack");
}

}  // namespace

EffectivenessResult evaluate_effectiveness(
    const linalg::SparseMatrix& h_attacker,
    const linalg::SparseMatrix& h_actual, const linalg::Vector& z_ref,
    const EffectivenessOptions& options, stats::Rng& rng) {
  if (h_attacker.rows() != h_actual.rows())
    throw std::invalid_argument(
        "effectiveness: measurement dimensions must match");
  validate(h_attacker.rows(), z_ref, options);

  // Exactly two raw draws, whatever the method or thread count: one root
  // for the attack-sample streams, one for the noise streams.
  const std::uint64_t attack_root = rng.split();
  const std::uint64_t noise_root = rng.split();
  const auto attacks = attack::sample_attacks_seeded(
      h_attacker, z_ref, options.attack_relative_magnitude,
      options.num_attacks, attack_root);
  return score_candidate(attacks, h_actual, z_ref, options, noise_root);
}

std::vector<EffectivenessResult> evaluate_candidates(
    const linalg::SparseMatrix& h_attacker,
    const std::vector<linalg::SparseMatrix>& h_candidates,
    const linalg::Vector& z_ref, const EffectivenessOptions& options,
    stats::Rng& rng) {
  for (const linalg::SparseMatrix& h : h_candidates)
    if (h.rows() != h_attacker.rows())
      throw std::invalid_argument(
          "effectiveness: measurement dimensions must match");
  validate(h_attacker.rows(), z_ref, options);

  // Same two-draw contract as evaluate_effectiveness, and the same stream
  // roots for every candidate: candidate i's scores are bit-equal to an
  // evaluate_effectiveness call with a fresh rng seeded like `rng`, and all
  // candidates face identical attacks AND identical noise (paired
  // comparison, no cross-candidate sampling noise).
  const std::uint64_t attack_root = rng.split();
  const std::uint64_t noise_root = rng.split();
  const auto attacks = attack::sample_attacks_seeded(
      h_attacker, z_ref, options.attack_relative_magnitude,
      options.num_attacks, attack_root);

  std::vector<EffectivenessResult> results(h_candidates.size());
  const std::size_t workers = core::ThreadPool::global().num_threads();
  if (h_candidates.size() >= workers && workers > 1) {
    // Enough candidates to keep every worker on its own estimator build +
    // scoring loop; the nested parallel_for inside score_candidate then
    // runs inline.
    core::parallel_for(h_candidates.size(), [&](std::size_t i) {
      results[i] =
          score_candidate(attacks, h_candidates[i], z_ref, options,
                          noise_root);
    });
  } else {
    // Few candidates: score them one at a time and let the per-attack
    // parallelism inside score_candidate use the pool.
    for (std::size_t i = 0; i < h_candidates.size(); ++i)
      results[i] = score_candidate(attacks, h_candidates[i], z_ref, options,
                                   noise_root);
  }
  return results;
}

double eta_at(const std::vector<double>& detection_probabilities,
              double delta) {
  if (detection_probabilities.empty()) return 0.0;
  std::size_t hits = 0;
  for (double pd : detection_probabilities)
    if (pd >= delta) ++hits;
  return static_cast<double>(hits) /
         static_cast<double>(detection_probabilities.size());
}

}  // namespace mtdgrid::mtd
