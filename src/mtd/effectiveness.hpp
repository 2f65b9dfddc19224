#pragma once

#include <vector>

#include "linalg/sparse_matrix.hpp"
#include "linalg/vector.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::mtd {

/// How per-attack detection probabilities are computed.
enum class DetectionMethod {
  kAnalytic,    ///< exact noncentral-chi-square probability (fast)
  kMonteCarlo,  ///< the paper's method: count alarms over noise draws
};

/// Options for the eta'(delta) effectiveness evaluation (paper Section V-A
/// and the Monte-Carlo methodology of Section VII-B).
struct EffectivenessOptions {
  int num_attacks = 1000;                  ///< attack vectors a = H_t c
  double attack_relative_magnitude = 0.08; ///< ||a||_1 / ||z||_1 target
  double fp_rate = 5e-4;                   ///< BDD false-positive rate alpha
  /// Sensor noise standard deviation in MW. The paper does not state its
  /// noise level; 0.05 MW (5e-4 per-unit on the 100 MVA base) reproduces
  /// the Fig. 6 effectiveness range. EXPERIMENTS.md records the value used
  /// for each experiment.
  double sigma_mw = 0.05;
  DetectionMethod method = DetectionMethod::kAnalytic;  ///< P_D estimator
  int noise_trials = 1000;                 ///< Monte-Carlo draws per attack
  std::vector<double> deltas = {0.5, 0.8, 0.9, 0.95};  ///< eta'(delta) grid
};

/// Result of an effectiveness evaluation.
struct EffectivenessResult {
  /// Detection probability P'_D(a) of every sampled attack.
  std::vector<double> detection_probabilities;
  /// eta'(delta) for each requested delta: the fraction of attacks with
  /// P'_D(a) >= delta (the Lebesgue-measure ratio of Section V-A estimated
  /// by sampling).
  std::vector<double> eta;
  /// Mean detection probability across the attack sample.
  double mean_detection = 0.0;
};

/// Estimates the MTD effectiveness eta'(delta): attacks are crafted from
/// the attacker's (outdated) matrix `h_attacker`, the defender operates the
/// system with matrix `h_actual`, and `z_ref` is the noiseless measurement
/// vector at the actual operating point (used both to scale the attack
/// magnitudes and as the Monte-Carlo base signal). Both matrices are CSR.
/// Throws std::invalid_argument("effectiveness: z_ref length must equal
/// the measurement count") when `z_ref` is not M long.
///
/// Parallel and deterministic: attacks (and Monte-Carlo noise trials) are
/// spread across the global `core::ThreadPool`, each task on its own
/// counter-based RNG stream, and all reductions are ordered — the result
/// is bit-identical for every thread count. `rng` advances by exactly two
/// raw draws (the attack-stream root and the noise-stream root) regardless
/// of the option values.
EffectivenessResult evaluate_effectiveness(
    const linalg::SparseMatrix& h_attacker,
    const linalg::SparseMatrix& h_actual, const linalg::Vector& z_ref,
    const EffectivenessOptions& options, stats::Rng& rng);

/// Batched effectiveness evaluation: one attacker matrix against a whole
/// set of candidate post-MTD matrices (keyspace audits, gamma sweeps,
/// selection shortlists). The attack sample (`sample_attacks_seeded`, one
/// sparse product a = H_attacker c per attack) is drawn ONCE and shared by
/// every candidate, so the per-candidate work drops to the estimator build
/// plus the detection probabilities, and every candidate is scored against
/// the *same* attacks — and, in Monte-Carlo mode, the same noise streams —
/// (paired comparison, no cross-candidate sampling noise). With either
/// detection method, entry i is bit-equal to
/// `evaluate_effectiveness(h_attacker, h_candidates[i], z_ref, options,
/// rng)` called with a fresh rng seeded like `rng`. Results are
/// index-aligned with `h_candidates`. Candidates are scored across the
/// global thread pool when the batch is large enough, per-attack otherwise;
/// both schedules produce identical results. Throws like
/// `evaluate_effectiveness` on mismatched dimensions.
std::vector<EffectivenessResult> evaluate_candidates(
    const linalg::SparseMatrix& h_attacker,
    const std::vector<linalg::SparseMatrix>& h_candidates,
    const linalg::Vector& z_ref, const EffectivenessOptions& options,
    stats::Rng& rng);

/// eta'(delta) for a single delta from an already computed probability set.
double eta_at(const std::vector<double>& detection_probabilities,
              double delta);

}  // namespace mtdgrid::mtd
