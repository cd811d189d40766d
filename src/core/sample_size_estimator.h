// Sample Size Estimator (paper Section 4): finds the minimum sample size n
// such that Pr[v(m_n, m_N) <= epsilon] >= 1 - delta, without training any
// additional models.
//
// Two-stage sampling from the joint distribution (paper Section 4.1):
//   theta_n,i = theta_0 + sqrt(1/n_0 - 1/n) * W z1_i
//   theta_N,i = theta_n,i + sqrt(1/n - 1/N)  * W z2_i
// and binary search on n (monotonicity is paper Theorem 2).
//
// Optimizations (paper Section 4.3 plus DESIGN.md Section 2.5):
//   * sampling by scaling — the unscaled draws W z1_i, W z2_i are taken
//     once; each candidate n only rescales them;
//   * common random numbers — the same (z1_i, z2_i) pairs are reused for
//     every candidate, making the feasibility test monotone path-by-path;
//   * score caching — for linear-score models the unscaled draws are
//     converted to holdout score deltas once, so each candidate costs
//     O(k * holdout * classes) comparisons with no O(p) work at all.

#ifndef BLINKML_CORE_SAMPLE_SIZE_ESTIMATOR_H_
#define BLINKML_CORE_SAMPLE_SIZE_ESTIMATOR_H_

#include "core/param_sampler.h"
#include "data/dataset.h"
#include "models/model_spec.h"
#include "random/rng.h"
#include "util/status.h"

namespace blinkml {

struct SampleSizeEstimate {
  /// The estimated minimum n.
  Dataset::Index sample_size = 0;
  /// Feasibility probability estimate at the returned n (diagnostic).
  double success_fraction = 0.0;
  /// Quantile level the search targeted.
  double quantile_level = 1.0;
  /// Monte-Carlo feasibility evaluations performed. Each distinct
  /// candidate n is evaluated exactly once (results are memoized, so
  /// re-reading the fraction at the returned n is free).
  int evaluations = 0;
  /// When a driver rounded sample_size up to a log-grid point
  /// (TrainingPipeline::QuantizeEstimatedSampleSize), the raw estimate it
  /// replaced; 0 when no quantization was applied.
  Dataset::Index quantized_from = 0;
};

struct SampleSizeOptions {
  int num_samples = 256;  // k Monte-Carlo pairs
  double epsilon = 0.05;
  double delta = 0.05;
  Dataset::Index min_n = 100;
};

/// Estimates the minimum sample size in [max(min_n, n0), full_n] for the
/// contract (epsilon, delta), given the initial model `theta0` trained on
/// n0 rows and its unscaled sampler. Never fails to find an n: at
/// n = full_n the approximate model equals the full model and v = 0.
Result<SampleSizeEstimate> EstimateSampleSize(
    const ModelSpec& spec, const Vector& theta0, Dataset::Index n0,
    Dataset::Index full_n, const ParamSampler& sampler,
    const Dataset& holdout, const SampleSizeOptions& options, Rng* rng);

}  // namespace blinkml

#endif  // BLINKML_CORE_SAMPLE_SIZE_ESTIMATOR_H_
