// Model Accuracy Estimator (paper Section 3): given a trained approximate
// model m_n, bounds its prediction difference v(m_n) from the (untrained)
// full model m_N with confidence 1 - delta.
//
// Monte-Carlo over the conditional distribution of Corollary 1:
//   theta_N,i = theta_n + sqrt(1/n - 1/N) * W z_i,   z_i ~ N(0, I_r),
// v_i = diff(m(theta_n), m(theta_N,i)) on the holdout, and the bound is
// the conservative empirical quantile of {v_i} (repaired Lemma 2, see
// conservative.h).

#ifndef BLINKML_CORE_ACCURACY_ESTIMATOR_H_
#define BLINKML_CORE_ACCURACY_ESTIMATOR_H_

#include "core/param_sampler.h"
#include "data/dataset.h"
#include "models/model_spec.h"
#include "random/rng.h"
#include "util/status.h"

namespace blinkml {

struct AccuracyEstimate {
  /// The bound: Pr[v(m_n) <= epsilon] >= 1 - delta.
  double epsilon = 0.0;
  /// Mean of the sampled v's (diagnostic; not a bound).
  double mean_v = 0.0;
  /// Quantile level actually used (1.0 = max of the sampled v's).
  double quantile_level = 1.0;
  /// Number of Monte-Carlo samples.
  int num_samples = 0;
};

struct AccuracyOptions {
  int num_samples = 512;  // k
  double delta = 0.05;
};

/// Estimates the accuracy bound for a model with parameters `theta_n`
/// trained on n rows, relative to the full model on N rows (n <= N).
/// `sampler` must be the unscaled N(0, H^-1 J H^-1) sampler computed at
/// theta_n. Returns epsilon = 0 when n == N (the model *is* the full
/// model).
Result<AccuracyEstimate> EstimateAccuracy(
    const ModelSpec& spec, const Vector& theta_n, Dataset::Index n,
    Dataset::Index full_n, const ParamSampler& sampler,
    const Dataset& holdout, const AccuracyOptions& options, Rng* rng);

}  // namespace blinkml

#endif  // BLINKML_CORE_ACCURACY_ESTIMATOR_H_
