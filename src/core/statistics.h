// Statistics computation (paper Section 3.4): builds the parameter sampler
// for N(0, H^-1 J H^-1) from a trained model, by one of three methods.
//
//  * ClosedForm — analytic H (available for linear and logistic
//    regression); J = H - beta I; exact but O(d^2) memory and O(d^3) time.
//  * InverseGradients — numeric H, one gradient evaluation per parameter
//    (finite difference of g_n along each axis); model-agnostic but costs
//    d gradient calls (paper Figure 9b shows the blowup at d = 784).
//  * ObservedFisher (default) — the information-matrix equality: J equals
//    the covariance of per-example gradients at the MLE. Only the factor
//    of J is ever formed: with Q the (1/sqrt(n_s))-scaled per-example
//    gradient matrix, the Gram matrix Q Q^T = V L V^T is eigendecomposed
//    (n_s x n_s, never p x p) and the sampler factor is the lazy operator
//    W = Q^T V diag(1/(l_i + beta)), which satisfies
//    W W^T = H^-1 J H^-1 for L2 regularization (paper Section 4.3).
//
// The ObservedFisher path never allocates O(p^2); with sparse features the
// Gram matrix costs O(n_s^2 * nnz/row) and a draw costs O(n_s r + nnz).

#ifndef BLINKML_CORE_STATISTICS_H_
#define BLINKML_CORE_STATISTICS_H_

#include <cstdint>

#include "core/contract.h"
#include "core/param_sampler.h"
#include "data/dataset.h"
#include "data/feature_gram_cache.h"
#include "models/model_spec.h"
#include "random/rng.h"
#include "util/status.h"

namespace blinkml {

struct StatsOptions {
  StatsMethod method = StatsMethod::kObservedFisher;
  /// Rows used for the ObservedFisher covariance estimate (uniform
  /// sub-sample of the training sample; 0 = use every row).
  Dataset::Index stats_sample_size = 1024;
  /// Sampler factor rank cap (0 = no cap). Directions are kept by largest
  /// variance contribution l/(l+beta)^2; the dropped fraction is recorded
  /// on the sampler.
  Matrix::Index max_rank = 512;
  /// Finite-difference step for InverseGradients (paper default 1e-6).
  double fd_epsilon = 1e-6;
  /// Gram eigenvalues below rel_floor * lambda_max are treated as zero
  /// (numerically rank-deficient directions carry no observed information).
  double eigenvalue_floor_rel = 1e-10;
  /// Structure-sharing sparse path: when the spec exposes per-example
  /// gradient coefficients (q_i = c_i x_i), compute the gradient Gram as
  /// c_i c_j * Gram(X)(i, j) — the feature Gram is candidate-independent
  /// and shareable via `gram_cache` — instead of re-merging the scaled
  /// rows per candidate. Off = the original per-candidate sorted-merge
  /// path (kept for multi-output specs and as the opt-out oracle).
  bool reuse_feature_gram = true;
  /// Cross-candidate feature-Gram cache (session-owned); nullptr = compute
  /// the feature Gram locally (the rescale algebra still applies).
  FeatureGramCache* gram_cache = nullptr;
  /// Key under which this computation's feature Gram is shared; must be
  /// set by the caller when gram_cache is non-null (the pipeline keys by
  /// phase, seed, and parent-sample size — see data/feature_gram_cache.h).
  FeatureGramCache::Key gram_key;
};

/// Gram matrix Q Q^T of a sparse (gradient) matrix via the tiled
/// scatter/gather kernel (linalg/kernels.h). Used by every sparse
/// ObservedFisher path; public so the kernel bench/tests exercise exactly
/// the statistics phase's Gram.
Matrix SparseGradientGram(const SparseMatrix& q);

/// Builds the sampler for the unscaled distribution N(0, H^-1 J H^-1),
/// evaluated at `theta` on `sample` (the data the model was trained on).
///
/// Fails with InvalidArgument if the method is inapplicable (ClosedForm on
/// a model without an analytic Hessian; InverseGradients beyond the
/// dimension guard) and NotConverged if an eigendecomposition fails.
Result<ParamSampler> ComputeStatistics(const ModelSpec& spec,
                                       const Vector& theta,
                                       const Dataset& sample,
                                       const StatsOptions& options, Rng* rng);

}  // namespace blinkml

#endif  // BLINKML_CORE_STATISTICS_H_
