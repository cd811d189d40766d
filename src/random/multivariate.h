// Multivariate normal sampling.
//
// Two forms are provided, mirroring the two sampler paths in the paper:
//  * dense: given a covariance matrix, factor once (Cholesky with a
//    diagonal-jitter retry for semi-definite inputs) and draw L z;
//  * factor: given any p x r matrix W with W W^T = Sigma, draw W z directly
//    — this is the covariance-free path of paper Section 4.3 (L = U Lambda).

#ifndef BLINKML_RANDOM_MULTIVARIATE_H_
#define BLINKML_RANDOM_MULTIVARIATE_H_

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "random/rng.h"
#include "util/status.h"

namespace blinkml {

/// Draws from N(mean, Sigma) given a factor W with W W^T = Sigma.
class FactorMvnSampler {
 public:
  /// `factor` is p x r; draws cost O(p r).
  explicit FactorMvnSampler(Matrix factor) : w_(std::move(factor)) {}

  Matrix::Index dim() const { return w_.rows(); }
  Matrix::Index rank() const { return w_.cols(); }

  /// Draws W z with fresh z ~ N(0, I_r).
  Vector Draw(Rng* rng) const;

  /// Draws W z for a caller-supplied z (common-random-numbers support:
  /// the sample-size search reuses the same z across candidate sizes).
  Vector DrawWithZ(const Vector& z) const;

  /// Batched draws: row b of `zs` (B x r) is draw b's z. Returns p x B
  /// with column b bitwise equal to DrawWithZ(zs.row(b)); one pass over W
  /// serves the whole batch (kernels::MatVecMulti).
  Matrix DrawBatchWithZ(const Matrix& zs) const;

 private:
  Matrix w_;
};

/// Dense-covariance sampler: factors Sigma = L L^T once.
class DenseMvnSampler {
 public:
  /// Factors `covariance`. If the matrix is only positive *semi*-definite
  /// (common: rank-deficient J when d > n), retries with growing diagonal
  /// jitter up to 1e-8 * max diagonal, which perturbs draws negligibly.
  static Result<DenseMvnSampler> Create(const Matrix& covariance);

  Matrix::Index dim() const { return l_.rows(); }

  Vector Draw(Rng* rng) const;
  Vector DrawWithZ(const Vector& z) const;

 private:
  explicit DenseMvnSampler(Matrix l) : l_(std::move(l)) {}
  Matrix l_;  // lower-triangular Cholesky factor
};

}  // namespace blinkml

#endif  // BLINKML_RANDOM_MULTIVARIATE_H_
