#include "random/multivariate.h"

#include "linalg/cholesky.h"
#include "linalg/kernels.h"

namespace blinkml {

Vector FactorMvnSampler::Draw(Rng* rng) const {
  Vector z(w_.cols());
  rng->FillNormal(&z);
  return DrawWithZ(z);
}

Vector FactorMvnSampler::DrawWithZ(const Vector& z) const {
  BLINKML_CHECK_EQ(z.size(), w_.cols());
  return MatVec(w_, z);
}

Matrix FactorMvnSampler::DrawBatchWithZ(const Matrix& zs) const {
  BLINKML_CHECK_EQ(zs.cols(), w_.cols());
  return kernels::MatVecMulti(w_, zs);
}

Result<DenseMvnSampler> DenseMvnSampler::Create(const Matrix& covariance) {
  if (covariance.rows() != covariance.cols()) {
    return Status::InvalidArgument("covariance must be square");
  }
  double max_diag = 0.0;
  for (Matrix::Index i = 0; i < covariance.rows(); ++i) {
    max_diag = std::max(max_diag, covariance(i, i));
  }
  double jitter = 0.0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    Matrix c = covariance;
    if (jitter > 0.0) c.AddToDiagonal(jitter);
    Result<Cholesky> chol = Cholesky::Factor(c);
    if (chol.ok()) {
      return DenseMvnSampler(chol->L());
    }
    jitter = (jitter == 0.0) ? 1e-12 * std::max(max_diag, 1.0) : jitter * 100.0;
  }
  return Status::InvalidArgument(
      "covariance is not positive semi-definite (jitter retries exhausted)");
}

Vector DenseMvnSampler::Draw(Rng* rng) const {
  Vector z(l_.rows());
  rng->FillNormal(&z);
  return DrawWithZ(z);
}

Vector DenseMvnSampler::DrawWithZ(const Vector& z) const {
  BLINKML_CHECK_EQ(z.size(), l_.rows());
  // Lower-triangular matvec.
  const Matrix::Index n = l_.rows();
  Vector out(n);
  for (Matrix::Index i = 0; i < n; ++i) {
    const double* row = l_.row_data(i);
    double s = 0.0;
    for (Matrix::Index j = 0; j <= i; ++j) s += row[j] * z[j];
    out[i] = s;
  }
  return out;
}

}  // namespace blinkml
