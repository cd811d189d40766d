#include "models/poisson_regression.h"

#include <cmath>

#include "models/glm_links.h"
#include "models/glm_parallel.h"

namespace blinkml {

namespace {
using Index = Dataset::Index;
using internal::PoissonLink;
using internal::SafeExp;
}  // namespace

PoissonRegressionSpec::PoissonRegressionSpec(double l2) : l2_(l2) {
  BLINKML_CHECK_GE(l2, 0.0);
}

double PoissonRegressionSpec::Objective(const Vector& theta,
                                        const Dataset& data) const {
  return internal::GlmObjective(PoissonLink{}, data, theta, l2_);
}

void PoissonRegressionSpec::Gradient(const Vector& theta, const Dataset& data,
                                     Vector* grad) const {
  ObjectiveAndGradient(theta, data, grad);
}

double PoissonRegressionSpec::ObjectiveAndGradient(const Vector& theta,
                                                   const Dataset& data,
                                                   Vector* grad) const {
  return internal::GlmObjectiveAndGradient(PoissonLink{}, data, theta, l2_,
                                           grad);
}

void PoissonRegressionSpec::PerExampleGradients(const Vector& theta,
                                                const Dataset& data,
                                                Matrix* out) const {
  internal::GlmPerExampleGradients(PoissonLink{}, data, theta, out);
}

void PoissonRegressionSpec::PerExampleGradientCoeffs(const Vector& theta,
                                                     const Dataset& data,
                                                     Vector* coeffs) const {
  internal::GlmCoeffs(PoissonLink{}, data, theta, coeffs);
}

void PoissonRegressionSpec::Predict(const Vector& theta, const Dataset& data,
                                    Vector* out) const {
  internal::GlmPredict(PoissonLink{}, data, theta, out);
}

void PoissonRegressionSpec::PredictBatch(
    const std::vector<const Vector*>& thetas, const Dataset& data,
    Matrix* out) const {
  *out = BatchMargins(data, thetas);
  ParallelFor(0, data.num_rows(), [&](Index b, Index e) {
    for (Index i = b; i < e; ++i) {
      double* row = out->row_data(i);
      for (Matrix::Index c = 0; c < out->cols(); ++c) {
        row[c] = SafeExp(row[c]);
      }
    }
  });
}

Matrix PoissonRegressionSpec::Scores(const Vector& theta,
                                     const Dataset& data) const {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  Matrix scores(data.num_rows(), 1);
  // Shared GLM margin driver: scores use the canonical unrolled dot, so
  // ScoresBatch columns match bitwise.
  ParallelFor(0, data.num_rows(), [&](Index b, Index e) {
    internal::ForMargins(data, theta, b, e,
                         [&](Index i, double m) { scores(i, 0) = m; });
  });
  return scores;
}

Matrix PoissonRegressionSpec::ScoresBatch(
    const std::vector<const Vector*>& thetas, const Dataset& data) const {
  return BatchMargins(data, thetas);
}

double PoissonRegressionSpec::DiffFromScores(const Matrix& scores1,
                                             const Matrix& scores2,
                                             const Dataset& holdout) const {
  BLINKML_CHECK_EQ(scores1.rows(), holdout.num_rows());
  BLINKML_CHECK_EQ(scores2.rows(), holdout.num_rows());
  const Index n = holdout.num_rows();
  BLINKML_CHECK_GT(n, 0);
  double se = 0.0;
  for (Index i = 0; i < n; ++i) {
    const double d = SafeExp(scores1(i, 0)) - SafeExp(scores2(i, 0));
    se += d * d;
  }
  const double rms = std::sqrt(se / static_cast<double>(n));
  return rms / LabelScale(holdout);
}

double PoissonRegressionSpec::Diff(const Vector& theta1, const Vector& theta2,
                                   const Dataset& holdout) const {
  return DiffFromScores(Scores(theta1, holdout), Scores(theta2, holdout),
                        holdout);
}

Result<Matrix> PoissonRegressionSpec::ClosedFormHessian(
    const Vector& theta, const Dataset& data) const {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("empty dataset");
  }
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  const Index n = data.num_rows();
  const Index d = data.dim();
  Matrix h(d, d);
  for (Index i = 0; i < n; ++i) {
    const double w = SafeExp(data.RowDot(i, theta.data()));
    if (data.is_sparse()) {
      const SparseMatrix& x = data.sparse();
      const auto nnz = x.RowNnz(i);
      const auto* cols = x.RowCols(i);
      const auto* vals = x.RowValues(i);
      for (Index a = 0; a < nnz; ++a) {
        for (Index b = 0; b < nnz; ++b) {
          h(cols[a], cols[b]) += w * vals[a] * vals[b];
        }
      }
    } else {
      const double* row = data.dense().row_data(i);
      for (Index a = 0; a < d; ++a) {
        const double wa = w * row[a];
        if (wa == 0.0) continue;
        double* hrow = h.row_data(a);
        for (Index b = 0; b < d; ++b) hrow[b] += wa * row[b];
      }
    }
  }
  h *= 1.0 / static_cast<double>(n);
  h.AddToDiagonal(l2_);
  return h;
}

}  // namespace blinkml
