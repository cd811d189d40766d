// Reference oracles for the compute kernels (library blinkml_reference).
//
// The production linalg, statistics and GLM entry points run one
// implementation: the register-tiled, unrolled kernels of
// linalg/kernels.h. The plain scalar loops those kernels replaced live
// here, unchanged, so tests and benches can hold the kernels to their
// tolerance contract (within 1e-12 relative; bitwise where the
// accumulation order is the same) and time them against a fixed baseline.
// Only test and bench targets link this library.

#ifndef BLINKML_TESTS_REFERENCE_REFERENCE_H_
#define BLINKML_TESTS_REFERENCE_REFERENCE_H_

#include <utility>
#include <vector>

#include "data/dataset.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "linalg/vector.h"
#include "models/glm_links.h"
#include "models/glm_parallel.h"
#include "runtime/parallel.h"

namespace blinkml {
namespace reference {

// ---- Dense ----

/// C = A B, ikj order over 64-deep p-panels; parallel over rows of C.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// A x, one serial row dot per output entry.
Vector MatVec(const Matrix& a, const Vector& x);

/// A^T x as a serial row-by-row scatter.
Vector MatTVec(const Matrix& a, const Vector& x);

/// A A^T, one dot per upper-triangle entry; parallel over rows.
Matrix GramRows(const Matrix& a);

/// A^T A by rank-1 row updates (serial) or per-output-row streams.
Matrix GramCols(const Matrix& a);

// ---- Sparse ----

/// A x, one RowDot per row.
Vector Apply(const SparseMatrix& a, const Vector& x);

/// A^T x as a serial row-by-row scatter.
Vector ApplyTransposed(const SparseMatrix& a, const Vector& x);

/// A^T V one column at a time: the reference for
/// kernels::ApplyTransposedMulti (ParamSampler::DenseCovariance).
Matrix ApplyTransposedColumns(const SparseMatrix& a, const Matrix& v);

/// Q Q^T by per-pair sorted-column merges.
Matrix SparseGradientGram(const SparseMatrix& q);

// ---- Margins and GLM passes ----

/// margins(i, k) = RowDot(i, theta_k).
Matrix BatchMargins(const Dataset& data,
                    const std::vector<const Vector*>& thetas);

/// Per-row negative log-likelihood of each GLM link, computed on its own
/// (the production drivers only use the fused LossAndCoeff).
double Loss(const internal::LinearLink& link, double m, double y);
double Loss(const internal::LogisticLink& link, double m, double y);
double Loss(const internal::PoissonLink& link, double m, double y);

/// row_fn(i, RowDot(i, theta)) for i in [b, e).
template <typename RowFn>
void ForMargins(const Dataset& data, const Vector& theta, ParallelIndex b,
                ParallelIndex e, const RowFn& row_fn) {
  for (ParallelIndex i = b; i < e; ++i) {
    row_fn(i, data.RowDot(i, theta.data()));
  }
}

/// Averaged loss + gradient with Loss and Coeff as separate calls.
template <typename Link>
double GlmObjectiveAndGradient(const Link& link, const Dataset& data,
                               const Vector& theta, double l2, Vector* grad) {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  BLINKML_CHECK_GT(data.num_rows(), 0);
  const auto n = static_cast<ParallelIndex>(data.num_rows());
  internal::LossGradPartial total = ParallelReduce(
      ParallelIndex{0}, n, internal::LossGradPartial{},
      [&](ParallelIndex b, ParallelIndex e) {
        internal::LossGradPartial part;
        part.grad.Resize(theta.size());
        ForMargins(data, theta, b, e, [&](ParallelIndex i, double m) {
          const double y = data.label(i);
          part.loss += Loss(link, m, y);
          data.AddRowTo(i, link.Coeff(m, y), part.grad.data());
        });
        return part;
      },
      internal::CombineLossGrad, GradientGrain(n));
  const double inv_n = 1.0 / static_cast<double>(n);
  const double loss = total.loss * inv_n;
  *grad = std::move(total.grad);
  (*grad) *= inv_n;
  Axpy(l2, theta, grad);
  return loss + 0.5 * l2 * SquaredNorm2(theta);
}

/// Value-only pass.
template <typename Link>
double GlmObjective(const Link& link, const Dataset& data, const Vector& theta,
                    double l2) {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  BLINKML_CHECK_GT(data.num_rows(), 0);
  const auto n = static_cast<ParallelIndex>(data.num_rows());
  const double loss = ParallelReduce(
      ParallelIndex{0}, n, 0.0,
      [&](ParallelIndex b, ParallelIndex e) {
        double part = 0.0;
        ForMargins(data, theta, b, e, [&](ParallelIndex i, double m) {
          part += Loss(link, m, data.label(i));
        });
        return part;
      },
      [](double acc, double part) { return acc + part; }, GradientGrain(n));
  return loss / static_cast<double>(n) + 0.5 * l2 * SquaredNorm2(theta);
}

/// Per-example gradient coefficients c_i = Coeff(margin_i, y_i).
template <typename Link>
void GlmCoeffs(const Link& link, const Dataset& data, const Vector& theta,
               Vector* coeffs) {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  coeffs->Resize(data.num_rows());
  ParallelFor(0, data.num_rows(), [&](ParallelIndex b, ParallelIndex e) {
    ForMargins(data, theta, b, e, [&](ParallelIndex i, double m) {
      (*coeffs)[i] = link.Coeff(m, data.label(i));
    });
  });
}

/// Row i of *out is Coeff(margin_i, y_i) * x_i.
template <typename Link>
void GlmPerExampleGradients(const Link& link, const Dataset& data,
                            const Vector& theta, Matrix* out) {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  const auto n = static_cast<ParallelIndex>(data.num_rows());
  *out = Matrix(n, theta.size());
  ParallelFor(0, n, [&](ParallelIndex b, ParallelIndex e) {
    ForMargins(data, theta, b, e, [&](ParallelIndex i, double m) {
      data.AddRowTo(i, link.Coeff(m, data.label(i)), out->row_data(i));
    });
  });
}

/// link.Predict(margin_i) per row.
template <typename Link>
void GlmPredict(const Link& link, const Dataset& data, const Vector& theta,
                Vector* out) {
  BLINKML_CHECK_EQ(theta.size(), data.dim());
  out->Resize(data.num_rows());
  ParallelFor(0, data.num_rows(), [&](ParallelIndex b, ParallelIndex e) {
    ForMargins(data, theta, b, e, [&](ParallelIndex i, double m) {
      (*out)[i] = link.Predict(m);
    });
  });
}

}  // namespace reference
}  // namespace blinkml

#endif  // BLINKML_TESTS_REFERENCE_REFERENCE_H_
