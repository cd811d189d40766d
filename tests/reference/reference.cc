#include "tests/reference/reference.h"

#include <algorithm>
#include <cmath>

namespace blinkml {
namespace reference {

using Index = Matrix::Index;

// Every parallel loop below assigns each output element to exactly one
// chunk and accumulates it in the serial order, so results are bitwise
// identical to the serial loops for any thread count and chunk layout.

Matrix MatMul(const Matrix& a, const Matrix& b) {
  BLINKML_CHECK_EQ(a.cols(), b.rows());
  const Index m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  // ikj ordering: the inner loop streams over contiguous rows of B and C.
  // Parallel over row blocks of C: each output row is produced by exactly
  // one chunk with the serial accumulation order.
  constexpr Index kBlock = 64;
  ParallelFor(0, m, [&](Index r0, Index r1) {
    for (Index p0 = 0; p0 < k; p0 += kBlock) {
      const Index p1 = std::min(p0 + kBlock, k);
      for (Index i = r0; i < r1; ++i) {
        double* crow = c.row_data(i);
        const double* arow = a.row_data(i);
        for (Index p = p0; p < p1; ++p) {
          const double aip = arow[p];
          if (aip == 0.0) continue;
          const double* brow = b.row_data(p);
          for (Index j = 0; j < n; ++j) crow[j] += aip * brow[j];
        }
      }
    }
  }, kBlock);
  return c;
}

Vector MatVec(const Matrix& a, const Vector& x) {
  BLINKML_CHECK_EQ(a.cols(), x.size());
  Vector y(a.rows());
  for (Index r = 0; r < a.rows(); ++r) {
    const double* arow = a.row_data(r);
    double s = 0.0;
    for (Index c = 0; c < a.cols(); ++c) s += arow[c] * x[c];
    y[r] = s;
  }
  return y;
}

Vector MatTVec(const Matrix& a, const Vector& x) {
  BLINKML_CHECK_EQ(a.rows(), x.size());
  Vector y(a.cols());
  double* py = y.data();
  for (Index r = 0; r < a.rows(); ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const double* arow = a.row_data(r);
    for (Index c = 0; c < a.cols(); ++c) py[c] += xr * arow[c];
  }
  return y;
}

Matrix GramRows(const Matrix& a) {
  const Index n = a.rows(), d = a.cols();
  Matrix g(n, n);
  // Each (i, j >= i) entry is one independent dot product; the mirrored
  // (j, i) write belongs to the same chunk, so chunks touch disjoint
  // entry pairs. Row i costs O(n - i); the fine grain plus the runtime's
  // strided lane assignment keep the lanes balanced.
  ParallelFor(0, n, [&](Index i0, Index i1) {
    for (Index i = i0; i < i1; ++i) {
      const double* ri = a.row_data(i);
      for (Index j = i; j < n; ++j) {
        const double* rj = a.row_data(j);
        double s = 0.0;
        for (Index c = 0; c < d; ++c) s += ri[c] * rj[c];
        g(i, j) = s;
        g(j, i) = s;
      }
    }
  }, kFineGrain);
  return g;
}

Matrix GramCols(const Matrix& a) {
  const Index n = a.rows(), d = a.cols();
  Matrix g(d, d);
  // Entry (i, j) accumulates over the rows of A in ascending order under
  // both loops below, so the result is bitwise identical regardless of
  // lane count or chunking.
  const int lanes = CurrentParallelism();
  if (lanes <= 1) {
    // Serial: rank-1 updates row by row (streams A exactly once).
    for (Index r = 0; r < n; ++r) {
      const double* row = a.row_data(r);
      for (Index i = 0; i < d; ++i) {
        const double v = row[i];
        if (v == 0.0) continue;
        double* grow = g.row_data(i);
        for (Index j = i; j < d; ++j) grow[j] += v * row[j];
      }
    }
  } else {
    // Parallel over output rows of G (column pairs of A): each chunk
    // streams every row of A but writes only its own rows of G. Two chunks
    // per lane balance the triangular row costs while keeping the total
    // streaming of A bounded by ~2x lanes (not once per fine chunk).
    const Index grain = std::max<Index>(1, (d + 2 * lanes - 1) / (2 * lanes));
    ParallelFor(0, d, [&](Index i0, Index i1) {
      for (Index r = 0; r < n; ++r) {
        const double* row = a.row_data(r);
        for (Index i = i0; i < i1; ++i) {
          const double v = row[i];
          if (v == 0.0) continue;
          double* grow = g.row_data(i);
          for (Index j = i; j < d; ++j) grow[j] += v * row[j];
        }
      }
    }, grain);
  }
  for (Index i = 0; i < d; ++i) {
    for (Index j = i + 1; j < d; ++j) g(j, i) = g(i, j);
  }
  return g;
}

Vector Apply(const SparseMatrix& a, const Vector& x) {
  BLINKML_CHECK_EQ(static_cast<SparseMatrix::Index>(x.size()), a.cols());
  Vector y(a.rows());
  for (SparseMatrix::Index r = 0; r < a.rows(); ++r) {
    y[r] = a.RowDot(r, x.data());
  }
  return y;
}

Vector ApplyTransposed(const SparseMatrix& a, const Vector& x) {
  BLINKML_CHECK_EQ(static_cast<SparseMatrix::Index>(x.size()), a.rows());
  Vector y(a.cols());
  double* py = y.data();
  for (SparseMatrix::Index r = 0; r < a.rows(); ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    a.AddRowTo(r, xr, py);
  }
  return y;
}

Matrix ApplyTransposedColumns(const SparseMatrix& a, const Matrix& v) {
  Matrix w(a.cols(), v.cols());
  for (Index j = 0; j < v.cols(); ++j) {
    const Vector col = ApplyTransposed(a, v.Col(j));
    w.SetCol(j, col);
  }
  return w;
}

Matrix SparseGradientGram(const SparseMatrix& q) {
  const Index n = static_cast<Index>(q.rows());
  Matrix g(n, n);
  // Parallel over rows of the upper triangle; every (i, j) merge is one
  // independent dot product, so results match the serial loop bitwise. Row
  // i costs O(n - i) merges; small chunks keep the lanes balanced.
  ParallelFor(0, n, [&](Index i0, Index i1) {
    for (Index i = i0; i < i1; ++i) {
      const auto nnz_i = q.RowNnz(i);
      const auto* cols_i = q.RowCols(i);
      const auto* vals_i = q.RowValues(i);
      for (Index j = i; j < n; ++j) {
        const auto nnz_j = q.RowNnz(j);
        const auto* cols_j = q.RowCols(j);
        const auto* vals_j = q.RowValues(j);
        double s = 0.0;
        SparseMatrix::Index a = 0, b = 0;
        while (a < nnz_i && b < nnz_j) {
          if (cols_i[a] < cols_j[b]) {
            ++a;
          } else if (cols_i[a] > cols_j[b]) {
            ++b;
          } else {
            s += vals_i[a] * vals_j[b];
            ++a;
            ++b;
          }
        }
        g(i, j) = s;
        g(j, i) = s;
      }
    }
  }, kFineGrain);
  return g;
}

Matrix BatchMargins(const Dataset& data,
                    const std::vector<const Vector*>& thetas) {
  const auto k = static_cast<Matrix::Index>(thetas.size());
  Matrix margins(data.num_rows(), k);
  ParallelFor(0, data.num_rows(), [&](Dataset::Index b, Dataset::Index e) {
    for (Dataset::Index i = b; i < e; ++i) {
      double* row = margins.row_data(i);
      for (Matrix::Index c = 0; c < k; ++c) {
        row[c] = data.RowDot(i, thetas[static_cast<std::size_t>(c)]->data());
      }
    }
  });
  return margins;
}

namespace {

// Numerically stable log(1 + exp(z)).
double Log1pExp(double z) {
  if (z > 30.0) return z;
  if (z < -30.0) return std::exp(z);
  return std::log1p(std::exp(z));
}

}  // namespace

double Loss(const internal::LinearLink&, double m, double y) {
  const double r = m - y;
  return 0.5 * r * r;
}

double Loss(const internal::LogisticLink&, double m, double y) {
  // -[y log s + (1-y) log(1-s)] = log(1+e^m) - y * m.
  return Log1pExp(m) - y * m;
}

double Loss(const internal::PoissonLink&, double m, double y) {
  return internal::SafeExp(m) - y * m;
}

}  // namespace reference
}  // namespace blinkml
