#include "oracles.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.h"

namespace blinkbench {

using blinkml::Dataset;
using blinkml::Vector;
using Index = Dataset::Index;

namespace {

/// x_i . theta[offset .. offset + dim), summed in column order.
double RowDot(const Dataset& data, Index i, const double* theta) {
  double sum = 0.0;
  if (data.is_sparse()) {
    const auto& x = data.sparse();
    const auto nnz = x.RowNnz(i);
    const auto* cols = x.RowCols(i);
    const double* values = x.RowValues(i);
    for (decltype(x.RowNnz(i)) k = 0; k < nnz; ++k) {
      sum += values[k] * theta[cols[k]];
    }
  } else {
    const double* row = data.dense().row_data(i);
    for (Index j = 0; j < data.dim(); ++j) sum += row[j] * theta[j];
  }
  return sum;
}

/// Dense symmetric positive-definite solve by Cholesky (row-major a, n x n).
bool CholeskySolve(std::vector<double> a, std::vector<double> b,
                   std::size_t n, std::vector<double>* x) {
  for (std::size_t j = 0; j < n; ++j) {
    double d = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) d -= a[j * n + k] * a[j * n + k];
    if (!(d > 0.0)) return false;
    const double l = std::sqrt(d);
    a[j * n + j] = l;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) s -= a[i * n + k] * a[j * n + k];
      a[i * n + j] = s / l;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {  // L z = b
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= a[i * n + k] * b[k];
    b[i] = s / a[i * n + i];
  }
  for (std::size_t i = n; i-- > 0;) {  // L^T x = z
    double s = b[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= a[k * n + i] * b[k];
    b[i] = s / a[i * n + i];
  }
  *x = std::move(b);
  return true;
}

std::string Fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

std::string VerifyNormalEquations(const blinkml::ModelSpec& spec,
                                  const Dataset& pool, const Vector& theta) {
  if (pool.is_sparse()) return "Lin oracle expects dense data";
  const std::size_t d = static_cast<std::size_t>(pool.dim());
  const double n = static_cast<double>(pool.num_rows());
  std::vector<double> a(d * d, 0.0), b(d, 0.0);
  for (Index i = 0; i < pool.num_rows(); ++i) {
    const double* row = pool.dense().row_data(i);
    const double y = pool.label(i);
    for (std::size_t r = 0; r < d; ++r) {
      b[r] += row[r] * y;
      for (std::size_t c = 0; c <= r; ++c) a[r * d + c] += row[r] * row[c];
    }
  }
  for (std::size_t r = 0; r < d; ++r) {
    b[r] /= n;
    for (std::size_t c = 0; c <= r; ++c) {
      a[r * d + c] /= n;
      a[c * d + r] = a[r * d + c];
    }
    a[r * d + r] += spec.l2();
  }
  std::vector<double> solved;
  if (!CholeskySolve(a, b, d, &solved)) return "normal equations not SPD";
  double err = 0.0, norm = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    err += (theta[static_cast<Index>(j)] - solved[j]) *
           (theta[static_cast<Index>(j)] - solved[j]);
    norm += solved[j] * solved[j];
  }
  const double rel = std::sqrt(err / std::max(norm, 1e-300));
  if (rel > 1e-4) {
    return Fmt("Lin full model is %.3g (relative) from the normal-equation "
               "solution (limit %.0e)",
               rel, 1e-4);
  }
  return "";
}

/// Deterministic standard normals (Box-Muller over SplitMix64 draws).
std::vector<double> Normals(std::size_t count, std::uint64_t seed) {
  std::vector<double> out(count);
  std::uint64_t state = seed;
  auto uniform = [&state] {
    state = MixSeed(state, 7);
    return (static_cast<double>(state >> 11) + 0.5) * 0x1.0p-53;
  };
  for (std::size_t i = 0; i < count; ++i) {
    const double u1 = uniform(), u2 = uniform();
    out[i] = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }
  return out;
}

std::string VerifyStationary(const blinkml::ModelSpec& spec,
                             const Dataset& pool, const Vector& theta,
                             std::uint64_t seed) {
  const double f0 = spec.Objective(theta, pool);
  const double h = 1e-4;
  const double limit = 1e-4 * std::max(1.0, std::fabs(f0));
  for (int dir = 0; dir < 3; ++dir) {
    std::vector<double> u =
        Normals(static_cast<std::size_t>(theta.size()), MixSeed(seed, dir));
    double norm = 0.0;
    for (double v : u) norm += v * v;
    norm = std::sqrt(norm);
    Vector plus = theta, minus = theta;
    for (Index j = 0; j < theta.size(); ++j) {
      plus[j] += h * u[static_cast<std::size_t>(j)] / norm;
      minus[j] -= h * u[static_cast<std::size_t>(j)] / norm;
    }
    const double slope =
        (spec.Objective(plus, pool) - spec.Objective(minus, pool)) / (2.0 * h);
    if (!(std::fabs(slope) <= limit)) {
      return Fmt("objective not stationary at the full model: directional "
                 "derivative %.3g (limit %.3g)",
                 slope, limit);
    }
  }
  return "";
}

}  // namespace

const char* ModelClassName(ModelClass cls) {
  switch (cls) {
    case ModelClass::kLin: return "Lin";
    case ModelClass::kLR: return "LR";
    case ModelClass::kME: return "ME";
    case ModelClass::kPPCA: return "PPCA";
  }
  return "?";
}

std::string VerifyFullModel(ModelClass cls, const blinkml::ModelSpec& spec,
                            const Dataset& pool, const Vector& theta,
                            std::uint64_t seed) {
  if (theta.size() != spec.ParamDim(pool)) return "full model has wrong size";
  for (Index j = 0; j < theta.size(); ++j) {
    if (!std::isfinite(theta[j])) return "full model is not finite";
  }
  if (cls == ModelClass::kLin) return VerifyNormalEquations(spec, pool, theta);
  return VerifyStationary(spec, pool, theta, seed);
}

double IndependentV(ModelClass cls, const Vector& theta_a,
                    const Vector& theta_b, const Dataset& holdout) {
  const Index n = holdout.num_rows();
  switch (cls) {
    case ModelClass::kPPCA: {
      const Index factors = theta_a.size() - 1;
      double dot = 0.0, na = 0.0, nb = 0.0;
      for (Index j = 0; j < factors; ++j) {
        dot += theta_a[j] * theta_b[j];
        na += theta_a[j] * theta_a[j];
        nb += theta_b[j] * theta_b[j];
      }
      return 1.0 - dot / std::sqrt(na * nb);
    }
    case ModelClass::kLin: {
      double se = 0.0, mean = 0.0, var = 0.0;
      for (Index i = 0; i < n; ++i) {
        const double d =
            RowDot(holdout, i, theta_a.data()) - RowDot(holdout, i, theta_b.data());
        se += d * d;
        mean += holdout.label(i);
      }
      mean /= static_cast<double>(n);
      for (Index i = 0; i < n; ++i) {
        var += (holdout.label(i) - mean) * (holdout.label(i) - mean);
      }
      const double sd = std::sqrt(var / static_cast<double>(n));
      return std::sqrt(se / static_cast<double>(n)) / (sd > 1e-12 ? sd : 1.0);
    }
    case ModelClass::kLR: {
      Index disagree = 0;
      for (Index i = 0; i < n; ++i) {
        const bool a = RowDot(holdout, i, theta_a.data()) >= 0.0;
        const bool b = RowDot(holdout, i, theta_b.data()) >= 0.0;
        disagree += a != b ? 1 : 0;
      }
      return static_cast<double>(disagree) / static_cast<double>(n);
    }
    case ModelClass::kME: {
      const Index classes = holdout.num_classes();
      const Index d = holdout.dim();
      auto argmax = [&](const Vector& theta, Index i) {
        Index best = 0;
        double best_score = RowDot(holdout, i, theta.data());
        for (Index k = 1; k < classes; ++k) {
          const double s = RowDot(holdout, i, theta.data() + k * d);
          if (s > best_score) {
            best = k;
            best_score = s;
          }
        }
        return best;
      };
      Index disagree = 0;
      for (Index i = 0; i < n; ++i) {
        disagree += argmax(theta_a, i) != argmax(theta_b, i) ? 1 : 0;
      }
      return static_cast<double>(disagree) / static_cast<double>(n);
    }
  }
  return 1.0;
}

double VTolerance(ModelClass cls, const Dataset& holdout) {
  if (cls == ModelClass::kLR || cls == ModelClass::kME) {
    return 1.0 / static_cast<double>(holdout.num_rows()) + 1e-12;
  }
  return 1e-9;
}

std::vector<double> RecomputePredictions(ModelClass cls, const Vector& theta,
                                         const std::vector<double>& features,
                                         std::int64_t rows, std::int64_t dim) {
  std::vector<double> out(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    double m = 0.0;
    for (std::int64_t j = 0; j < dim; ++j) {
      m += features[static_cast<std::size_t>(r * dim + j)] * theta[j];
    }
    out[static_cast<std::size_t>(r)] =
        cls == ModelClass::kLR ? (m >= 0.0 ? 1.0 : 0.0) : m;
  }
  return out;
}

std::string ComparePredictions(ModelClass cls, const Vector& theta,
                               const std::vector<double>& features,
                               std::int64_t rows, std::int64_t dim,
                               const std::vector<double>& predicted) {
  if (predicted.size() != static_cast<std::size_t>(rows)) {
    return "prediction count differs from the row count";
  }
  const std::vector<double> mine =
      RecomputePredictions(cls, theta, features, rows, dim);
  for (std::int64_t r = 0; r < rows; ++r) {
    double magnitude = 0.0, margin = 0.0;
    for (std::int64_t j = 0; j < dim; ++j) {
      const double t = features[static_cast<std::size_t>(r * dim + j)] * theta[j];
      magnitude += std::fabs(t);
      margin += t;
    }
    const double got = predicted[static_cast<std::size_t>(r)];
    const double want = mine[static_cast<std::size_t>(r)];
    const double slack = 1e-12 * (magnitude + 1.0);
    const bool ok = cls == ModelClass::kLR
                        ? (got == want || std::fabs(margin) <= slack)
                        : std::fabs(got - want) <= slack;
    if (!ok) return Fmt("row prediction %.17g, recomputed %.17g", got, want);
  }
  return "";
}

}  // namespace blinkbench
