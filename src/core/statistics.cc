#include "core/statistics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/kernels.h"
#include "obs/trace.h"
#include "runtime/parallel.h"
#include "util/string_util.h"

namespace blinkml {

namespace {

using Index = Matrix::Index;

// InverseGradients is O(p) gradient calls and O(p^2) memory; beyond this
// it is always the wrong tool (the paper's own Figure 9b measures the
// blowup at p = 7840).
constexpr Index kInverseGradientsDimLimit = 16384;

// Dense-factor construction shared by ClosedForm and InverseGradients:
// J = H - beta I = V L V^T (clamped PSD), W = H^-1 V L^{1/2}.
Result<ParamSampler> FactorFromDenseHessian(const Matrix& h, double beta) {
  Matrix j = h;
  j.AddToDiagonal(-beta);
  BLINKML_ASSIGN_OR_RETURN(SymmetricEigen eig, EigenSym(j));
  const Index p = h.rows();
  // Scale columns of V by sqrt(max(lambda, 0)).
  Matrix v_scaled = eig.eigenvectors;
  for (Index c = 0; c < p; ++c) {
    const double s = std::sqrt(std::max(eig.eigenvalues[c], 0.0));
    for (Index r = 0; r < p; ++r) v_scaled(r, c) *= s;
  }
  Result<Cholesky> chol = Cholesky::Factor(h);
  if (!chol.ok()) {
    return Status::InvalidArgument(
        "Hessian is not positive definite: " + chol.status().ToString());
  }
  Matrix w = chol->Solve(v_scaled);
  return ParamSampler::FromDenseFactor(std::move(w));
}

Result<ParamSampler> ComputeClosedForm(const ModelSpec& spec,
                                       const Vector& theta,
                                       const Dataset& sample) {
  if (!spec.has_closed_form_hessian()) {
    return Status::InvalidArgument(spec.name() +
                                   " has no closed-form Hessian");
  }
  BLINKML_ASSIGN_OR_RETURN(Matrix h, spec.ClosedFormHessian(theta, sample));
  return FactorFromDenseHessian(h, spec.l2());
}

Result<ParamSampler> ComputeInverseGradients(const ModelSpec& spec,
                                             const Vector& theta,
                                             const Dataset& sample,
                                             const StatsOptions& options) {
  const Index p = theta.size();
  if (p > kInverseGradientsDimLimit) {
    return Status::InvalidArgument(StrFormat(
        "InverseGradients needs %lld gradient calls and O(p^2) memory; "
        "use ObservedFisher for p > %lld",
        static_cast<long long>(p),
        static_cast<long long>(kInverseGradientsDimLimit)));
  }
  const double eps = options.fd_epsilon;
  BLINKML_CHECK_GT(eps, 0.0);
  Vector g0;
  spec.Gradient(theta, sample, &g0);
  Matrix h(p, p);
  Vector perturbed = theta;
  Vector g(p);
  for (Index j = 0; j < p; ++j) {
    perturbed[j] = theta[j] + eps;
    spec.Gradient(perturbed, sample, &g);
    perturbed[j] = theta[j];
    for (Index r = 0; r < p; ++r) h(r, j) = (g[r] - g0[r]) / eps;
  }
  // Finite differences break exact symmetry; restore it.
  for (Index r = 0; r < p; ++r) {
    for (Index c = r + 1; c < p; ++c) {
      const double v = 0.5 * (h(r, c) + h(c, r));
      h(r, c) = v;
      h(c, r) = v;
    }
  }
  return FactorFromDenseHessian(h, spec.l2());
}

}  // namespace

// The tiled scatter/gather kernel (linalg/kernels.cc) pays the
// column-intersection state once per row tile, which is what makes
// ObservedFisher practical on hashed/bag-of-words features.
Matrix SparseGradientGram(const SparseMatrix& q) {
  obs::SpanScope span("kernel:SparseGram", "kernel", "rows",
                      static_cast<long long>(q.rows()));
  kernels::NoteKernelDispatch("SparseGram");
  return kernels::SparseGram(q);
}

namespace {

// Covariance estimate from a cached candidate-independent feature Gram:
// gram(i, j) = (c_i / sqrt(n_s)) (c_j / sqrt(n_s)) gram_x(i, j). Shared by
// the sparse and dense rescale paths.
Matrix RescaledGram(const Matrix& gram_x, const Vector& coeffs,
                    double row_scale) {
  const Index n = gram_x.rows();
  // Fold the 1/sqrt(n_s) row scaling into the coefficients so the rescale
  // lands directly on the covariance estimate.
  Vector scaled = coeffs;
  scaled *= row_scale;
  Matrix gram(n, n);
  ParallelFor(0, n, [&](Index i0, Index i1) {
    for (Index i = i0; i < i1; ++i) {
      const double si = scaled[i];
      const double* src = gram_x.row_data(i);
      double* dst = gram.row_data(i);
      for (Index j = 0; j < n; ++j) dst[j] = si * scaled[j] * src[j];
    }
  });
  return gram;
}

// Small-parameter-dimension path: when p <= n_s it is cheaper to form
// J = Q^T Q (p x p) directly and eigendecompose it, yielding the dense
// factor W = V diag(sqrt(l)/(l + beta)) with W W^T = H^-1 J H^-1.
// ObservedFisher rests on the information-matrix equality J ~= Hessian.
// On an (unregularized) model that nearly interpolates its sample, the
// per-example gradients — and hence J — are numerically zero while the
// true Hessian is O(1): the equality collapses and the implied variances
// 1/lambda explode. Detect and reject rather than return garbage. (With
// L2 regularization the case is benign: variances lambda/(lambda+beta)^2
// vanish as lambda -> 0.)
Status CheckObservedInformation(double lambda_max, double beta) {
  if (lambda_max <= 0.0) {
    return Status::InvalidArgument(
        "all per-example gradients are zero; no parameter uncertainty");
  }
  if (beta == 0.0 && lambda_max < 1e-12) {
    return Status::InvalidArgument(
        "per-example gradients are numerically zero (near-exact fit with "
        "no regularization): the information-matrix equality does not "
        "hold and no finite-variance estimate exists");
  }
  return Status::OK();
}

Result<ParamSampler> ObservedFisherSmallDim(const ModelSpec& spec,
                                            const Vector& theta,
                                            const Dataset& stats_rows,
                                            const StatsOptions& options) {
  Matrix q;
  spec.PerExampleGradients(theta, stats_rows, &q);
  q *= 1.0 / std::sqrt(static_cast<double>(stats_rows.num_rows()));
  Matrix j = GramCols(q);  // p x p
  BLINKML_ASSIGN_OR_RETURN(SymmetricEigen eig, EigenSym(j));
  const Index p = j.rows();
  double lambda_max = 0.0;
  for (Index i = 0; i < p; ++i) {
    lambda_max = std::max(lambda_max, eig.eigenvalues[i]);
  }
  BLINKML_RETURN_NOT_OK(CheckObservedInformation(lambda_max, spec.l2()));
  const double floor = options.eigenvalue_floor_rel * lambda_max;
  const double beta = spec.l2();
  Matrix w(p, p);
  for (Index c = 0; c < p; ++c) {
    const double l = eig.eigenvalues[c];
    if (l <= floor) continue;  // zero column: no variance in that direction
    const double scale = std::sqrt(l) / (l + beta);
    for (Index r = 0; r < p; ++r) {
      w(r, c) = eig.eigenvectors(r, c) * scale;
    }
  }
  return ParamSampler::FromDenseFactor(std::move(w));
}

Result<ParamSampler> ComputeObservedFisher(const ModelSpec& spec,
                                           const Vector& theta,
                                           const Dataset& sample,
                                           const StatsOptions& options,
                                           Rng* rng) {
  const Index n = sample.num_rows();
  Index n_s = options.stats_sample_size;
  if (n_s <= 0 || n_s > n) n_s = n;
  const Dataset stats_rows =
      (n_s == n) ? sample : sample.SampleRows(n_s, rng);

  if (theta.size() <= n_s) {
    return ObservedFisherSmallDim(spec, theta, stats_rows, options);
  }

  const bool sparse_path =
      stats_rows.is_sparse() && spec.has_sparse_gradients();
  const double row_scale = 1.0 / std::sqrt(static_cast<double>(n_s));
  // True when the 1/sqrt(n_s) row scaling was folded into the Gram's
  // coefficients instead of the factor matrix Q (both rescale paths); the
  // sampler operator then re-applies it through V.
  bool folded_row_scale = false;

  SparseMatrix q_sparse;
  Matrix q_dense;
  Matrix gram;
  if (sparse_path) {
    if (options.reuse_feature_gram && spec.has_gradient_coeffs()) {
      // Structure-sharing path: Q = diag(c) X, so
      //   Gram(Q)(i, j) = c_i c_j Gram(X)(i, j).
      // Gram(X) is candidate-independent — pay its O(n^2 * overlap)
      // sorted merge once (per cache key when a session cache is wired
      // in) and give each candidate an O(n^2) rescale. The scaled Q
      // aliases X's CSR structure (linalg/sparse.h), so the sampler
      // factor costs only the values.
      Vector coeffs;
      spec.PerExampleGradientCoeffs(theta, stats_rows, &coeffs);
      const SparseMatrix& x = stats_rows.sparse();
      const auto factory = [&x] { return SparseGradientGram(x); };
      std::shared_ptr<const Matrix> gram_x =
          options.gram_cache
              ? options.gram_cache->GetOrCreate(options.gram_key, factory)
              : std::make_shared<const Matrix>(factory());
      // A key collision (e.g. one cache fed by configs with different
      // stats_sample_size) must fail loudly, not read out of bounds.
      BLINKML_CHECK_EQ(gram_x->rows(), n_s);
      gram = RescaledGram(*gram_x, coeffs, row_scale);
      folded_row_scale = true;
      q_sparse = x.ScaleRows(coeffs);
    } else {
      // Per-candidate merge path (multi-output specs such as max_entropy,
      // and the opt-out oracle for the rescale algebra above).
      q_sparse = spec.PerExampleGradientsSparse(theta, stats_rows);
      // Scale rows by 1/sqrt(n_s) so J = Q^T Q is the covariance estimate:
      // rebuild with scaled values (CSR values are contiguous; rescale via
      // Gram on the unscaled matrix and adjust eigenvalues instead).
      gram = SparseGradientGram(q_sparse);
      gram *= row_scale * row_scale;
      folded_row_scale = true;
    }
  } else if (options.reuse_feature_gram && spec.has_gradient_coeffs() &&
             !stats_rows.is_sparse()) {
    // Dense rescale path: the identity Gram(diag(c) X) = diag(c) Gram(X)
    // diag(c) holds for dense X too, and Gram(X) — the O(n_s^2 d) part —
    // is candidate-independent, so mid-size dense searches share it
    // through the same cache the sparse path uses.
    Vector coeffs;
    spec.PerExampleGradientCoeffs(theta, stats_rows, &coeffs);
    const Matrix& x = stats_rows.dense();
    const auto factory = [&x] { return GramRows(x); };
    std::shared_ptr<const Matrix> gram_x =
        options.gram_cache
            ? options.gram_cache->GetOrCreate(options.gram_key, factory)
            : std::make_shared<const Matrix>(factory());
    BLINKML_CHECK_EQ(gram_x->rows(), n_s);
    gram = RescaledGram(*gram_x, coeffs, row_scale);
    folded_row_scale = true;
    // The factor Q = diag(c) X carries the raw coefficients; the sampler
    // operator re-applies row_scale through V below, as the sparse path
    // does.
    q_dense = Matrix(n_s, x.cols());
    ParallelFor(0, n_s, [&](Index i0, Index i1) {
      for (Index i = i0; i < i1; ++i) {
        const double ci = coeffs[i];
        const double* src = x.row_data(i);
        double* dst = q_dense.row_data(i);
        for (Index j = 0; j < x.cols(); ++j) dst[j] = ci * src[j];
      }
    });
  } else {
    spec.PerExampleGradients(theta, stats_rows, &q_dense);
    q_dense *= row_scale;
    gram = GramRows(q_dense);
  }

  BLINKML_ASSIGN_OR_RETURN(SymmetricEigen eig, EigenSym(gram));

  // Eigenvalues ascending. Drop numerically-zero directions, weight the
  // rest by their sampler variance contribution l/(l+beta)^2, keep the
  // top max_rank.
  const double beta = spec.l2();
  const Index m = eig.eigenvalues.size();
  double lambda_max = 0.0;
  for (Index i = 0; i < m; ++i) {
    lambda_max = std::max(lambda_max, eig.eigenvalues[i]);
  }
  BLINKML_RETURN_NOT_OK(CheckObservedInformation(lambda_max, beta));
  const double floor = options.eigenvalue_floor_rel * lambda_max;
  struct Direction {
    Index index;
    double lambda;
    double contribution;  // l / (l + beta)^2
  };
  std::vector<Direction> dirs;
  dirs.reserve(static_cast<std::size_t>(m));
  double total_contribution = 0.0;
  for (Index i = 0; i < m; ++i) {
    const double l = eig.eigenvalues[i];
    if (l <= floor) continue;
    const double denom = l + beta;
    const double contribution = l / (denom * denom);
    dirs.push_back({i, l, contribution});
    total_contribution += contribution;
  }
  if (dirs.empty()) {
    return Status::InvalidArgument("gradient covariance has rank zero");
  }
  std::sort(dirs.begin(), dirs.end(), [](const Direction& a,
                                         const Direction& b) {
    return a.contribution > b.contribution;
  });
  Index rank = static_cast<Index>(dirs.size());
  if (options.max_rank > 0 && rank > options.max_rank) {
    rank = options.max_rank;
  }
  double kept_contribution = 0.0;
  for (Index i = 0; i < rank; ++i) {
    kept_contribution += dirs[static_cast<std::size_t>(i)].contribution;
  }

  // V_scaled column j = V[:, dirs[j]] / (lambda_j + beta). On the rescale
  // paths the (1/sqrt(n_s)) row scaling was folded into the eigenvalues,
  // so rescale the operator: W = (Q_raw * row_scale)^T V diag(1/(l+beta))
  // = Q_raw^T (row_scale * V diag(1/(l+beta))).
  Matrix v_scaled(m, rank);
  for (Index j = 0; j < rank; ++j) {
    const Direction& dir = dirs[static_cast<std::size_t>(j)];
    const double scale =
        (folded_row_scale ? row_scale : 1.0) / (dir.lambda + beta);
    for (Index r = 0; r < m; ++r) {
      v_scaled(r, j) = eig.eigenvectors(r, dir.index) * scale;
    }
  }

  ParamSampler sampler =
      sparse_path
          ? ParamSampler::FromSparseGramFactor(std::move(q_sparse),
                                               std::move(v_scaled))
          : ParamSampler::FromGramFactor(std::move(q_dense),
                                         std::move(v_scaled));
  double dropped = total_contribution > 0.0
                       ? 1.0 - kept_contribution / total_contribution
                       : 0.0;
  if (dropped < 1e-12) dropped = 0.0;  // snap round-off to exact zero
  sampler.set_dropped_variance_fraction(dropped);
  return sampler;
}

}  // namespace

Result<ParamSampler> ComputeStatistics(const ModelSpec& spec,
                                       const Vector& theta,
                                       const Dataset& sample,
                                       const StatsOptions& options, Rng* rng) {
  if (sample.num_rows() == 0) {
    return Status::InvalidArgument("empty sample");
  }
  if (theta.size() != spec.ParamDim(sample)) {
    return Status::InvalidArgument("theta dimension mismatch");
  }
  switch (options.method) {
    case StatsMethod::kClosedForm:
      return ComputeClosedForm(spec, theta, sample);
    case StatsMethod::kInverseGradients:
      return ComputeInverseGradients(spec, theta, sample, options);
    case StatsMethod::kObservedFisher:
      return ComputeObservedFisher(spec, theta, sample, options, rng);
  }
  return Status::Internal("unknown statistics method");
}

}  // namespace blinkml
