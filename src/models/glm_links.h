// Per-row arithmetic of the single-output GLMs: the links the shared
// drivers in models/glm_parallel.h are instantiated with. Each link maps a
// margin m = <x_i, theta> (and label y) to the gradient coefficient
// (Coeff), the fused loss + coefficient (LossAndCoeff, sharing one
// transcendental between the two) and the prediction (Predict).

#ifndef BLINKML_MODELS_GLM_LINKS_H_
#define BLINKML_MODELS_GLM_LINKS_H_

#include <algorithm>
#include <cmath>

#include "models/logistic_regression.h"

namespace blinkml {
namespace internal {

/// exp with the argument clamped so a transient optimizer step into an
/// extreme region degrades gracefully instead of overflowing to inf (the
/// objective stays finite and the line search backtracks out).
inline double SafeExp(double z) { return std::exp(std::min(z, 500.0)); }

/// Least squares: the residual is the loss root and the gradient
/// coefficient at once.
struct LinearLink {
  double Coeff(double m, double y) const { return m - y; }
  double LossAndCoeff(double m, double y, double* coeff) const {
    const double r = m - y;
    *coeff = r;
    return 0.5 * r * r;
  }
  double Predict(double m) const { return m; }
};

/// Logistic: LossAndCoeff shares one exp between the loss and the sigmoid.
struct LogisticLink {
  double Coeff(double m, double y) const {
    return LogisticRegressionSpec::Sigmoid(m) - y;
  }
  double LossAndCoeff(double m, double y, double* coeff) const {
    if (m >= 0.0) {
      const double e = std::exp(-m);  // e in (0, 1]: both branches stable
      *coeff = 1.0 / (1.0 + e) - y;
      return m + std::log1p(e) - y * m;
    }
    const double e = std::exp(m);
    *coeff = e / (1.0 + e) - y;
    return std::log1p(e) - y * m;
  }
  double Predict(double m) const { return m >= 0.0 ? 1.0 : 0.0; }
};

/// Poisson (log link): the fused form pays SafeExp once for loss and
/// coefficient.
struct PoissonLink {
  double Coeff(double m, double y) const { return SafeExp(m) - y; }
  double LossAndCoeff(double m, double y, double* coeff) const {
    const double rate = SafeExp(m);
    *coeff = rate - y;
    return rate - y * m;
  }
  double Predict(double m) const { return SafeExp(m); }
};

}  // namespace internal
}  // namespace blinkml

#endif  // BLINKML_MODELS_GLM_LINKS_H_
