// Correctness oracles written apart from the program: they recompute what
// the program returns from definitions, with the benchmark's own loops,
// and never reuse the program's result as the reference.

#ifndef BLINKBENCH_ORACLES_H_
#define BLINKBENCH_ORACLES_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "linalg/vector.h"
#include "models/model_spec.h"

namespace blinkbench {

/// Model classes of the paper's evaluation.
enum class ModelClass { kLin, kLR, kME, kPPCA };
const char* ModelClassName(ModelClass cls);

/// Checks that `theta` is the full model of `spec` on `pool`:
///  - Lin: against an independent Cholesky solve of the regularized normal
///    equations (X^T X / n + l2 I) theta = X^T y / n;
///  - LR, ME, PPCA: the objective is stationary at theta — central finite
///    differences of spec.Objective along seeded random unit directions are
///    near zero. Objective values come from the program, the directions and
///    the differencing do not.
/// Returns "" when the check passes, else what failed.
std::string VerifyFullModel(ModelClass cls, const blinkml::ModelSpec& spec,
                            const blinkml::Dataset& pool,
                            const blinkml::Vector& theta,
                            std::uint64_t seed);

/// v(theta_a, theta_b) from the paper's definitions (Appendix C), computed
/// with the benchmark's own loops: the disagreement rate of predicted
/// labels (LR, ME), the RMS prediction difference over the label standard
/// deviation (Lin), and 1 - cosine of the factor blocks (PPCA).
double IndependentV(ModelClass cls, const blinkml::Vector& theta_a,
                    const blinkml::Vector& theta_b,
                    const blinkml::Dataset& holdout);

/// Largest gap between IndependentV and the program's Diff that still
/// counts as agreement: one holdout row for label-disagreement classes (a
/// margin within rounding of 0 may flip), rounding otherwise.
double VTolerance(ModelClass cls, const blinkml::Dataset& holdout);

/// Predictions for `rows` dense rows of width `dim` (row-major) from theta,
/// recomputed with the benchmark's own dot products: 0/1 labels for LR
/// (margin >= 0), values for Lin.
std::vector<double> RecomputePredictions(ModelClass cls,
                                         const blinkml::Vector& theta,
                                         const std::vector<double>& features,
                                         std::int64_t rows, std::int64_t dim);

/// Compares program predictions with RecomputePredictions: LR labels must
/// match except where |margin| is within rounding of 0; Lin values must
/// agree to rounding. Returns "" on agreement.
std::string ComparePredictions(ModelClass cls, const blinkml::Vector& theta,
                               const std::vector<double>& features,
                               std::int64_t rows, std::int64_t dim,
                               const std::vector<double>& predicted);

}  // namespace blinkbench

#endif  // BLINKBENCH_ORACLES_H_
