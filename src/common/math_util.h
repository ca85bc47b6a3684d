// Numeric helpers for probabilistic computations.
#ifndef FUSER_COMMON_MATH_UTIL_H_
#define FUSER_COMMON_MATH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace fuser {

/// Probabilities are clamped into [kProbEpsilon, 1 - kProbEpsilon] before
/// logs/ratios so that degenerate estimates (0 or 1) cannot produce
/// infinities.
inline constexpr double kProbEpsilon = 1e-9;

inline double ClampProb(double p) {
  return std::clamp(p, kProbEpsilon, 1.0 - kProbEpsilon);
}

/// Clamps into the closed unit interval (for quantities that may legally be
/// exactly 0 or 1, such as final posteriors).
inline double ClampUnit(double p) { return std::clamp(p, 0.0, 1.0); }

/// log(p) after clamping away from zero.
inline double SafeLog(double p) { return std::log(ClampProb(p)); }

/// Numerically stable log(exp(a) + exp(b)).
inline double LogAddExp(double a, double b) {
  if (a == -std::numeric_limits<double>::infinity()) return b;
  if (b == -std::numeric_limits<double>::infinity()) return a;
  double m = std::max(a, b);
  return m + std::log(std::exp(a - m) + std::exp(b - m));
}

/// Posterior from log-odds contribution: given mu = Pr(O|t)/Pr(O|~t) in log
/// space and prior alpha, returns 1 / (1 + (1-alpha)/alpha * exp(-log_mu)).
/// Equal, bit for bit, to PosteriorFromLogOdds(PriorLogOdds(alpha) +
/// log_mu), the form per-triple loops use to take the log once.
double PosteriorFromLogMu(double log_mu, double alpha);

/// log(alpha / (1 - alpha)) of the clamped prior.
double PriorLogOdds(double alpha);

/// 1 / (1 + exp(-log_odds)), computed on the side that cannot overflow.
inline double PosteriorFromLogOdds(double log_odds) {
  if (log_odds > 0) {
    return 1.0 / (1.0 + std::exp(-log_odds));
  }
  const double e = std::exp(log_odds);
  return e / (1.0 + e);
}

/// Harmonic mean of precision and recall; 0 when both are 0.
inline double F1Score(double precision, double recall) {
  double denom = precision + recall;
  if (denom <= 0.0) return 0.0;
  return 2.0 * precision * recall / denom;
}

/// True when |a - b| <= tol (absolute tolerance).
inline bool NearlyEqual(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

/// Mean of v; 0 for empty input.
double Mean(const std::vector<double>& v);

}  // namespace fuser

#endif  // FUSER_COMMON_MATH_UTIL_H_
