#include "support/paper_math.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/math_util.h"

namespace fuser {

double DeriveFalsePositiveRate(double precision, double recall, double alpha) {
  precision = ClampProb(precision);
  alpha = ClampProb(alpha);
  double q = alpha / (1.0 - alpha) * (1.0 - precision) / precision * recall;
  return std::clamp(q, 0.0, 1.0);
}

bool FprDerivationValid(double precision, double recall, double alpha) {
  double denom = precision + recall - precision * recall;
  if (denom <= 0.0) return false;
  return alpha <= precision / denom + 1e-12;
}

double PosteriorFromMu(double mu, double alpha) {
  if (!(mu > 0.0) || !std::isfinite(mu)) {
    // mu <= 0 means the observation is impossible under t=true relative to
    // t=false; mu == +inf means impossible under t=false.
    if (std::isinf(mu) && mu > 0) return 1.0;
    return 0.0;
  }
  return PosteriorFromLogMu(std::log(mu), alpha);
}

namespace {

size_t SupersetCount(
    const std::vector<EmpiricalJointStatsState::PatternCount>& patterns,
    Mask subset) {
  size_t count = 0;
  for (const auto& p : patterns) {
    if ((p.providers & subset) == subset) count += p.count;
  }
  return count;
}

}  // namespace

size_t CountTrueSuperset(const EmpiricalJointStats& stats, Mask subset) {
  return SupersetCount(stats.ExportState().true_patterns, subset);
}

size_t CountFalseSuperset(const EmpiricalJointStats& stats, Mask subset) {
  return SupersetCount(stats.ExportState().false_patterns, subset);
}

uint64_t BinomialCoefficient(int n, int k) {
  if (k < 0 || k > n) return 0;
  if (k > n - k) k = n - k;
  uint64_t result = 1;
  for (int i = 1; i <= k; ++i) {
    // result *= (n - k + i) / i, in a form that stays integral.
    uint64_t num = static_cast<uint64_t>(n - k + i);
    if (result > std::numeric_limits<uint64_t>::max() / num) {
      return std::numeric_limits<uint64_t>::max();
    }
    result = result * num / static_cast<uint64_t>(i);
  }
  return result;
}

double StdDev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double m = Mean(v);
  double ss = 0.0;
  for (double x : v) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(v.size() - 1));
}

}  // namespace fuser
