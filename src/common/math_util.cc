#include "common/math_util.h"

namespace fuser {

double PosteriorFromLogMu(double log_mu, double alpha) {
  alpha = ClampProb(alpha);
  // Pr = 1 / (1 + (1-a)/a * exp(-log_mu)) computed stably via log-odds:
  // log_odds = log(a/(1-a)) + log_mu.
  double log_odds = std::log(alpha / (1.0 - alpha)) + log_mu;
  if (log_odds > 0) {
    return 1.0 / (1.0 + std::exp(-log_odds));
  }
  double e = std::exp(log_odds);
  return e / (1.0 + e);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

}  // namespace fuser
