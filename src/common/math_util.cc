#include "common/math_util.h"

namespace fuser {

double PosteriorFromLogMu(double log_mu, double alpha) {
  // Pr = 1 / (1 + (1-a)/a * exp(-log_mu)) computed stably via log-odds:
  // log_odds = log(a/(1-a)) + log_mu.
  return PosteriorFromLogOdds(PriorLogOdds(alpha) + log_mu);
}

double PriorLogOdds(double alpha) {
  alpha = ClampProb(alpha);
  return std::log(alpha / (1.0 - alpha));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

}  // namespace fuser
