#include "support/elastic_oracle.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/correlation.h"

namespace fuser {

Status ReferenceElasticLikelihood(const JointStatsProvider& stats,
                                  Mask providers, Mask nonproviders, int level,
                                  double* numerator, double* denominator) {
  if ((providers & nonproviders) != 0) {
    return Status::InvalidArgument("providers and nonproviders overlap");
  }
  if (level < 0) {
    return Status::InvalidArgument("level must be >= 0");
  }
  AggressiveFactors factors = ComputeAggressiveFactors(stats);

  JointQuality base = stats.Get(providers);
  const double r_p = providers == 0 ? 1.0 : base.recall;
  const double q_p = providers == 0 ? 1.0 : base.fpr;

  std::vector<int> n_bits = BitIndices(nonproviders);
  std::unordered_map<int, double> x_r;  // bit -> min(C+_i r_i, 1)
  std::unordered_map<int, double> x_q;
  long double r_sum = r_p;
  long double q_sum = q_p;
  for (int bit : n_bits) {
    JointQuality single = stats.Get(Mask{1} << bit);
    double xr = std::min(factors.c_plus[static_cast<size_t>(bit)] *
                             single.recall,
                         1.0);
    double xq = std::min(factors.c_minus[static_cast<size_t>(bit)] *
                             single.fpr,
                         1.0);
    x_r[bit] = xr;
    x_q[bit] = xq;
    r_sum *= (1.0 - xr);
    q_sum *= (1.0 - xq);
  }

  const int max_level = std::min(level, static_cast<int>(n_bits.size()));
  for (int l = 1; l <= max_level; ++l) {
    const int sign = (l % 2 == 0) ? 1 : -1;
    ForEachKSubset(nonproviders, l, [&](Mask sub) {
      JointQuality joint = stats.Get(providers | sub);
      double prod_r = r_p;
      double prod_q = q_p;
      ForEachBit(sub, [&](int bit) {
        prod_r *= x_r[bit];
        prod_q *= x_q[bit];
      });
      r_sum += sign * (static_cast<long double>(joint.recall) - prod_r);
      q_sum += sign * (static_cast<long double>(joint.fpr) - prod_q);
    });
  }
  *numerator = static_cast<double>(r_sum);
  *denominator = static_cast<double>(q_sum);
  return Status::OK();
}

}  // namespace fuser
