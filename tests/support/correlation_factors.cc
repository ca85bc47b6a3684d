#include "support/correlation_factors.h"

namespace fuser {

CorrelationFactors ComputeCorrelationFactors(const JointStatsProvider& stats,
                                             Mask subset) {
  CorrelationFactors factors;
  if (PopCount(subset) < 2) {
    return factors;  // singletons and the empty set are trivially neutral
  }
  JointQuality joint = stats.Get(subset);
  double prod_r = 1.0;
  double prod_q = 1.0;
  ForEachBit(subset, [&](int i) {
    JointQuality single = stats.Get(Mask{1} << i);
    prod_r *= single.recall;
    prod_q *= single.fpr;
  });
  factors.on_true = prod_r > 0.0 ? joint.recall / prod_r : 1.0;
  factors.on_false = prod_q > 0.0 ? joint.fpr / prod_q : 1.0;
  return factors;
}

}  // namespace fuser
