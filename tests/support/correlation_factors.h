// The correlation factors of Eqs. 16-17 for an arbitrary source subset,
// kept out of the production library: no method scores through them (the
// aggressive and elastic approximations use the leave-one-out factors of
// core/correlation.h), but they pin the paper's definition of correlation
// in tests/correlation_test.cc and tests/paper_example_test.cc. Built into
// the fuser_test_support library.
#ifndef FUSER_TESTS_SUPPORT_CORRELATION_FACTORS_H_
#define FUSER_TESTS_SUPPORT_CORRELATION_FACTORS_H_

#include "common/bit_util.h"
#include "core/correlation.h"
#include "core/joint_stats.h"

namespace fuser {

/// Computes C_{S*} and C!_{S*} from joint statistics. Degenerate singleton
/// recalls/fprs (zero) yield a neutral factor of 1.
CorrelationFactors ComputeCorrelationFactors(const JointStatsProvider& stats,
                                             Mask subset);

}  // namespace fuser

#endif  // FUSER_TESTS_SUPPORT_CORRELATION_FACTORS_H_
