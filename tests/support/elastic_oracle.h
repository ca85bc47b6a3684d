// Reference of elastic's per-pattern likelihood (Algorithm 1) that
// recomputes everything on every call: the cluster's aggressive factors
// (2k+1 joint lookups), the clamped rates of the pattern's non-providers,
// and the l-subsets of each level through ForEachKSubset. The production
// plan (MakeElasticPlan, core/elastic.h) computes the per-cluster constants
// once; tests/elastic_oracle_test.cc asserts its scorer byte-identical to
// this reference. Part of the fuser_test_support library.
#ifndef FUSER_TESTS_SUPPORT_ELASTIC_ORACLE_H_
#define FUSER_TESTS_SUPPORT_ELASTIC_ORACLE_H_

#include "common/bit_util.h"
#include "common/status.h"
#include "core/joint_stats.h"

namespace fuser {

/// Elastic numerator/denominator of one cluster for observation (P, N) at
/// adjustment level `level` >= 0.
Status ReferenceElasticLikelihood(const JointStatsProvider& stats,
                                  Mask providers, Mask nonproviders, int level,
                                  double* numerator, double* denominator);

}  // namespace fuser

#endif  // FUSER_TESTS_SUPPORT_ELASTIC_ORACLE_H_
