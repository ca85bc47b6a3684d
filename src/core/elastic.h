// Elastic approximation (Algorithm 1): tunable accuracy between the
// aggressive approximation and the exact solution.
//
// Within a cluster with providers P and in-scope non-providers N:
//
//   level 0:  R = r_P * prod_{i in N} (1 - C+_i r_i)
//             Q = q_P * prod_{i in N} (1 - C-_i q_i)
//   level l (1 <= l <= lambda): for every S* subseteq N with |S*| = l,
//             R += (-1)^l ( r_{P u S*} - r_P * prod_{i in S*} C+_i r_i )
//             Q += (-1)^l ( q_{P u S*} - q_P * prod_{i in S*} C-_i q_i )
//
// i.e., each level replaces the approximate coefficient of the degree
// |P|+l terms with the exact joint statistic. At lambda = |N| the result
// equals the exact inclusion-exclusion sum of Theorem 4.2 regardless of
// clamping, because the approximate products cancel telescopically.
// Complexity is O(m * n^lambda) (Proposition 4.11).
#ifndef FUSER_CORE_ELASTIC_H_
#define FUSER_CORE_ELASTIC_H_

#include "common/status.h"
#include "core/correlation_model.h"
#include "core/pattern_pipeline.h"

namespace fuser {

/// Elastic's pattern-scoring plan over `model` at adjustment level
/// `level` >= 0 (level 0 is the already level-adjusted starting point of
/// Algorithm 1; higher levels refine toward the exact solution): the
/// per-pattern scorer plus the combine prior (model.alpha).
///
/// The factors C+_i, C-_i and the clamped rates x_i = min(C_i r_i, 1) are
/// per-cluster constants: the plan computes them once, from 3k+1 joint
/// lookups per k-source cluster, and its scorer shares them, so scoring a
/// pattern costs only its subset terms and allocates nothing. The scorer
/// captures `model` by pointer — it must outlive the plan (snapshots share
/// ownership of it) — and the rates by shared ownership; it is safe to
/// invoke from any reader thread. ScorePlan (core/pattern_pipeline.h) runs
/// it over a whole dataset.
StatusOr<PatternScoringPlan> MakeElasticPlan(const CorrelationModel& model,
                                             int level);

}  // namespace fuser

#endif  // FUSER_CORE_ELASTIC_H_
