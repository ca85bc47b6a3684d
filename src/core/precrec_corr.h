// PrecRecCorr: exact fusion of correlated sources (Theorem 4.2).
//
// Within each correlation cluster, the likelihood of the observation
// "providers P provide t, in-scope non-providers N do not" is computed by
// inclusion-exclusion over the subsets of N (Eqs. 10-11):
//
//   Pr(Ot | t)  = sum_{S* subseteq N} (-1)^{|S*|} r_{P union S*}
//   Pr(Ot | !t) = sum_{S* subseteq N} (-1)^{|S*|} q_{P union S*}
//
// Clusters are assumed mutually independent, so the per-cluster likelihoods
// multiply. Two evaluation strategies:
//
//  * direct: when the joint statistics are unsmoothed empirical counts with
//    shared denominators, the alternating sum telescopes to an exact
//    pattern count (O(#distinct patterns) per lookup, no 2^|N| blowup and
//    no catastrophic cancellation), in the paper's literal form or the
//    calibrated one (JointStatsProvider::DirectPatternLikelihood);
//  * term summation: the literal alternating sum, used for explicit
//    (user-supplied) parameters and smoothed counts. Exponential in |N|;
//    refused above kMaxTermSummationNonproviders.
//
// The strategy of each cluster follows from its statistics alone
// (SupportsDirectLikelihood); no option overrides it. Identical
// observation patterns are computed once and shared.
#ifndef FUSER_CORE_PRECREC_CORR_H_
#define FUSER_CORE_PRECREC_CORR_H_

#include "common/status.h"
#include "core/correlation_model.h"
#include "core/pattern_pipeline.h"

namespace fuser {

/// The most in-scope non-providers one cluster observation may have under
/// term summation. One such query costs 2^|N| joint lookups, so 24 caps a
/// single ad-hoc observation at ~1.7 x 10^7 lookups where the 64-source
/// cluster cap would allow 2^63. The direct strategy has no such limit.
inline constexpr int kMaxTermSummationNonproviders = 24;

struct PrecRecCorrOptions {
  /// Use the calibrated direct likelihood (naive Bayes over cluster
  /// patterns) instead of the paper's literal alpha-scaled q form when the
  /// joint-stats provider supports the direct strategy. The literal form
  /// is faithful per cluster but not a consistent measure across many
  /// clusters (see JointStatsProvider::DirectPatternLikelihood); defaults
  /// to calibrated. Ignored for explicit (user-supplied) or smoothed
  /// statistics.
  bool calibrated_likelihood = true;
};

/// PrecRecCorr's pattern-scoring plan over `model`: the per-pattern scorer
/// (with the batched whole-cluster path) plus the combine prior. The plan
/// captures `model` by pointer and every per-cluster strategy decision by
/// value, so it can be stored in a FusionSnapshot and invoked from any
/// reader thread — `model` must outlive the plan (snapshots share
/// ownership of it). ScorePlan (core/pattern_pipeline.h) runs it over a
/// whole dataset.
///
/// Clusters whose statistics support the direct strategy are scored
/// through the batched JointStatsProvider::ScoreAllPatterns path — all of
/// a cluster's distinct patterns in one pass over the training patterns —
/// and answer single patterns with DirectPatternLikelihood; explicit or
/// smoothed statistics fall back to term summation.
StatusOr<PatternScoringPlan> MakePrecRecCorrPlan(
    const CorrelationModel& model, const PrecRecCorrOptions& options);

/// Computes the per-cluster likelihood pair for observation (P, N) by the
/// literal inclusion-exclusion sum. Exposed for tests and for the worked
/// examples of Section 4.1.
Status TermSummationLikelihood(const JointStatsProvider& stats,
                               Mask providers, Mask nonproviders,
                               double* pr_given_true, double* pr_given_false);

}  // namespace fuser

#endif  // FUSER_CORE_PRECREC_CORR_H_
