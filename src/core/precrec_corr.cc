#include "core/precrec_corr.h"

#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/math_util.h"

namespace fuser {

Status TermSummationLikelihood(const JointStatsProvider& stats,
                               Mask providers, Mask nonproviders,
                               double* pr_given_true,
                               double* pr_given_false) {
  if ((providers & nonproviders) != 0) {
    return Status::InvalidArgument("providers and nonproviders overlap");
  }
  long double sum_true = 0.0L;
  long double sum_false = 0.0L;
  ForEachSubmask(nonproviders, [&](Mask sub) {
    const int sign = (PopCount(sub) % 2 == 0) ? 1 : -1;
    JointQuality joint = stats.Get(providers | sub);
    sum_true += sign * static_cast<long double>(joint.recall);
    sum_false += sign * static_cast<long double>(joint.fpr);
  });
  *pr_given_true = static_cast<double>(sum_true);
  *pr_given_false = static_cast<double>(sum_false);
  return Status::OK();
}

StatusOr<PatternScoringPlan> MakePrecRecCorrPlan(
    const CorrelationModel& model, const PrecRecCorrOptions& options) {
  if (model.cluster_stats.size() != model.clustering.clusters.size()) {
    return Status::InvalidArgument("model cluster_stats/clusters mismatch");
  }
  const size_t num_clusters = model.clustering.clusters.size();

  // Pick the evaluation strategy per cluster, once; the closures capture
  // the decisions by value and the model by pointer.
  std::vector<char> use_direct(num_clusters, 0);
  for (size_t c = 0; c < num_clusters; ++c) {
    use_direct[c] = model.cluster_stats[c]->SupportsDirectLikelihood();
  }
  const bool calibrated = options.calibrated_likelihood;

  PatternScoringPlan plan;
  const CorrelationModel* model_ptr = &model;
  // Direct clusters score all their distinct patterns in one batched pass
  // (no repeated training-pattern rescans); term summation stays
  // per-pattern.
  plan.batch = [model_ptr, use_direct, calibrated](
                   size_t c, const std::vector<PatternKey>& keys,
                   std::vector<PatternLikelihood>* out) -> StatusOr<bool> {
    if (!use_direct[c]) return false;
    std::vector<PatternQuery> queries(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      queries[i] = {keys[i].providers, keys[i].nonproviders};
    }
    std::vector<std::pair<double, double>> pairs;
    FUSER_RETURN_IF_ERROR(model_ptr->cluster_stats[c]->ScoreAllPatterns(
        queries, calibrated, &pairs));
    for (size_t i = 0; i < keys.size(); ++i) {
      (*out)[i].given_true = pairs[i].first;
      (*out)[i].given_false = pairs[i].second;
    }
    return true;
  };
  // Per-pattern path: the direct strategy answers one pattern at a time
  // (the serving layer's ad-hoc observations), with term summation as the
  // fallback for explicit or smoothed statistics.
  plan.scorer = [model_ptr, use_direct, calibrated](
                    size_t c, const PatternKey& key, double* given_true,
                    double* given_false) -> Status {
    const JointStatsProvider& stats = *model_ptr->cluster_stats[c];
    if (use_direct[c]) {
      return stats.DirectPatternLikelihood(key.providers, key.nonproviders,
                                           calibrated, given_true,
                                           given_false);
    }
    if (PopCount(key.nonproviders) > kMaxTermSummationNonproviders) {
      return Status::FailedPrecondition(
          "too many non-providers for term summation; use the elastic "
          "approximation");
    }
    return TermSummationLikelihood(stats, key.providers, key.nonproviders,
                                   given_true, given_false);
  };

  // Combine across clusters: likelihoods multiply (cluster independence).
  // With calibrated (natural) likelihoods, the prior must be the empirical
  // training class balance; the paper's alpha-scaled parameterization
  // instead bakes the class ratio into its q values and pairs with the
  // configured alpha.
  plan.alpha = model.alpha;
  for (size_t c = 0; calibrated && c < num_clusters; ++c) {
    if (use_direct[c]) {
      plan.alpha = model.cluster_stats[c]->EmpiricalPriorTrue();
      break;
    }
  }
  return plan;
}

}  // namespace fuser
