#include "support/pattern_oracles.h"

#include <cmath>

#include "common/math_util.h"

namespace fuser {

StatusOr<PatternGrouping> BuildPatternGroupingScalar(
    const Dataset& dataset, const CorrelationModel& model) {
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset not finalized");
  }
  if (model.cluster_stats.size() != model.clustering.clusters.size()) {
    return Status::InvalidArgument("model cluster_stats/clusters mismatch");
  }
  const size_t num_clusters = model.clustering.clusters.size();
  const size_t m = dataset.num_triples();

  PatternGrouping grouping;
  grouping.num_triples = m;
  grouping.dataset = &dataset;
  grouping.model_fingerprint = ModelGroupingFingerprint(model);
  grouping.distinct.resize(num_clusters);
  grouping.pattern_of.assign(num_clusters, std::vector<size_t>(m, 0));
  grouping.index.resize(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    auto& index = grouping.index[c];
    for (TripleId t = 0; t < m; ++t) {
      ClusterObservation obs = GetClusterObservation(dataset, model, c, t);
      PatternKey key{obs.providers, obs.in_scope & ~obs.providers};
      auto [it, inserted] = index.emplace(key, grouping.distinct[c].size());
      if (inserted) grouping.distinct[c].push_back(key);
      grouping.pattern_of[c][t] = it->second;
    }
  }
  return grouping;
}

std::vector<double> CombinePatternScoresReference(
    const PatternGrouping& grouping,
    const std::vector<std::vector<PatternLikelihood>>& likelihood,
    double alpha) {
  const size_t num_clusters = grouping.num_clusters();
  std::vector<double> scores(grouping.num_triples);
  for (TripleId t = 0; t < grouping.num_triples; ++t) {
    double log_num = 0.0;
    double log_den = 0.0;
    bool num_zero = false;
    bool den_zero = false;
    for (size_t c = 0; c < num_clusters; ++c) {
      const PatternLikelihood& like = likelihood[c][grouping.pattern_of[c][t]];
      if (like.given_true <= 0.0) {
        num_zero = true;
      } else {
        log_num += std::log(like.given_true);
      }
      if (like.given_false <= 0.0) {
        den_zero = true;
      } else {
        log_den += std::log(like.given_false);
      }
    }
    if (num_zero && den_zero) {
      scores[t] = alpha;  // observation impossible either way
    } else if (num_zero) {
      scores[t] = 0.0;
    } else if (den_zero) {
      scores[t] = 1.0;
    } else {
      scores[t] = PosteriorFromLogMu(log_num - log_den, alpha);
    }
  }
  return scores;
}

}  // namespace fuser
