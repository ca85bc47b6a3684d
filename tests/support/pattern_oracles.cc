#include "support/pattern_oracles.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "core/correlation.h"
#include "core/precrec_corr.h"

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
  grouping.columns.resize(num_clusters);
  grouping.index.resize(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    auto& index = grouping.index[c];
    std::vector<uint32_t>& ids = grouping.columns[c].ids;
    ids.resize(m);
    for (TripleId t = 0; t < m; ++t) {
      ClusterObservation obs = GetClusterObservation(dataset, model, c, t);
      PatternKey key{obs.providers, obs.in_scope & ~obs.providers};
      auto [it, inserted] = index.emplace(key, grouping.distinct[c].size());
      if (inserted) grouping.distinct[c].push_back(key);
      ids[t] = static_cast<uint32_t>(it->second);
    }
  }
  return grouping;
}

bool SamePatternIds(const PatternGrouping& a, const PatternGrouping& b) {
  if (a.num_triples != b.num_triples ||
      a.num_clusters() != b.num_clusters()) {
    return false;
  }
  for (size_t c = 0; c < a.num_clusters(); ++c) {
    for (size_t t = 0; t < a.num_triples; ++t) {
      if (a.pattern_id(c, t) != b.pattern_id(c, t)) return false;
    }
  }
  return true;
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
      const PatternLikelihood& like = likelihood[c][grouping.pattern_id(c, t)];
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

namespace {

std::vector<double> IndependentScoresLoop(const Dataset& dataset,
                                          const std::vector<double>& log_provide,
                                          const std::vector<double>& log_silent,
                                          bool use_scopes, double alpha) {
  double total_silent = 0.0;
  for (size_t s = 0; s < dataset.num_sources(); ++s) {
    total_silent += log_silent[s];
  }
  std::vector<double> scores(dataset.num_triples());
  for (TripleId t = 0; t < dataset.num_triples(); ++t) {
    double log_mu;
    if (!use_scopes) {
      // All sources have an opinion: start from everyone-silent and swap in
      // the providers (O(|St|) per triple).
      log_mu = total_silent;
      for (SourceId s : dataset.providers(t)) {
        log_mu += log_provide[s] - log_silent[s];
      }
    } else {
      log_mu = 0.0;
      for (SourceId s : dataset.in_scope_sources(t)) {
        log_mu += dataset.provides(s, t) ? log_provide[s] : log_silent[s];
      }
    }
    scores[t] = PosteriorFromLogMu(log_mu, alpha);
  }
  return scores;
}

}  // namespace

StatusOr<std::vector<double>> PrecRecScoresReference(
    const Dataset& dataset, const std::vector<SourceQuality>& quality,
    const PrecRecOptions& options) {
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset not finalized");
  }
  if (quality.size() != dataset.num_sources()) {
    return Status::InvalidArgument("quality size != num_sources");
  }
  const size_t n = dataset.num_sources();
  std::vector<double> log_provide(n);
  std::vector<double> log_silent(n);
  for (size_t s = 0; s < n; ++s) {
    log_provide[s] = SourceLogContribution(quality[s], /*provides=*/true);
    log_silent[s] = SourceLogContribution(quality[s], /*provides=*/false);
  }
  return IndependentScoresLoop(dataset, log_provide, log_silent,
                               options.use_scopes, options.alpha);
}

StatusOr<std::vector<double>> AggressiveScoresReference(
    const Dataset& dataset, const CorrelationModel& model) {
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset not finalized");
  }
  const size_t num_clusters = model.clustering.clusters.size();
  if (model.cluster_stats.size() != num_clusters) {
    return Status::InvalidArgument("model cluster_stats/clusters mismatch");
  }
  const size_t n = dataset.num_sources();
  std::vector<double> log_provide(n, 0.0);
  std::vector<double> log_silent(n, 0.0);
  for (size_t c = 0; c < num_clusters; ++c) {
    const JointStatsProvider& stats = *model.cluster_stats[c];
    AggressiveFactors factors = ComputeAggressiveFactors(stats);
    const std::vector<SourceId>& cluster = model.clustering.clusters[c];
    for (size_t i = 0; i < cluster.size(); ++i) {
      JointQuality single = stats.Get(Mask{1} << static_cast<int>(i));
      double x = factors.c_plus[i] * single.recall;
      double y = factors.c_minus[i] * single.fpr;
      SourceId s = cluster[i];
      log_provide[s] = std::log(std::max(x, kProbEpsilon)) -
                       std::log(std::max(y, kProbEpsilon));
      log_silent[s] = std::log(std::max(1.0 - x, kProbEpsilon)) -
                      std::log(std::max(1.0 - y, kProbEpsilon));
    }
  }
  return IndependentScoresLoop(dataset, log_provide, log_silent,
                               model.use_scopes, model.alpha);
}

PatternScoringPlan MakeTermSummationPlan(const CorrelationModel& model) {
  PatternScoringPlan plan;
  const CorrelationModel* model_ptr = &model;
  plan.scorer = [model_ptr](size_t c, const PatternKey& key,
                            double* given_true, double* given_false) {
    return TermSummationLikelihood(*model_ptr->cluster_stats[c],
                                   key.providers, key.nonproviders,
                                   given_true, given_false);
  };
  plan.alpha = model.alpha;
  return plan;
}

}  // namespace fuser
