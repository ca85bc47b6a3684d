#include "core/elastic.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/correlation.h"

namespace fuser {

namespace {

/// One cluster's per-source adjusted rates: x_r[i] = min(C+_i r_i, 1) and
/// x_q[i] = min(C-_i q_i, 1). They depend on the cluster's statistics
/// alone, so a plan computes them once and every pattern reads them.
struct ElasticClusterRates {
  std::vector<double> x_r;
  std::vector<double> x_q;
};

ElasticClusterRates ComputeElasticRates(const JointStatsProvider& stats) {
  const AggressiveFactors factors = ComputeAggressiveFactors(stats);
  const size_t k = static_cast<size_t>(stats.num_sources());
  ElasticClusterRates rates;
  rates.x_r.resize(k);
  rates.x_q.resize(k);
  for (size_t i = 0; i < k; ++i) {
    const JointQuality single = stats.Get(Mask{1} << i);
    rates.x_r[i] = std::min(factors.c_plus[i] * single.recall, 1.0);
    rates.x_q[i] = std::min(factors.c_minus[i] * single.fpr, 1.0);
  }
  return rates;
}

/// Algorithm 1 for observation (P, N) of one cluster. The complements
/// (1 - x) of the level-0 products use the clamped rates, and so do the
/// level-l corrections, which preserves the telescoping that makes level
/// |N| exact. The sums run in long double, the terms in the order of
/// ascending source index and, per level, of the |N| choose l subsets in
/// lexicographic order of their members; nothing is allocated.
Status ElasticPatternLikelihood(const JointStatsProvider& stats,
                                const ElasticClusterRates& rates,
                                Mask providers, Mask nonproviders, int level,
                                double* numerator, double* denominator) {
  if ((providers & nonproviders) != 0) {
    return Status::InvalidArgument("providers and nonproviders overlap");
  }
  if (((providers | nonproviders) & ~FullMask(stats.num_sources())) != 0) {
    return Status::InvalidArgument("pattern outside the cluster");
  }
  const JointQuality base = stats.Get(providers);
  const double r_p = providers == 0 ? 1.0 : base.recall;
  const double q_p = providers == 0 ? 1.0 : base.fpr;

  int bits[64];
  int n = 0;
  long double r_sum = r_p;
  long double q_sum = q_p;
  ForEachBit(nonproviders, [&](int bit) {
    bits[n++] = bit;
    r_sum *= (1.0 - rates.x_r[static_cast<size_t>(bit)]);
    q_sum *= (1.0 - rates.x_q[static_cast<size_t>(bit)]);
  });

  const int max_level = std::min(level, n);
  int comb[64];
  for (int l = 1; l <= max_level; ++l) {
    const int sign = (l % 2 == 0) ? 1 : -1;
    for (int i = 0; i < l; ++i) comb[i] = i;
    for (;;) {
      Mask sub = 0;
      double prod_r = r_p;
      double prod_q = q_p;
      for (int i = 0; i < l; ++i) {
        const int bit = bits[comb[i]];
        sub |= Mask{1} << bit;
        prod_r *= rates.x_r[static_cast<size_t>(bit)];
        prod_q *= rates.x_q[static_cast<size_t>(bit)];
      }
      const JointQuality joint = stats.Get(providers | sub);
      r_sum += sign * (static_cast<long double>(joint.recall) - prod_r);
      q_sum += sign * (static_cast<long double>(joint.fpr) - prod_q);
      // Next l-combination of positions into bits[].
      int i = l - 1;
      while (i >= 0 && comb[i] == n - l + i) --i;
      if (i < 0) break;
      ++comb[i];
      for (int j = i + 1; j < l; ++j) comb[j] = comb[j - 1] + 1;
    }
  }
  *numerator = static_cast<double>(r_sum);
  *denominator = static_cast<double>(q_sum);
  return Status::OK();
}

}  // namespace

StatusOr<PatternScoringPlan> MakeElasticPlan(const CorrelationModel& model,
                                             int level) {
  if (level < 0) {
    return Status::InvalidArgument("level must be >= 0");
  }
  if (model.cluster_stats.size() != model.clustering.clusters.size()) {
    return Status::InvalidArgument("model cluster_stats/clusters mismatch");
  }
  auto rates = std::make_shared<std::vector<ElasticClusterRates>>();
  rates->reserve(model.cluster_stats.size());
  for (const auto& stats : model.cluster_stats) {
    rates->push_back(ComputeElasticRates(*stats));
  }
  PatternScoringPlan plan;
  const CorrelationModel* model_ptr = &model;
  std::shared_ptr<const std::vector<ElasticClusterRates>> shared_rates =
      std::move(rates);
  plan.scorer = [model_ptr, shared_rates, level](
                    size_t c, const PatternKey& key, double* given_true,
                    double* given_false) -> Status {
    return ElasticPatternLikelihood(*model_ptr->cluster_stats[c],
                                    (*shared_rates)[c], key.providers,
                                    key.nonproviders, level, given_true,
                                    given_false);
  };
  plan.alpha = model.alpha;
  return plan;
}

}  // namespace fuser
