#include "core/aggressive.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "core/correlation.h"
#include "core/precrec.h"

namespace fuser {

StatusOr<std::vector<double>> AggressiveScores(const Dataset& dataset,
                                               const CorrelationModel& model,
                                               size_t num_threads,
                                               ThreadPool* pool) {
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset not finalized");
  }
  const size_t num_clusters = model.clustering.clusters.size();
  if (model.cluster_stats.size() != num_clusters) {
    return Status::InvalidArgument("model cluster_stats/clusters mismatch");
  }

  // Per-source adjusted contributions, global indexing.
  const size_t n = dataset.num_sources();
  std::vector<double> log_provide(n, 0.0);
  std::vector<double> log_silent(n, 0.0);
  for (size_t c = 0; c < num_clusters; ++c) {
    const JointStatsProvider& stats = *model.cluster_stats[c];
    AggressiveFactors factors = ComputeAggressiveFactors(stats);
    const std::vector<SourceId>& cluster = model.clustering.clusters[c];
    for (size_t i = 0; i < cluster.size(); ++i) {
      JointQuality single = stats.Get(Mask{1} << static_cast<int>(i));
      // Adjusted rates; kept unclamped above 1 inside the provider ratio
      // (matching the paper's products) but floored away from 0, and with
      // the silent-side complements floored away from 0.
      double x = factors.c_plus[i] * single.recall;
      double y = factors.c_minus[i] * single.fpr;
      SourceId s = cluster[i];
      log_provide[s] =
          std::log(std::max(x, kProbEpsilon)) -
          std::log(std::max(y, kProbEpsilon));
      log_silent[s] = std::log(std::max(1.0 - x, kProbEpsilon)) -
                      std::log(std::max(1.0 - y, kProbEpsilon));
    }
  }

  return IndependentSourceScores(dataset, log_provide, log_silent,
                                 model.use_scopes, model.alpha, num_threads,
                                 pool);
}

}  // namespace fuser
