#include "core/correlation_model.h"

#include <memory>
#include <utility>

#include "common/logging.h"

namespace fuser {

StatusOr<CorrelationModel> BuildCorrelationModel(const Dataset& dataset,
                                                 const DynamicBitset& train,
                                                 const ModelOptions& options) {
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset not finalized");
  }
  CorrelationModel model;
  model.alpha = options.alpha;
  model.use_scopes = options.use_scopes;

  FUSER_ASSIGN_OR_RETURN(
      model.source_quality,
      EstimateSourceQuality(dataset, train, options.ToQualityOptions()));

  if (options.enable_clustering) {
    FUSER_ASSIGN_OR_RETURN(
        model.clustering,
        ClusterSourcesByCorrelation(dataset, train,
                                    options.ToJointStatsOptions(),
                                    options.clustering));
  } else {
    FUSER_ASSIGN_OR_RETURN(model.clustering, SingleCluster(dataset));
  }

  model.cluster_stats.reserve(model.clustering.clusters.size());
  for (const std::vector<SourceId>& cluster : model.clustering.clusters) {
    FUSER_ASSIGN_OR_RETURN(
        std::unique_ptr<EmpiricalJointStats> stats,
        EmpiricalJointStats::Create(dataset, train, cluster,
                                    options.ToJointStatsOptions()));
    model.cluster_stats.push_back(std::move(stats));
  }
  return model;
}

StatusOr<CorrelationModel> CloneCorrelationModel(
    const CorrelationModel& model) {
  CorrelationModel clone;
  clone.source_quality = model.source_quality;
  clone.clustering = model.clustering;
  clone.alpha = model.alpha;
  clone.use_scopes = model.use_scopes;
  clone.cluster_stats.reserve(model.cluster_stats.size());
  for (const std::unique_ptr<JointStatsProvider>& stats :
       model.cluster_stats) {
    if (stats == nullptr) {
      return Status::InvalidArgument("model has a null cluster_stats entry");
    }
    FUSER_ASSIGN_OR_RETURN(std::unique_ptr<JointStatsProvider> copy,
                           stats->Clone());
    clone.cluster_stats.push_back(std::move(copy));
  }
  return clone;
}

bool BatchInvalidatesModel(const ModelOptions& options, bool new_sources,
                           bool training_changed) {
  return new_sources || (options.enable_clustering && training_changed);
}

StatusOr<ModelAdvance> AdvanceCorrelationModel(
    const CorrelationModel* model, const std::vector<SourceQuality>& quality,
    const ModelOptions& options, bool new_sources, bool training_changed,
    const std::vector<const ClusterDeltas*>& deltas) {
  ModelAdvance next;
  if (model == nullptr) return next;
  next.invalidated = true;
  if (BatchInvalidatesModel(options, new_sources, training_changed)) {
    return next;
  }
  StatusOr<CorrelationModel> cloned = CloneCorrelationModel(*model);
  if (cloned.status().code() == StatusCode::kUnimplemented) return next;
  FUSER_RETURN_IF_ERROR(cloned.status());
  cloned->source_quality = quality;
  for (const ClusterDeltas* batch : deltas) {
    for (size_t c = 0; c < batch->size(); ++c) {
      if ((*batch)[c].empty()) continue;
      const Status applied =
          cloned->cluster_stats[c]->ApplyPatternDeltas((*batch)[c]);
      if (applied.code() == StatusCode::kUnimplemented) return next;
      FUSER_RETURN_IF_ERROR(applied);
    }
  }
  next.model = std::make_shared<const CorrelationModel>(std::move(*cloned));
  next.invalidated = false;
  return next;
}

ClusterObservation GetClusterObservation(const Dataset& dataset,
                                         const CorrelationModel& model,
                                         size_t cluster_index, TripleId t) {
  FUSER_CHECK_LT(cluster_index, model.clustering.clusters.size());
  const std::vector<SourceId>& cluster =
      model.clustering.clusters[cluster_index];
  ClusterObservation obs;
  for (size_t i = 0; i < cluster.size(); ++i) {
    SourceId s = cluster[i];
    bool in_scope = !model.use_scopes || dataset.in_scope(s, t);
    if (in_scope) {
      obs.in_scope = WithBit(obs.in_scope, static_cast<int>(i));
      if (dataset.provides(s, t)) {
        obs.providers = WithBit(obs.providers, static_cast<int>(i));
      }
    }
  }
  return obs;
}

}  // namespace fuser
