#include "core/correlation_model.h"

#include <memory>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace fuser {

StatusOr<CorrelationModel> BuildCorrelationModel(
    const std::vector<TrainingPart>& parts,
    std::vector<SourceQuality> quality, const ModelOptions& options,
    size_t num_threads, ThreadPool* pool) {
  if (parts.empty()) {
    return Status::InvalidArgument("no training parts to build a model from");
  }
  for (const TrainingPart& part : parts) {
    if (!part.dataset->finalized()) {
      return Status::FailedPrecondition("dataset not finalized");
    }
    if (quality.size() != part.dataset->num_sources()) {
      return Status::InvalidArgument(
          "quality does not match the dataset's sources");
    }
  }
  const bool sketch =
      options.enable_clustering && options.clustering.use_sketch;
  if (sketch && parts.size() > 1) {
    return Status::Unimplemented(
        "sketch-based clustering is not supported with sharding (merged "
        "exact pairwise counts are required for byte-identical clusters)");
  }
  std::vector<TrainingView> views;
  views.reserve(parts.size());
  for (const TrainingPart& part : parts) {
    FUSER_ASSIGN_OR_RETURN(
        TrainingView view,
        BuildTrainingView(*part.dataset, *part.train, num_threads, pool));
    views.push_back(std::move(view));
  }
  const size_t num_sources = quality.size();
  CorrelationModel model;
  model.alpha = options.alpha;
  model.use_scopes = options.use_scopes;
  model.source_quality = std::move(quality);

  if (!options.enable_clustering) {
    FUSER_ASSIGN_OR_RETURN(model.clustering, SingleClusterOf(num_sources));
  } else if (sketch) {
    FUSER_ASSIGN_OR_RETURN(
        model.clustering,
        ClusterSourcesByCorrelation(*parts[0].dataset, *parts[0].train, options,
                                    options.clustering));
  } else {
    std::vector<SourceId> all(num_sources);
    std::iota(all.begin(), all.end(), SourceId{0});
    FUSER_ASSIGN_OR_RETURN(PairwiseCounts counts,
                           ComputePairwiseCounts(views[0], all));
    for (size_t k = 1; k < views.size(); ++k) {
      FUSER_ASSIGN_OR_RETURN(PairwiseCounts part_counts,
                             ComputePairwiseCounts(views[k], all));
      FUSER_RETURN_IF_ERROR(MergePairwiseCounts(&counts, part_counts));
    }
    FUSER_ASSIGN_OR_RETURN(
        model.clustering,
        ClusterSourcesFromCounts(num_sources, counts, options,
                                 options.clustering));
  }

  // part_states[k][c]: cluster c's pattern counts over part k.
  std::vector<std::vector<EmpiricalJointStatsState>> part_states;
  part_states.reserve(views.size());
  for (const TrainingView& view : views) {
    FUSER_ASSIGN_OR_RETURN(
        std::vector<EmpiricalJointStatsState> states,
        CountClusterPatterns(view, model.clustering.clusters, options,
                             num_threads, pool));
    part_states.push_back(std::move(states));
  }
  const size_t num_clusters = model.clustering.clusters.size();
  model.cluster_stats.reserve(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    std::vector<EmpiricalJointStatsState> states;
    states.reserve(part_states.size());
    for (auto& part : part_states) states.push_back(std::move(part[c]));
    // One part's state is the model's as it stands; more are merged.
    if (states.size() > 1) {
      FUSER_ASSIGN_OR_RETURN(states[0], MergeJointStatsStates(states));
    }
    FUSER_ASSIGN_OR_RETURN(std::unique_ptr<EmpiricalJointStats> stats,
                           EmpiricalJointStats::FromState(states[0]));
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
