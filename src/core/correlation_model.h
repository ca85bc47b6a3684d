// CorrelationModel: everything the inference algorithms need about the
// sources - per-source quality, the cluster partition, and per-cluster
// joint statistics.
//
// Built from training data by BuildCorrelationModel, or assembled manually
// (e.g., with ExplicitJointStats) when the parameters are known, as in the
// paper's worked examples. An empirical cluster's statistics are a pure
// function of its training pattern counts and the QualityOptions part of
// the one ModelOptions the engine runs under: the model builder (for the
// engine and the sharded router alike) and the snapshot decoder take
// alpha, smoothing and scopes from there, so no cluster carries options of
// its own.
#ifndef FUSER_CORE_CORRELATION_MODEL_H_
#define FUSER_CORE_CORRELATION_MODEL_H_

#include <memory>
#include <vector>

#include "common/bit_util.h"
#include "common/bitset.h"
#include "common/status.h"
#include "core/clustering.h"
#include "core/joint_stats.h"
#include "core/quality.h"
#include "model/dataset.h"

namespace fuser {

/// Alpha, smoothing and scopes (the QualityOptions every estimate of the
/// model runs under), plus the clustering switches.
struct ModelOptions : QualityOptions {
  /// Partition sources into correlation clusters; mandatory when there are
  /// more than 64 sources. With false, all sources form one cluster.
  bool enable_clustering = false;
  ClusteringOptions clustering;
};

struct CorrelationModel {
  std::vector<SourceQuality> source_quality;  // indexed by global SourceId
  SourceClustering clustering;
  /// Parallel to clustering.clusters.
  std::vector<std::unique_ptr<JointStatsProvider>> cluster_stats;
  double alpha = 0.5;
  bool use_scopes = false;
};

/// One part of the training triples: the triples of `dataset` that `train`
/// selects. The sharded router passes one part per shard, whose datasets
/// share the global source ids.
struct TrainingPart {
  const Dataset* dataset = nullptr;
  const DynamicBitset* train = nullptr;
};

/// Builds the model of the training triples `parts` hold, one part for an
/// engine's dataset or one per shard, around the source quality already
/// estimated over all of them (EstimateSourceQuality, or the shards'
/// merged counts), which the model keeps. Everything else is an integer
/// count over each part's view of its triples (BuildTrainingView), summed
/// in part order, so K parts build the model one part of their union
/// would: pairwise counts are summed (MergePairwiseCounts) and clustered
/// once, and each cluster's pattern counts are merged
/// (MergeJointStatsStates). Views and pattern counts run on `num_threads`
/// workers (on `pool` when given). The sketch pre-screen reads one part's
/// dataset instead of its view; with more parts it is Unimplemented.
StatusOr<CorrelationModel> BuildCorrelationModel(
    const std::vector<TrainingPart>& parts,
    std::vector<SourceQuality> quality, const ModelOptions& options,
    size_t num_threads = 1, ThreadPool* pool = nullptr);

/// Deep copy of a model: quality/clustering/alpha are copied and every
/// cluster's statistics cloned via JointStatsProvider::Clone, so mutating
/// the copy (ApplyPatternDeltas) leaves the original byte-identical. This
/// is AdvanceCorrelationModel's copy-on-write step — published snapshots
/// keep the original while deltas stream into the clone. Returns
/// Unimplemented when any provider lacks a clone (the caller falls back to
/// a full rebuild).
StatusOr<CorrelationModel> CloneCorrelationModel(const CorrelationModel& model);

/// Exact per-cluster pattern-count deltas of one streamed batch, parallel
/// to the clustering they were computed against.
using ClusterDeltas = std::vector<std::vector<JointPatternDelta>>;

/// The streaming invalidation rule: a batch cannot be folded into a model
/// when it brings new sources (the cluster partition changes) or, with
/// clustering enabled, when it changes the training set (any such change
/// can re-cluster).
bool BatchInvalidatesModel(const ModelOptions& options, bool new_sources,
                           bool training_changed);

/// A model advanced past one streamed batch.
struct ModelAdvance {
  /// The next model; null means rebuild lazily on the next use.
  std::shared_ptr<const CorrelationModel> model;
  /// An existing model could not absorb the batch (a full invalidation).
  bool invalidated = false;
};

/// The one streaming-update step for the model, used by FusionEngine::Update
/// and by the sharded router alike. A null `model` (nothing built yet)
/// stays null. Otherwise the result is either a clone carrying `quality`
/// with every entry of `deltas` folded in, in order (copy-on-write: snapshots
/// holding `model` never see the change), or null and invalidated when
/// BatchInvalidatesModel holds or a provider has no Clone or
/// ApplyPatternDeltas (Unimplemented). Any other error is returned.
StatusOr<ModelAdvance> AdvanceCorrelationModel(
    const CorrelationModel* model, const std::vector<SourceQuality>& quality,
    const ModelOptions& options, bool new_sources, bool training_changed,
    const std::vector<const ClusterDeltas*>& deltas);

/// The observation of triple t restricted to one cluster: which cluster
/// members provide it and which are in scope.
struct ClusterObservation {
  Mask providers = 0;   // subset of in_scope
  Mask in_scope = 0;    // sources with an opinion about t
};

/// Extracts the cluster-local observation masks for triple t. When scopes
/// are disabled every cluster member is in scope.
ClusterObservation GetClusterObservation(const Dataset& dataset,
                                         const CorrelationModel& model,
                                         size_t cluster_index, TripleId t);

}  // namespace fuser

#endif  // FUSER_CORE_CORRELATION_MODEL_H_
