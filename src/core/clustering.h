// Correlation clustering of sources (Section 5, BOOK dataset).
//
// With many sources, the number of joint parameters explodes and support
// data thins out. Following the paper, we "divide sources into clusters
// based on their pairwise correlations, and assume that sources across
// clusters are independent". Clusters are grown greedily from the strongest
// pairwise correlations (union-find), with a cap on cluster size so the
// per-cluster mask machinery stays tractable.
#ifndef FUSER_CORE_CLUSTERING_H_
#define FUSER_CORE_CLUSTERING_H_

#include <vector>

#include "common/bitset.h"
#include "common/status.h"
#include "core/correlation.h"
#include "model/dataset.h"
#include "stats/correlation_sketch.h"

namespace fuser {

struct ClusteringOptions {
  /// A pair is "strongly correlated" when its factor deviates from the
  /// median pairwise factor by more than this relative amount, i.e.
  /// |log(C / median)| >= log(1 + threshold), on either class. The median
  /// (not 1) is the independence baseline because observed datasets
  /// condition on "provided by at least one source", which deflates all
  /// pairwise factors by the class coverage.
  double correlation_threshold = 0.25;
  /// Pairs where either source provides fewer labeled triples than this
  /// are ignored (not enough evidence either way).
  size_t min_support = 2;
  /// Hard cap on cluster size; merges that would exceed it are skipped.
  /// Must be <= 64 (joint masks are 64-bit).
  size_t max_cluster_size = 20;
  /// When true, pairwise correlations are estimated with the coordinated
  /// sketch (stats/correlation_sketch.h) instead of the exact O(S^2 * m)
  /// bitset pass — the pre-screen for hundreds of sources. The most
  /// significant pairs are still re-scored exactly (sketch.exact_top_k).
  bool use_sketch = false;
  ApproxOptions sketch;
};

/// Result of clustering: a partition of all sources. Sources with no strong
/// correlation end up in singleton clusters.
struct SourceClustering {
  std::vector<std::vector<SourceId>> clusters;
  /// cluster_of[s] = index into `clusters` for source s.
  std::vector<int> cluster_of;
  /// index_in_cluster[s] = position of s inside its cluster.
  std::vector<int> index_in_cluster;
};

/// Clusters sources by pairwise correlation strength.
StatusOr<SourceClustering> ClusterSourcesByCorrelation(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const JointStatsOptions& stats_options, const ClusteringOptions& options);

/// The edge-building + union-find half of ClusterSourcesByCorrelation,
/// operating on already-computed pairwise correlations (exact or merged
/// from shard-local counts). `num_sources` is the global source count;
/// pair ids in `pairs` must be < num_sources. Identical decisions to
/// ClusterSourcesByCorrelation given the same pairs.
StatusOr<SourceClustering> ClusterSourcesFromPairs(
    size_t num_sources, const std::vector<PairwiseCorrelation>& pairs,
    const ClusteringOptions& options);

/// ClusterSourcesFromPairs over the pairwise correlations of exact integer
/// counts (one view's, or merged from shard-local views).
StatusOr<SourceClustering> ClusterSourcesFromCounts(
    size_t num_sources, const PairwiseCounts& counts,
    const JointStatsOptions& stats_options, const ClusteringOptions& options);

/// A single cluster holding every one of `num_sources` sources (requires
/// <= 64 sources); used when clustering is disabled.
StatusOr<SourceClustering> SingleClusterOf(size_t num_sources);

/// Builds a SourceClustering from an explicit partition (validated).
StatusOr<SourceClustering> ClusteringFromPartition(
    size_t num_sources, std::vector<std::vector<SourceId>> clusters);

}  // namespace fuser

#endif  // FUSER_CORE_CLUSTERING_H_
