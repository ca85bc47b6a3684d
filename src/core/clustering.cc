#include "core/clustering.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace fuser {

namespace {

/// Union-find with size tracking.
class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  size_t SetSize(size_t x) { return size_[Find(x)]; }

  void Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<size_t> parent_;
  std::vector<size_t> size_;
};

SourceClustering PartitionFromSets(size_t n, DisjointSets* sets) {
  SourceClustering clustering;
  clustering.cluster_of.assign(n, -1);
  clustering.index_in_cluster.assign(n, -1);
  std::vector<int> root_to_cluster(n, -1);
  for (size_t s = 0; s < n; ++s) {
    size_t root = sets->Find(s);
    if (root_to_cluster[root] < 0) {
      root_to_cluster[root] = static_cast<int>(clustering.clusters.size());
      clustering.clusters.emplace_back();
    }
    int c = root_to_cluster[root];
    clustering.cluster_of[s] = c;
    clustering.index_in_cluster[s] =
        static_cast<int>(clustering.clusters[static_cast<size_t>(c)].size());
    clustering.clusters[static_cast<size_t>(c)].push_back(
        static_cast<SourceId>(s));
  }
  return clustering;
}

}  // namespace

StatusOr<SourceClustering> ClusterSourcesByCorrelation(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const JointStatsOptions& stats_options, const ClusteringOptions& options) {
  if (options.max_cluster_size == 0 || options.max_cluster_size > 64) {
    return Status::InvalidArgument("max_cluster_size must be in [1, 64]");
  }
  const size_t n = dataset.num_sources();
  std::vector<SourceId> all(n);
  std::iota(all.begin(), all.end(), 0);

  FUSER_ASSIGN_OR_RETURN(
      std::vector<PairwiseCorrelation> pairs,
      options.use_sketch
          ? ComputePairwiseCorrelationsApprox(dataset, train_mask, all,
                                              stats_options, options.sketch)
          : ComputePairwiseCorrelations(dataset, train_mask, all,
                                        stats_options));
  return ClusterSourcesFromPairs(n, pairs, options);
}

StatusOr<SourceClustering> ClusterSourcesFromCounts(
    size_t num_sources, const PairwiseCounts& counts,
    const JointStatsOptions& stats_options, const ClusteringOptions& options) {
  FUSER_ASSIGN_OR_RETURN(std::vector<PairwiseCorrelation> pairs,
                         PairwiseCorrelationsFromCounts(counts, stats_options));
  return ClusterSourcesFromPairs(num_sources, pairs, options);
}

StatusOr<SourceClustering> ClusterSourcesFromPairs(
    size_t num_sources, const std::vector<PairwiseCorrelation>& pairs,
    const ClusteringOptions& options) {
  if (options.max_cluster_size == 0 || options.max_cluster_size > 64) {
    return Status::InvalidArgument("max_cluster_size must be in [1, 64]");
  }
  const size_t n = num_sources;

  // Pairwise factors are compared against the *empirical background*, not
  // against 1: conditioning the dataset on "provided by at least one
  // source" deflates every pairwise factor by the class coverage, so the
  // independence baseline is estimated as the global ratio
  //   kappa = sum(observed joint counts) / sum(independence-expected joint
  //           counts)
  // which is robust when most pairs have zero or tiny overlap (sparse
  // sources). A pair is an edge when its joint count deviates from
  // kappa-adjusted expectation by the configured relative threshold plus
  // two Poisson noise units.
  auto coverage_ratio = [&](bool on_true) {
    double obs = 0.0;
    double expected = 0.0;
    for (const PairwiseCorrelation& pc : pairs) {
      obs += static_cast<double>(on_true ? pc.joint_true_count
                                         : pc.joint_false_count);
      expected += on_true ? pc.indep_true_count : pc.indep_false_count;
    }
    return expected > 0.0 ? std::max(obs / expected, 1e-3) : 1.0;
  };
  const double kappa_true = coverage_ratio(true);
  const double kappa_false = coverage_ratio(false);

  struct Edge {
    size_t a;
    size_t b;
    double strength;
  };
  std::vector<Edge> edges;
  const double log_threshold = std::log1p(options.correlation_threshold);
  auto significant = [&](double observed, double expected, double kappa) {
    double baseline = kappa * expected;
    double dev =
        std::fabs(std::log((observed + 0.5) / (baseline + 0.5)));
    double noise = 2.0 / std::sqrt(std::max(1.0, baseline));
    return dev >= log_threshold + noise ? dev : 0.0;
  };
  for (const PairwiseCorrelation& pc : pairs) {
    if (pc.support < options.min_support) continue;
    // In sketch mode only oracle-confirmed pairs may become edges:
    // estimated joint counts move in jumps of the sketch scale, which
    // fakes huge deviations on near-empty baselines. The sketch path
    // re-scores every significant pair exactly, so real edges all have
    // exact counts here (exact mode: every pair does).
    if (pc.estimated) continue;
    double dev_true =
        significant(static_cast<double>(pc.joint_true_count),
                    pc.indep_true_count, kappa_true);
    double dev_false =
        significant(static_cast<double>(pc.joint_false_count),
                    pc.indep_false_count, kappa_false);
    double strength = std::max(dev_true, dev_false);
    if (strength > 0.0) {
      edges.push_back({pc.a, pc.b, strength});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    if (x.strength != y.strength) return x.strength > y.strength;
    if (x.a != y.a) return x.a < y.a;  // deterministic tie-break
    return x.b < y.b;
  });

  DisjointSets sets(n);
  for (const Edge& e : edges) {
    if (sets.Find(e.a) == sets.Find(e.b)) continue;
    if (sets.SetSize(e.a) + sets.SetSize(e.b) > options.max_cluster_size) {
      continue;  // would exceed the cap; keep the clusters separate
    }
    sets.Union(e.a, e.b);
  }
  return PartitionFromSets(n, &sets);
}

StatusOr<SourceClustering> SingleClusterOf(size_t num_sources) {
  const size_t n = num_sources;
  if (n > 64) {
    return Status::InvalidArgument(
        "single-cluster mode supports at most 64 sources; enable clustering");
  }
  SourceClustering clustering;
  clustering.clusters.emplace_back();
  clustering.cluster_of.assign(n, 0);
  clustering.index_in_cluster.assign(n, 0);
  for (size_t s = 0; s < n; ++s) {
    clustering.index_in_cluster[s] = static_cast<int>(s);
    clustering.clusters[0].push_back(static_cast<SourceId>(s));
  }
  return clustering;
}

StatusOr<SourceClustering> ClusteringFromPartition(
    size_t num_sources, std::vector<std::vector<SourceId>> clusters) {
  SourceClustering clustering;
  clustering.cluster_of.assign(num_sources, -1);
  clustering.index_in_cluster.assign(num_sources, -1);
  for (size_t c = 0; c < clusters.size(); ++c) {
    if (clusters[c].empty()) {
      return Status::InvalidArgument("empty cluster in partition");
    }
    if (clusters[c].size() > 64) {
      return Status::InvalidArgument("cluster larger than 64 sources");
    }
    for (size_t i = 0; i < clusters[c].size(); ++i) {
      SourceId s = clusters[c][i];
      if (s >= num_sources) {
        return Status::InvalidArgument("source id out of range in partition");
      }
      if (clustering.cluster_of[s] >= 0) {
        return Status::InvalidArgument("source appears in two clusters");
      }
      clustering.cluster_of[s] = static_cast<int>(c);
      clustering.index_in_cluster[s] = static_cast<int>(i);
    }
  }
  for (size_t s = 0; s < num_sources; ++s) {
    if (clustering.cluster_of[s] < 0) {
      return Status::InvalidArgument("source missing from partition");
    }
  }
  clustering.clusters = std::move(clusters);
  return clustering;
}

}  // namespace fuser
