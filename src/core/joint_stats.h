// Joint quality statistics over subsets of sources (Section 4).
//
// For a subset S* of sources, the joint precision p_{S*} is the fraction of
// triples provided by *all* sources of S* that are true, and the joint
// recall r_{S*} is the fraction of true triples provided by all of S*
// (Eq. 3-4). The joint false positive rate q_{S*} is derived from them via
// Theorem 3.5, which for empirical counts reduces to
//   q_{S*} = alpha/(1-alpha) * |false triples provided by all of S*| /
//            |true triples|.
// EmpiricalJointStats computes all three with QualityFromCounts
// (core/quality.h), the arithmetic of a single source's quality.
//
// Subsets live inside a correlation *cluster* of at most 64 sources and are
// represented as bit masks over cluster-local indices.
//
// Two implementations:
//  * EmpiricalJointStats - counts from training data (CountClusterPatterns
//    counts every cluster from one TrainingView). Every statistic is a
//    ratio of integer pattern counts, so a provider is a pure function of
//    its pattern lists and options and caches nothing: subset lookups read
//    a sum-over-supersets table on clusters of at most kSosTableMaxBits
//    sources (O(1)) and scan the pattern lists above that; the direct
//    pattern likelihood of the PrecRecCorr fast path is one linear scan of
//    the pattern lists per query.
//  * ExplicitJointStats - parameters supplied by the caller (used by tests
//    reproducing the paper's worked examples, and available to users who
//    know their correlation structure).
#ifndef FUSER_CORE_JOINT_STATS_H_
#define FUSER_CORE_JOINT_STATS_H_

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "common/bitset.h"
#include "common/status.h"
#include "core/quality.h"
#include "model/dataset.h"

namespace fuser {

/// One streamed change to the empirical pattern counts of a cluster: the
/// cluster-local (providers, scope) observation pattern of a training
/// triple, the class it counts toward, and +1/-1. FusionEngine::Update
/// translates a DatasetDelta into these (a changed triple contributes a -1
/// for its old pattern and a +1 for its new one).
struct JointPatternDelta {
  Mask providers = 0;
  Mask scope = 0;
  bool is_true = false;
  int count_delta = 0;
};

/// One observation-pattern likelihood query: "all of `providers` provide
/// the triple, none of `nonproviders` does". The batched ScoreAllPatterns
/// path takes a whole cluster's distinct patterns at once.
struct PatternQuery {
  Mask providers = 0;
  Mask nonproviders = 0;
};

/// Interface for joint statistics within one cluster.
class JointStatsProvider {
 public:
  virtual ~JointStatsProvider() = default;

  /// Number of sources k in the cluster; masks use bits [0, k).
  virtual int num_sources() const = 0;

  /// The a priori probability alpha used for fpr derivation.
  virtual double alpha() const = 0;

  /// Joint quality of the non-empty subset `subset`. For the empty subset
  /// the conventions r = q = 1 apply (every source in the empty set
  /// trivially provides every triple); Get(0) returns that convention.
  virtual JointQuality Get(Mask subset) const = 0;

  /// True when DirectPatternLikelihood is available (empirical stats with
  /// no smoothing).
  virtual bool SupportsDirectLikelihood() const { return false; }

  /// Direct computation of Pr(Ot | t) and Pr(Ot | !t) for the observation
  /// "all of `providers` provide t, none of `nonproviders` does": the
  /// inclusion-exclusion sum of Eqs. 10-11 collapses to an exact pattern
  /// count when all parameters share denominators. Two forms:
  ///  * literal (`calibrated` false): the paper's alpha-scaled q
  ///    parameterization (Theorem 3.5 scaling plus the q_empty = 1
  ///    convention). Faithful for a single cluster, but not a consistent
  ///    probability measure: with many clusters and imbalanced classes its
  ///    q-side sums can go negative (observed on BOOK-scale data);
  ///  * calibrated: natural class-conditional frequencies Pr(obs | true)
  ///    and Pr(obs | false) with Laplace smoothing (+0.5 / +1) — plain
  ///    naive Bayes over cluster observation patterns, the default for
  ///    empirical models.
  virtual Status DirectPatternLikelihood(Mask /*providers*/,
                                         Mask /*nonproviders*/,
                                         bool /*calibrated*/,
                                         double* /*pr_given_true*/,
                                         double* /*pr_given_false*/) const {
    return Status::Unimplemented("direct likelihood not supported");
  }

  /// The empirical prior Pr(t) observed in the training data, used as the
  /// prior for calibrated-likelihood inference (the paper's alpha-scaled
  /// parameterization bakes the empirical class ratio into its q values;
  /// the calibrated form must supply it explicitly).
  virtual double EmpiricalPriorTrue() const { return alpha(); }

  /// Batched form of DirectPatternLikelihood: computes the likelihood pair
  /// of every query and writes them to `out` (resized to queries.size(),
  /// pair = {pr_given_true, pr_given_false}). Results are byte-identical to
  /// per-query calls. The base implementation loops over the per-query
  /// virtual; EmpiricalJointStats overrides it with a single-pass scan that
  /// groups queries by observed-scope mask so each scope's denominators are
  /// computed once. Must be safe to call concurrently.
  virtual Status ScoreAllPatterns(const std::vector<PatternQuery>& queries,
                                  bool calibrated,
                                  std::vector<std::pair<double, double>>* out)
      const;

  /// Incrementally folds streamed pattern-count changes into the provider.
  /// After a successful call the provider is byte-identical (for every
  /// query) to one built from scratch over the updated training set.
  /// Providers without an incremental path return Unimplemented and the
  /// caller falls back to a rebuild.
  virtual Status ApplyPatternDeltas(const std::vector<JointPatternDelta>&) {
    return Status::Unimplemented("incremental pattern deltas not supported");
  }

  /// Deep copy, answering every query identically to the source. Used for
  /// copy-on-write snapshotting: FusionEngine::Update clones the published
  /// model and applies deltas to the clone, so readers pinning an older
  /// snapshot keep consistent statistics. Must be safe to call while other
  /// threads issue concurrent *read* queries against this provider.
  /// Providers without a clone return Unimplemented and the caller falls
  /// back to a full model rebuild.
  virtual StatusOr<std::unique_ptr<JointStatsProvider>> Clone() const {
    return Status::Unimplemented("clone not supported");
  }
};

/// An EmpiricalJointStats provider over at most this many sources keeps
/// sum-over-supersets tables (3 x 2^k uint32 entries, at most 12 MiB) for
/// O(1) subset lookups; a wider one scans its pattern lists per lookup.
/// Equal to ClusteringOptions::max_cluster_size's default. It also bounds
/// the table a provider decoded from a snapshot file may allocate.
inline constexpr int kSosTableMaxBits = 20;

/// The complete persistent state of an EmpiricalJointStats provider: the
/// aggregated (providers, scope) -> count pattern lists per class, plus the
/// options they were counted under. Everything else the provider holds
/// (index maps, sum-over-supersets tables) is derived deterministically
/// from these fields, so ExportState -> FromState round-trips to a
/// provider that answers every query byte-identically.
/// Pattern order is significant and preserved.
struct EmpiricalJointStatsState {
  struct PatternCount {
    Mask providers = 0;
    Mask scope = 0;
    uint32_t count = 0;
  };
  int k = 0;
  QualityOptions options;
  uint64_t total_true = 0;
  uint64_t total_false = 0;
  std::vector<PatternCount> true_patterns;
  std::vector<PatternCount> false_patterns;
};

/// Hash of a (providers, scope) pattern key.
struct MaskPairHash {
  size_t operator()(const std::pair<Mask, Mask>& p) const {
    return static_cast<size_t>(MixMaskPair(p.first, p.second));
  }
};

/// Counts the (providers, scope) training patterns of every cluster in
/// `clusters` (each 1..64 of the view's source ids) from one training view,
/// with the clusters spread across `num_threads` workers (on `pool` when
/// given). states[c] is the ExportState of an EmpiricalJointStats over
/// clusters[c], pattern order included: each cluster's distinct keys enter
/// the same unordered_map type in first-seen position order, class by
/// class, so the map iterates them in the order snapshot bytes pin.
StatusOr<std::vector<EmpiricalJointStatsState>> CountClusterPatterns(
    const TrainingView& view,
    const std::vector<std::vector<SourceId>>& clusters,
    const QualityOptions& options, size_t num_threads = 1,
    ThreadPool* pool = nullptr);

/// Merges per-partition states into one: counts of identical
/// (providers, scope) patterns sum per class, totals sum, and the result is
/// the state a single pass over the union of the partitions' training
/// triples would have produced (up to pattern order, which no query
/// depends on). All states must share k and options.
StatusOr<EmpiricalJointStatsState> MergeJointStatsStates(
    const std::vector<EmpiricalJointStatsState>& states);

/// Joint statistics estimated from the training triples of a dataset.
class EmpiricalJointStats : public JointStatsProvider {
 public:
  /// `cluster_sources` lists the global source ids of the cluster (size
  /// <= 64); `train_mask` selects the labeled training triples. The
  /// one-cluster case of CountClusterPatterns, over a view it builds.
  static StatusOr<std::unique_ptr<EmpiricalJointStats>> Create(
      const Dataset& dataset, const DynamicBitset& train_mask,
      const std::vector<SourceId>& cluster_sources,
      const QualityOptions& options);

  int num_sources() const override { return k_; }
  double alpha() const override { return options_.alpha; }
  JointQuality Get(Mask subset) const override;
  bool SupportsDirectLikelihood() const override {
    return options_.smoothing == 0.0;
  }
  Status DirectPatternLikelihood(Mask providers, Mask nonproviders,
                                 bool calibrated, double* pr_given_true,
                                 double* pr_given_false) const override;
  double EmpiricalPriorTrue() const override {
    return (static_cast<double>(total_true_) + 0.5) /
           (static_cast<double>(total_true_ + total_false_) + 1.0);
  }
  Status ScoreAllPatterns(const std::vector<PatternQuery>& queries,
                          bool calibrated,
                          std::vector<std::pair<double, double>>* out)
      const override;
  Status ApplyPatternDeltas(
      const std::vector<JointPatternDelta>& deltas) override;
  StatusOr<std::unique_ptr<JointStatsProvider>> Clone() const override;

  /// Snapshot persistence (see src/persist/): exports the pattern lists
  /// and options; FromState rebuilds the provider (index maps and SoS
  /// tables re-derived) so that every query answers byte-identically to
  /// this one. FromState validates thoroughly — masks inside the cluster,
  /// totals matching the pattern counts, no duplicate patterns — and
  /// returns InvalidArgument on any inconsistency, so a corrupt snapshot
  /// cannot materialize a provider that fails later.
  EmpiricalJointStatsState ExportState() const;
  static StatusOr<std::unique_ptr<EmpiricalJointStats>> FromState(
      const EmpiricalJointStatsState& state);

  size_t total_true() const { return total_true_; }
  size_t total_false() const { return total_false_; }

 private:
  struct Pattern {
    Mask providers = 0;
    Mask scope = 0;
    uint32_t count = 0;
  };
  struct Counts {
    size_t num_true = 0;
    size_t num_false = 0;
    size_t den_true = 0;  // scope-restricted true-count denominator
  };
  /// Training counts behind one direct-likelihood query (P, N): cnt_* sum
  /// the patterns whose providers restricted to P | N are exactly P, den_*
  /// every pattern whose scope covers P | N (all of them without scopes).
  struct PatternCounts {
    size_t cnt_true = 0;
    size_t cnt_false = 0;
    size_t den_true = 0;
    size_t den_false = 0;
  };

  EmpiricalJointStats() = default;

  /// The superset counts of `subset`: a table read when has_tables_, one
  /// scan of the pattern lists otherwise.
  Counts ComputeCounts(Mask subset) const;
  /// Checks a batch or single direct query against this provider's state.
  Status CheckDirectQuery(bool calibrated) const;
  /// The count-to-likelihood step of both direct paths: the literal
  /// alpha-scaled form (with the S* = empty correction when `providers` is
  /// empty) or the calibrated +0.5 / +1 form.
  std::pair<double, double> DirectLikelihood(Mask providers,
                                             const PatternCounts& counts,
                                             bool calibrated) const;
  /// (Re)builds the sum-over-supersets tables from the pattern lists when
  /// k_ <= kSosTableMaxBits (sets has_tables_).
  void BuildTables();
  /// Adds `count_delta` to the SoS tables for a pattern (submask walk).
  void AddToTables(const Pattern& pattern, bool is_true, int count_delta);

  int k_ = 0;
  QualityOptions options_;
  std::vector<Pattern> true_patterns_;
  std::vector<Pattern> false_patterns_;
  size_t total_true_ = 0;
  size_t total_false_ = 0;
  // Position of each distinct (providers, scope) pattern in the vectors
  // above, for incremental count updates.
  std::unordered_map<std::pair<Mask, Mask>, size_t, MaskPairHash> true_index_;
  std::unordered_map<std::pair<Mask, Mask>, size_t, MaskPairHash> false_index_;

  // Sum-over-supersets tables (index = mask), built when
  // k_ <= kSosTableMaxBits.
  bool has_tables_ = false;
  std::vector<uint32_t> sup_true_;
  std::vector<uint32_t> sup_false_;
  std::vector<uint32_t> sup_scope_true_;  // only populated with scopes
};

/// Joint statistics supplied directly by the caller. Missing subsets fall
/// back to the independence assumption over the singleton parameters.
class ExplicitJointStats : public JointStatsProvider {
 public:
  /// `singletons[i]` gives (p, r, q) of cluster-local source i.
  ExplicitJointStats(std::vector<JointQuality> singletons, double alpha);

  /// Sets the joint quality of `subset` (popcount >= 2).
  void SetJoint(Mask subset, JointQuality quality);

  int num_sources() const override { return static_cast<int>(singles_.size()); }
  double alpha() const override { return alpha_; }
  JointQuality Get(Mask subset) const override;
  StatusOr<std::unique_ptr<JointStatsProvider>> Clone() const override {
    return std::unique_ptr<JointStatsProvider>(new ExplicitJointStats(*this));
  }

 private:
  std::vector<JointQuality> singles_;
  std::unordered_map<Mask, JointQuality> joints_;
  double alpha_;
};

}  // namespace fuser

#endif  // FUSER_CORE_JOINT_STATS_H_
