// Correlation factors (Section 4.2, step I) and pairwise correlation
// discovery.
//
//   C_{S*}  = r_{S*} / prod_i r_i   (correlation on true triples, Eq. 16)
//   C!_{S*} = q_{S*} / prod_i q_i   (correlation on false triples, Eq. 17)
//
// Values > 1 indicate positive correlation, < 1 negative correlation
// (anti-correlation), and == 1 independence. The per-source leave-one-out
// factors C+_i and C-_i (Eqs. 14-15) drive the aggressive and elastic
// approximations.
#ifndef FUSER_CORE_CORRELATION_H_
#define FUSER_CORE_CORRELATION_H_

#include <vector>

#include "common/bit_util.h"
#include "common/bitset.h"
#include "common/status.h"
#include "core/joint_stats.h"
#include "core/quality.h"
#include "model/dataset.h"

namespace fuser {

/// Correlation of a subset of sources, on true and on false triples.
struct CorrelationFactors {
  double on_true = 1.0;   // C_{S*}
  double on_false = 1.0;  // C!_{S*}
};

/// Per-source aggressive-approximation factors for one cluster:
///   C+_i = r_{1..n} / (r_i * r_{1..n \ i}),
///   C-_i = q_{1..n} / (q_i * q_{1..n \ i}).
/// Zero denominators yield a neutral factor of 1.
struct AggressiveFactors {
  std::vector<double> c_plus;
  std::vector<double> c_minus;
};
AggressiveFactors ComputeAggressiveFactors(const JointStatsProvider& stats);

/// Pairwise correlation between two global sources, estimated over training
/// triples: C on true triples and C! on false triples.
struct PairwiseCorrelation {
  SourceId a = 0;
  SourceId b = 0;
  CorrelationFactors factors;
  /// Evidence strength: the smaller of the two sources' labeled-output
  /// sizes (an upper bound on observable overlap).
  size_t support = 0;
  /// Observed joint counts and their expectations under independence
  /// (r_a * r_b * |true|, and the analogue for false). Used to judge the
  /// statistical significance of a factor's deviation.
  size_t joint_true_count = 0;
  size_t joint_false_count = 0;
  double indep_true_count = 0.0;
  double indep_false_count = 0.0;
  /// True when the joint counts are sketch estimates (may carry sampling
  /// error); false for exact bitset counts, including sketch-mode pairs
  /// re-scored by the exact oracle.
  bool estimated = false;
};

/// All pairwise correlations among `sources` (global ids): one entry per
/// unordered pair, from ComputePairwiseCounts over the training view and
/// PairwiseCorrelationsFromCounts. For large source counts see the sketch
/// estimator in stats/correlation_sketch.h.
StatusOr<std::vector<PairwiseCorrelation>> ComputePairwiseCorrelations(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const std::vector<SourceId>& sources, const QualityOptions& options);

/// The per-source (linear-cost) half of pairwise discovery: the marginal
/// rates r_i (recall) and q_i (fpr) every pair's factors divide by, from
/// QualityFromCounts over all true training triples (no scopes). The exact
/// path derives them from PairwiseCounts; the sketch estimator from the
/// dataset (ComputePairwiseMarginals), keeping the class masks its few
/// exact rescores AND-count against.
struct PairwiseMarginals {
  /// The sources the marginals were computed for (global ids; indices
  /// below are positions in this vector).
  std::vector<SourceId> sources;
  DynamicBitset train_true;   // true ∩ train (sketch path only)
  DynamicBitset train_false;  // labeled ∩ train ∩ ~true (sketch path only)
  double total_true = 0.0;    // |true ∩ train|
  /// Alpha and smoothing of every rate (use_scopes is not consulted).
  QualityOptions options;
  std::vector<double> r;  // marginal recall per source
  std::vector<double> q;  // marginal fpr per source
  /// The source's labeled training output size.
  std::vector<size_t> labeled_count;
};

StatusOr<PairwiseMarginals> ComputePairwiseMarginals(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const std::vector<SourceId>& sources, const QualityOptions& options);

/// Assembles one PairwiseCorrelation from marginals and joint counts
/// (exact or sketch-estimated) for the pair at positions (a, b) of
/// `marginals.sources`. The C/C! factor arithmetic lives here once so the
/// exact and approximate paths cannot drift.
PairwiseCorrelation MakePairwiseCorrelation(const PairwiseMarginals& marginals,
                                            size_t a, size_t b,
                                            double joint_true,
                                            double joint_false);

/// Integer sufficient statistics behind ComputePairwiseCorrelations for one
/// data partition: per-source class counts plus upper-triangular joint
/// counts. Counts over disjoint partitions of the training triples sum
/// exactly, so K shard-local PairwiseCounts merge into the global counts a
/// single pass over the whole dataset would have produced.
struct PairwiseCounts {
  std::vector<SourceId> sources;
  size_t total_true = 0;               // |true ∩ train| in this partition
  std::vector<size_t> true_count;      // |O_i ∩ true ∩ train| per source
  std::vector<size_t> false_count;     // |O_i ∩ labeled ∩ train ∩ ~true|
  /// Row-major upper triangle (a < b) at index a*S - a*(a+1)/2 + (b-a-1).
  std::vector<size_t> joint_true;
  std::vector<size_t> joint_false;
};

/// Counts `sources` (ids of the view's sources) over the view: popcounts
/// and AND-counts of the packed columns, one class section at a time.
StatusOr<PairwiseCounts> ComputePairwiseCounts(
    const TrainingView& view, const std::vector<SourceId>& sources);

/// Element-wise sum of `from` into `into` (same source list required).
Status MergePairwiseCounts(PairwiseCounts* into, const PairwiseCounts& from);

/// The pairwise correlations of (merged) integer counts.
StatusOr<std::vector<PairwiseCorrelation>> PairwiseCorrelationsFromCounts(
    const PairwiseCounts& counts, const QualityOptions& options);

}  // namespace fuser

#endif  // FUSER_CORE_CORRELATION_H_
