// Source quality: precision, recall, and the derived false positive rate
// (Sections 2.2 and 3.2 of the paper).
//
// Precision and recall are estimated from training data (a labeled subset
// of the provided triples); the false positive rate is *derived* from them
// via Theorem 3.5:
//
//   q = alpha/(1-alpha) * (1-p)/p * r
//
// rather than counted directly, so that the estimate is not biased by the
// quality of the other sources (Example 3.4). The joint quality of a set
// of sources (Section 4) is the same estimate over the triples they all
// provide. QualityFromCounts is the one copy of that arithmetic: the
// per-source estimate, the joint statistics of a cluster and the pairwise
// correlation screen all call it, under the one QualityOptions record
// that ValidateQualityOptions checks.
#ifndef FUSER_CORE_QUALITY_H_
#define FUSER_CORE_QUALITY_H_

#include <algorithm>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"
#include "model/dataset.h"

namespace fuser {

class ThreadPool;

/// Quality of one source (or of a set of sources, for joint quality).
struct SourceQuality {
  double precision = 0.0;
  double recall = 0.0;
  /// False positive rate q = Pr(S|=t | not t), derived via Theorem 3.5.
  double fpr = 0.0;

  /// Raw counts behind the estimates (pre-smoothing), for diagnostics.
  size_t provided_labeled = 0;  // |O_i ∩ labeled ∩ train|
  size_t provided_true = 0;     // |O_i ∩ true ∩ train|
  size_t scope_true = 0;        // # true train triples in the source's scope

  /// A source is "good" if r > q, i.e., it is more likely to provide a true
  /// triple than a false one (Section 3.1).
  bool IsGood() const { return recall > fpr; }
};

/// Joint quality of a subset of sources (one source: its own quality).
struct JointQuality {
  double precision = 0.0;
  double recall = 0.0;
  double fpr = 0.0;
};

/// The parameters of every count-based estimate. ModelOptions extends this
/// record, so the engine's model options are these.
struct QualityOptions {
  /// A priori probability that a triple is true (Pr(t) = alpha).
  double alpha = 0.5;
  /// Laplace smoothing: counts become (num + s) / (den + 2 s). 0 reproduces
  /// the paper's direct ratios.
  double smoothing = 0.0;
  /// When true, a source's recall denominator counts only true triples in
  /// domains the source covers ("scope" of its input, Section 2.2), and its
  /// silence about t counts only when t's domain is in its scope.
  bool use_scopes = false;
};

/// Rejects options no estimate may run under: alpha outside (0, 1) or a
/// negative or non-finite smoothing (NaN fails both).
Status ValidateQualityOptions(const QualityOptions& options);

/// Theorem 3.5 over training counts: `num_true` and `num_false` true and
/// false training triples provided (by the source, or by every source of a
/// set), `scope_true` true training triples in scope. Precision and recall
/// are (smoothed) ratios; fpr is the count-level form
///   q = alpha/(1-alpha) * (num_false + s) / (scope_true + 2s),
/// equal to deriving it from p and r but defined when no provided triple
/// is true, and clamped to [0, 1]. Without smoothing, no provided triple
/// gives precision alpha (an uninformative prior) and no true triple in
/// scope gives recall and fpr 0.
inline JointQuality QualityFromCounts(double num_true, double num_false,
                                      double scope_true,
                                      const QualityOptions& options) {
  const double s = options.smoothing;
  const double den = scope_true + 2.0 * s;
  JointQuality quality;
  quality.precision = num_true + num_false == 0.0 && s == 0.0
                          ? options.alpha
                          : (num_true + s) / (num_true + num_false + 2.0 * s);
  quality.recall = den > 0.0 ? (num_true + s) / den : 0.0;
  quality.fpr = den > 0.0 ? std::clamp(options.alpha / (1.0 - options.alpha) *
                                           (num_false + s) / den,
                                       0.0, 1.0)
                          : 0.0;
  return quality;
}

/// The training triples (train ∩ labeled) in one compact layout that the
/// model-building steps read instead of the full-corpus bitsets: pairwise
/// counts and per-cluster joint statistics. Training triples get
/// positions, true ones first: positions [0, num_true) are the true
/// training triples and [num_true, num_true + num_false) the false ones,
/// each class in ascending triple order. Each source's provider bits are
/// packed down to these positions in one column: true_words words over the
/// true positions, then false_words words over the false ones (tail bits
/// zero), so a class count is a popcount over its section alone. Any
/// number of sources.
struct TrainingView {
  size_t num_sources = 0;
  size_t num_true = 0;
  size_t num_false = 0;
  size_t true_words = 0;   // (num_true + 63) / 64
  size_t false_words = 0;  // (num_false + 63) / 64
  /// num_sources columns of stride() words each.
  AlignedWordVector provides;
  /// Domain of each position (num_true + num_false entries).
  std::vector<DomainId> domains;
  /// The dataset's scope relation: covers[s] holds the domains source s
  /// covers (num_domains bits).
  size_t num_domains = 0;
  std::vector<DynamicBitset> covers;

  size_t stride() const { return true_words + false_words; }
  const uint64_t* column(SourceId s) const {
    return provides.data() + s * stride();
  }
};

/// Builds the view of `dataset`'s training triples; sources are packed 64
/// at a time, one group per task across `num_threads` workers (on `pool`
/// when given).
StatusOr<TrainingView> BuildTrainingView(const Dataset& dataset,
                                         const DynamicBitset& train_mask,
                                         size_t num_threads = 1,
                                         ThreadPool* pool = nullptr);

/// Estimates quality for every source from the training triples
/// (`train_mask` selects them; unlabeled ones are ignored). Follows
/// Section 3.2: the truth set is the set of true training triples provided
/// by at least one source. With scopes, scope_true sums per-domain counts
/// of true training triples over the domains the source covers.
StatusOr<std::vector<SourceQuality>> EstimateSourceQuality(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const QualityOptions& options);

/// Recomputes precision/recall/fpr from the raw counts already stored in
/// `quality` (provided_true, provided_labeled, scope_true). This is the
/// arithmetic half of EstimateSourceQuality, exposed so per-partition
/// counts can be summed across shards and finalized with the exact same
/// formulas as the unsharded estimator.
Status FinalizeQualityFromCounts(const QualityOptions& options,
                                 std::vector<SourceQuality>* quality);

/// Adds `from`'s raw counts into `into` element-wise. Both vectors must be
/// the same length; derived rates are left stale (call
/// FinalizeQualityFromCounts after the last merge).
Status MergeQualityCounts(std::vector<SourceQuality>* into,
                          const std::vector<SourceQuality>& from);

}  // namespace fuser

#endif  // FUSER_CORE_QUALITY_H_
