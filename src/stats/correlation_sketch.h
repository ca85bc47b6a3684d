// Sketch-based approximate pairwise correlation discovery.
//
// Exact discovery (core/correlation.h) intersects every source pair's
// full labeled bitsets: O(S^2 * m/64) word operations, the last
// superlinear wall as the source count grows. Following the coordinated
// sampling idea of Correlation Sketches (Santos et al., arXiv 2104.03353),
// this module estimates the O(S^2) joint counts from one shared bottom-k
// (KMV-style) sample per class instead:
//
//  * every labeled training triple id is hashed once with a fixed seed;
//    the k smallest hashes of each class (true / false) form the sample —
//    because the hash is shared, every source's sample is *coordinated*:
//    pair overlap within the sample is an unbiased picture of pair
//    overlap in the class;
//  * per source, one compact bit row over the sampled positions is filled
//    in a single pass over the samples' provider lists;
//  * a pair's joint count is then estimated as
//        (sampled joint overlap) * (class size / k)
//    with the same AND+popcount kernel as the exact path, but over k bits
//    instead of m — O(S^2 * k/64) total.
//
// The sampled joint *rate* obeys a Hoeffding/Serfling bound (sampling
// without replacement): |p_hat - p| <= sqrt(ln(2/delta) / (2k)) with
// probability >= 1 - delta per pair. Marginals (r_i, q_i) stay exact —
// they are linear-cost — so only the joint counts carry sampling error,
// and ComputePairwiseCorrelationsApprox re-scores the top-k most
// significant pairs with the exact bitset oracle before returning.
#ifndef FUSER_STATS_CORRELATION_SKETCH_H_
#define FUSER_STATS_CORRELATION_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"
#include "core/correlation.h"
#include "model/dataset.h"

namespace fuser {

/// Options of the approximate discovery mode.
struct ApproxOptions {
  /// Bottom-k sample size per class. Larger = tighter error bound
  /// (~1/sqrt(k)) and slower; 2048 bounds the joint-rate error at ~0.049
  /// per pair at delta = 1e-4.
  size_t sketch_size = 2048;
  /// Absolute error bound on estimated joint rates asserted by callers;
  /// 0 derives it from sketch_size via SketchErrorBound(sketch_size,
  /// delta).
  double error_bound = 0.0;
  /// Per-pair failure probability behind the derived bound.
  double delta = 1e-4;
  /// The top-k pairs by significance are re-scored with the exact bitset
  /// oracle (their returned counts carry no sampling error). 0 disables
  /// the exact pass.
  size_t exact_top_k = 64;
  /// Sampling hash seed; fixed so runs are reproducible.
  uint64_t seed = 0x5EEDC0DEULL;
};

/// Hoeffding/Serfling bound on |estimated - true| joint *rate* for a
/// bottom-k sample of size `sketch_size`: sqrt(ln(2/delta) / (2k)). Holds
/// per pair with probability >= 1 - delta; sampling without replacement
/// only tightens it.
double SketchErrorBound(size_t sketch_size, double delta);

/// Coordinated per-source samples of the labeled training triples, one
/// bit row per source over the sampled positions of each class.
class CorrelationSketch {
 public:
  /// Builds the sketch: hashes the labeled training triple ids, keeps the
  /// bottom `sketch_size` per class, and fills the per-source rows in one
  /// pass over the sampled triples' provider lists. `sources` are global
  /// ids; row indices below are positions in this vector.
  static StatusOr<CorrelationSketch> Build(const Dataset& dataset,
                                           const DynamicBitset& train_mask,
                                           const std::vector<SourceId>& sources,
                                           size_t sketch_size, uint64_t seed);

  size_t num_sources() const { return num_sources_; }
  /// Realized sample sizes (== min(sketch_size, class size)).
  size_t sampled_true() const { return k_true_; }
  size_t sampled_false() const { return k_false_; }
  /// Class sizes the estimates are scaled to.
  size_t total_true() const { return total_true_; }
  size_t total_false() const { return total_false_; }

  /// Raw joint overlap within the sample for the pair at row positions
  /// (a, b).
  size_t SampledJointTrue(size_t a, size_t b) const {
    return JointCount(bits_true_, words_true_, a, b);
  }
  size_t SampledJointFalse(size_t a, size_t b) const {
    return JointCount(bits_false_, words_false_, a, b);
  }

  /// Joint-count estimates scaled to the full class:
  /// sampled * (total / k). Exact when the sample is exhaustive (class
  /// size <= sketch_size).
  double EstimateJointTrue(size_t a, size_t b) const {
    return static_cast<double>(SampledJointTrue(a, b)) * scale_true_;
  }
  double EstimateJointFalse(size_t a, size_t b) const {
    return static_cast<double>(SampledJointFalse(a, b)) * scale_false_;
  }

  /// Scale factors class_total / k applied by the estimators (1 when the
  /// sample is exhaustive).
  double scale_true() const { return scale_true_; }
  double scale_false() const { return scale_false_; }

  /// Raw row storage for hot loops: source i's row of class bits starts
  /// at `*_rows() + i * *_row_words()`. Rows are 64-byte aligned.
  const uint64_t* true_rows() const { return bits_true_.data(); }
  const uint64_t* false_rows() const { return bits_false_.data(); }
  size_t true_row_words() const { return words_true_; }
  size_t false_row_words() const { return words_false_; }

  /// Default-constructed sketches are empty (StatusOr requires this);
  /// use Build().
  CorrelationSketch() = default;

 private:
  size_t JointCount(const AlignedWordVector& bits, size_t words, size_t a,
                    size_t b) const;

  size_t num_sources_ = 0;
  size_t k_true_ = 0;
  size_t k_false_ = 0;
  size_t total_true_ = 0;
  size_t total_false_ = 0;
  double scale_true_ = 1.0;
  double scale_false_ = 1.0;
  /// Row stride in words, rounded up to a multiple of 8 so every row
  /// starts 64-byte aligned within the aligned backing vector.
  size_t words_true_ = 0;
  size_t words_false_ = 0;
  AlignedWordVector bits_true_;   // num_sources_ rows of words_true_
  AlignedWordVector bits_false_;  // num_sources_ rows of words_false_
};

/// Extra outputs of the approximate discovery pass, for benches/tests.
struct ApproxDiscoveryReport {
  size_t sampled_true = 0;
  size_t sampled_false = 0;
  size_t total_true = 0;
  size_t total_false = 0;
  /// The effective error bound on estimated joint rates (configured or
  /// derived from sketch_size).
  double error_bound = 0.0;
  /// Pairs re-scored by the exact oracle.
  size_t rescored_pairs = 0;
};

/// Sketch-mode counterpart of ComputePairwiseCorrelations: same contract
/// (one entry per unordered pair, same factor arithmetic, exact
/// marginals), but joint counts come from the sketch — O(S^2 * k/64)
/// instead of O(S^2 * m/64) — and carry `estimated = true`. The
/// `approx.exact_top_k` most significant pairs (deviation of joint count
/// from coverage-adjusted independence, the same signal the clustering
/// pre-screen thresholds) are then re-scored with the exact bitset oracle
/// and carry `estimated = false`. `report` (optional) receives sample
/// sizes and the effective error bound.
StatusOr<std::vector<PairwiseCorrelation>> ComputePairwiseCorrelationsApprox(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const std::vector<SourceId>& sources, const QualityOptions& options,
    const ApproxOptions& approx, ApproxDiscoveryReport* report = nullptr);

/// Discovery report: the pairs with the most extreme factors, ranked for
/// human consumption (fuser_cli --discover and the discovery benches).
struct CorrelationRanking {
  /// Highest C / C! factors (strongest positive correlation), descending.
  std::vector<PairwiseCorrelation> strongest_true;
  std::vector<PairwiseCorrelation> strongest_false;
  /// Lowest factors (most anti-correlated), ascending.
  std::vector<PairwiseCorrelation> most_anti_true;
  std::vector<PairwiseCorrelation> most_anti_false;
};

/// Ranks `pairs` by factor on each class and keeps the top `top_n` of
/// each extreme. Pairs with support below `min_support` are skipped
/// (factors from near-empty overlaps are noise). Deterministic: ties
/// break on (a, b).
CorrelationRanking RankCorrelations(
    const std::vector<PairwiseCorrelation>& pairs, size_t top_n,
    size_t min_support = 2);

}  // namespace fuser

#endif  // FUSER_STATS_CORRELATION_SKETCH_H_
