// Binary-decision metrics: confusion counts, precision/recall/F1.
//
// These are the metrics of Section 5 ("Metrics"): precision over returned
// true triples, recall over provided true triples, and their harmonic mean.
#ifndef FUSER_STATS_METRICS_H_
#define FUSER_STATS_METRICS_H_

#include <cstddef>
#include <vector>

#include "common/bitset.h"
#include "model/dataset.h"

namespace fuser {

/// Confusion counts over the evaluated triples.
struct ConfusionCounts {
  size_t tp = 0;
  size_t fp = 0;
  size_t fn = 0;
  size_t tn = 0;

  size_t total() const { return tp + fp + fn + tn; }

  /// tp / (tp + fp); 1 when nothing was returned (vacuous precision).
  double Precision() const;
  /// tp / (tp + fn); 1 when there are no positives.
  double Recall() const;
  double F1() const;
};

/// Compares thresholded `scores` against gold labels on the triples in
/// `eval_mask` (must be labeled). Accepts a triple when its score is
/// >= threshold.
ConfusionCounts EvaluateDecisions(const Dataset& dataset,
                                  const std::vector<double>& scores,
                                  const DynamicBitset& eval_mask,
                                  double threshold);

}  // namespace fuser

#endif  // FUSER_STATS_METRICS_H_
