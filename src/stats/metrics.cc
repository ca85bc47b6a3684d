#include "stats/metrics.h"

#include "common/logging.h"
#include "common/math_util.h"

namespace fuser {

double ConfusionCounts::Precision() const {
  size_t returned = tp + fp;
  if (returned == 0) return 1.0;
  return static_cast<double>(tp) / static_cast<double>(returned);
}

double ConfusionCounts::Recall() const {
  size_t positives = tp + fn;
  if (positives == 0) return 1.0;
  return static_cast<double>(tp) / static_cast<double>(positives);
}

double ConfusionCounts::F1() const { return F1Score(Precision(), Recall()); }

ConfusionCounts EvaluateDecisions(const Dataset& dataset,
                                  const std::vector<double>& scores,
                                  const DynamicBitset& eval_mask,
                                  double threshold) {
  FUSER_CHECK_EQ(scores.size(), dataset.num_triples());
  ConfusionCounts counts;
  eval_mask.ForEach([&](size_t t) {
    Label gold = dataset.label(static_cast<TripleId>(t));
    FUSER_CHECK(gold != Label::kUnknown)
        << "eval mask contains unlabeled triple " << t;
    bool accepted = scores[t] >= threshold;
    bool is_true = gold == Label::kTrue;
    if (accepted && is_true) {
      ++counts.tp;
    } else if (accepted && !is_true) {
      ++counts.fp;
    } else if (!accepted && is_true) {
      ++counts.fn;
    } else {
      ++counts.tn;
    }
  });
  return counts;
}

}  // namespace fuser
