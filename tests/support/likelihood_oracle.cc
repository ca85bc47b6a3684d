#include "support/likelihood_oracle.h"

namespace fuser {

TripleObservation ObserveTriple(const Dataset& dataset,
                                const std::vector<SourceId>& cluster_sources,
                                bool use_scopes, TripleId t) {
  TripleObservation obs;
  for (size_t i = 0; i < cluster_sources.size(); ++i) {
    const SourceId s = cluster_sources[i];
    if (dataset.provides(s, t)) obs.providers |= Mask{1} << i;
    if (!use_scopes || dataset.in_scope(s, t)) obs.scope |= Mask{1} << i;
  }
  return obs;
}

BruteForceLikelihood::BruteForceLikelihood(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const std::vector<SourceId>& cluster_sources,
    const JointStatsOptions& options)
    : alpha_(options.alpha) {
  for (TripleId t = 0; t < dataset.num_triples(); ++t) {
    if (!train_mask.Test(t) || dataset.label(t) == Label::kUnknown) continue;
    rows_.push_back(
        {ObserveTriple(dataset, cluster_sources, options.use_scopes, t),
         dataset.label(t) == Label::kTrue});
  }
}

std::pair<double, double> BruteForceLikelihood::Likelihood(
    Mask providers, Mask nonproviders, bool calibrated) const {
  const Mask observed = providers | nonproviders;
  // [class][0] counts matches, [class][1] the scope denominator; class 1 is
  // true.
  size_t counts[2][2] = {{0, 0}, {0, 0}};
  for (const Row& row : rows_) {
    if ((row.obs.scope & observed) != observed) continue;
    ++counts[row.is_true][1];
    if ((row.obs.providers & observed) == providers) ++counts[row.is_true][0];
  }
  const double cnt_true = static_cast<double>(counts[1][0]);
  const double den_true = static_cast<double>(counts[1][1]);
  const double cnt_false = static_cast<double>(counts[0][0]);
  const double den_false = static_cast<double>(counts[0][1]);
  if (calibrated) {
    return {(cnt_true + 0.5) / (den_true + 1.0),
            (cnt_false + 0.5) / (den_false + 1.0)};
  }
  if (den_true == 0.0) return {1.0, 1.0};
  // Theorem 3.5: q = alpha / (1 - alpha) * (false count) / (true count),
  // with q of the empty subset fixed at 1.
  const double odds = alpha_ / (1.0 - alpha_);
  double given_false = odds * cnt_false / den_true;
  if (providers == 0) given_false += 1.0 - odds * den_false / den_true;
  return {cnt_true / den_true, given_false};
}

BruteForceLikelihood::SupersetCounts BruteForceLikelihood::Superset(
    Mask subset) const {
  SupersetCounts counts;
  for (const Row& row : rows_) {
    const bool provided = (row.obs.providers & subset) == subset;
    if (row.is_true) {
      counts.num_true += provided;
      counts.den_true += (row.obs.scope & subset) == subset;
    } else {
      counts.num_false += provided;
    }
  }
  return counts;
}

}  // namespace fuser
