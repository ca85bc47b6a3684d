#include "core/correlation.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/simd.h"

namespace fuser {

AggressiveFactors ComputeAggressiveFactors(const JointStatsProvider& stats) {
  const int k = stats.num_sources();
  AggressiveFactors factors;
  factors.c_plus.assign(static_cast<size_t>(k), 1.0);
  factors.c_minus.assign(static_cast<size_t>(k), 1.0);
  if (k < 2) {
    return factors;
  }
  const Mask full = FullMask(k);
  JointQuality all = stats.Get(full);
  for (int i = 0; i < k; ++i) {
    JointQuality self = stats.Get(Mask{1} << i);
    JointQuality rest = stats.Get(WithoutBit(full, i));
    double denom_r = self.recall * rest.recall;
    double denom_q = self.fpr * rest.fpr;
    factors.c_plus[static_cast<size_t>(i)] =
        denom_r > 0.0 ? all.recall / denom_r : 1.0;
    factors.c_minus[static_cast<size_t>(i)] =
        denom_q > 0.0 ? all.fpr / denom_q : 1.0;
  }
  return factors;
}

namespace {

/// Marginals from per-source class counts: the one copy of the r_i / q_i
/// arithmetic, shared by the exact and sketch paths.
PairwiseMarginals MarginalsFromCounts(const std::vector<SourceId>& sources,
                                      size_t total_true,
                                      const std::vector<size_t>& true_count,
                                      const std::vector<size_t>& false_count,
                                      const JointStatsOptions& options) {
  // r_X = |O_X ∩ true ∩ train| / |true ∩ train| and the count-level
  // Theorem 3.5 form for q. Scope-restricted denominators are deliberately
  // not used here (pairwise factors are a screening heuristic); the
  // per-cluster joint statistics built afterwards honor scopes.
  PairwiseMarginals marginals;
  marginals.sources = sources;
  marginals.total_true = static_cast<double>(total_true);
  marginals.alpha_odds = options.alpha / (1.0 - options.alpha);
  marginals.smoothing = options.smoothing;
  const double s = options.smoothing;
  const size_t n = sources.size();
  marginals.r.resize(n);
  marginals.q.resize(n);
  marginals.labeled_count.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double nt = static_cast<double>(true_count[i]);
    double nf = static_cast<double>(false_count[i]);
    double den = marginals.total_true + 2.0 * s;
    marginals.r[i] = den > 0.0 ? (nt + s) / den : 0.0;
    marginals.q[i] =
        den > 0.0 ? std::min(marginals.alpha_odds * (nf + s) / den, 1.0) : 0.0;
    marginals.labeled_count[i] = true_count[i] + false_count[i];
  }
  return marginals;
}

}  // namespace

StatusOr<PairwiseMarginals> ComputePairwiseMarginals(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const std::vector<SourceId>& sources, const JointStatsOptions& options) {
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset not finalized");
  }
  DynamicBitset train_true = dataset.true_mask();
  train_true.AndWith(train_mask);
  DynamicBitset train_false = dataset.labeled_mask();
  train_false.AndWith(train_mask);
  train_false.AndNotWith(dataset.true_mask());
  std::vector<size_t> true_count(sources.size());
  std::vector<size_t> false_count(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    true_count[i] = dataset.output(sources[i]).AndCount(train_true);
    false_count[i] = dataset.output(sources[i]).AndCount(train_false);
  }
  PairwiseMarginals marginals = MarginalsFromCounts(
      sources, train_true.Count(), true_count, false_count, options);
  marginals.train_true = std::move(train_true);
  marginals.train_false = std::move(train_false);
  return marginals;
}

PairwiseCorrelation MakePairwiseCorrelation(const PairwiseMarginals& marginals,
                                            size_t a, size_t b,
                                            double joint_true,
                                            double joint_false) {
  const double total_true = marginals.total_true;
  const double alpha_odds = marginals.alpha_odds;
  const double s = marginals.smoothing;
  const std::vector<double>& r = marginals.r;
  const std::vector<double>& q = marginals.q;
  double den = total_true + 2.0 * s;
  double r_ab = den > 0.0 ? (joint_true + s) / den : 0.0;
  double q_ab =
      den > 0.0 ? std::min(alpha_odds * (joint_false + s) / den, 1.0) : 0.0;
  PairwiseCorrelation corr;
  corr.a = marginals.sources[a];
  corr.b = marginals.sources[b];
  corr.factors.on_true = r[a] * r[b] > 0.0 ? r_ab / (r[a] * r[b]) : 1.0;
  corr.factors.on_false = q[a] * q[b] > 0.0 ? q_ab / (q[a] * q[b]) : 1.0;
  // Evidence strength: the smaller side's labeled output bounds how
  // much overlap could have been observed (anti-correlated pairs have
  // zero joint count by construction, so joint size is unusable here).
  corr.support =
      std::min(marginals.labeled_count[a], marginals.labeled_count[b]);
  corr.joint_true_count = static_cast<size_t>(joint_true);
  corr.joint_false_count = static_cast<size_t>(joint_false);
  corr.indep_true_count = r[a] * r[b] * total_true;
  corr.indep_false_count =
      total_true > 0.0 ? q[a] * q[b] * total_true / alpha_odds : 0.0;
  return corr;
}

StatusOr<PairwiseCounts> ComputePairwiseCounts(
    const TrainingView& view, const std::vector<SourceId>& sources) {
  PairwiseCounts counts;
  counts.sources = sources;
  counts.total_true = view.num_true;
  const size_t n = sources.size();
  const size_t tw = view.true_words;
  const size_t fw = view.false_words;
  std::vector<const uint64_t*> columns(n);
  counts.true_count.resize(n);
  counts.false_count.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (sources[i] >= view.num_sources) {
      return Status::InvalidArgument("pairwise source id out of range");
    }
    const uint64_t* column = view.column(sources[i]);
    columns[i] = column;
    counts.true_count[i] =
        static_cast<size_t>(simd::AndCountWords(column, column, tw));
    counts.false_count[i] = static_cast<size_t>(
        simd::AndCountWords(column + tw, column + tw, fw));
  }
  counts.joint_true.reserve(n * (n - 1) / 2);
  counts.joint_false.reserve(n * (n - 1) / 2);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      counts.joint_true.push_back(static_cast<size_t>(
          simd::AndCountWords(columns[a], columns[b], tw)));
      counts.joint_false.push_back(static_cast<size_t>(
          simd::AndCountWords(columns[a] + tw, columns[b] + tw, fw)));
    }
  }
  return counts;
}

Status MergePairwiseCounts(PairwiseCounts* into, const PairwiseCounts& from) {
  if (into->sources != from.sources ||
      into->joint_true.size() != from.joint_true.size()) {
    return Status::InvalidArgument("pairwise counts over different sources");
  }
  into->total_true += from.total_true;
  for (size_t i = 0; i < from.true_count.size(); ++i) {
    into->true_count[i] += from.true_count[i];
    into->false_count[i] += from.false_count[i];
  }
  for (size_t p = 0; p < from.joint_true.size(); ++p) {
    into->joint_true[p] += from.joint_true[p];
    into->joint_false[p] += from.joint_false[p];
  }
  return Status::OK();
}

StatusOr<std::vector<PairwiseCorrelation>> PairwiseCorrelationsFromCounts(
    const PairwiseCounts& counts, const JointStatsOptions& options) {
  const size_t n = counts.sources.size();
  if (counts.true_count.size() != n || counts.false_count.size() != n ||
      counts.joint_true.size() != n * (n - 1) / 2 ||
      counts.joint_false.size() != n * (n - 1) / 2) {
    return Status::InvalidArgument("pairwise counts are inconsistent");
  }
  const PairwiseMarginals marginals =
      MarginalsFromCounts(counts.sources, counts.total_true,
                          counts.true_count, counts.false_count, options);
  std::vector<PairwiseCorrelation> result;
  result.reserve(n * (n - 1) / 2);
  size_t pair = 0;
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b, ++pair) {
      result.push_back(MakePairwiseCorrelation(
          marginals, a, b, static_cast<double>(counts.joint_true[pair]),
          static_cast<double>(counts.joint_false[pair])));
    }
  }
  return result;
}

StatusOr<std::vector<PairwiseCorrelation>> ComputePairwiseCorrelations(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const std::vector<SourceId>& sources, const JointStatsOptions& options) {
  FUSER_ASSIGN_OR_RETURN(TrainingView view,
                         BuildTrainingView(dataset, train_mask));
  FUSER_ASSIGN_OR_RETURN(PairwiseCounts counts,
                         ComputePairwiseCounts(view, sources));
  return PairwiseCorrelationsFromCounts(counts, options);
}

}  // namespace fuser
