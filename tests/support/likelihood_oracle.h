// Brute-force reference of the direct pattern likelihood
// (JointStatsProvider::DirectPatternLikelihood and ScoreAllPatterns) and
// of the superset counts behind EmpiricalJointStats::Get. It reads each
// labeled training triple's cluster-local providers and scope straight
// from the Dataset, counts the triples that match one observation (P, N)
// exactly, and applies the paper's count-to-likelihood step — never
// touching EmpiricalJointStats' aggregated pattern lists, its
// sum-over-supersets tables or its batching. tests/likelihood_oracle_test.cc
// asserts both direct paths byte-identical to it, tests/joint_stats_test.cc
// the subset lookups. Part of the fuser_test_support library.
#ifndef FUSER_TESTS_SUPPORT_LIKELIHOOD_ORACLE_H_
#define FUSER_TESTS_SUPPORT_LIKELIHOOD_ORACLE_H_

#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "common/bitset.h"
#include "core/joint_stats.h"
#include "model/dataset.h"

namespace fuser {

/// One triple's cluster-local observation: bit i of `providers` is set iff
/// cluster source i provides the triple; bit i of `scope` iff the triple is
/// in that source's scope (every bit when scopes are off).
struct TripleObservation {
  Mask providers = 0;
  Mask scope = 0;
};

/// Reads triple `t`'s observation over `cluster_sources` from `dataset`.
TripleObservation ObserveTriple(const Dataset& dataset,
                                const std::vector<SourceId>& cluster_sources,
                                bool use_scopes, TripleId t);

/// The direct likelihood of one cluster, counted by brute force.
class BruteForceLikelihood {
 public:
  /// Reads the observation and label of every labeled triple of
  /// `train_mask` (scopes and alpha from `options`).
  BruteForceLikelihood(const Dataset& dataset, const DynamicBitset& train_mask,
                       const std::vector<SourceId>& cluster_sources,
                       const QualityOptions& options);

  /// The likelihood pair {Pr(O | true), Pr(O | false)} of observation
  /// "every source of `providers` provides, none of `nonproviders` does".
  /// A training triple counts toward its class's denominator when its
  /// scope covers P | N, and toward the numerator when, in addition, its
  /// providers restricted to P | N are exactly P. `calibrated` selects the
  /// +0.5 / +1 Laplace form; otherwise the literal alpha-scaled form, whose
  /// Pr(O | false) for P = {} adds the q_empty = 1 correction. Arguments
  /// are not validated: P and N must be disjoint masks inside the cluster.
  std::pair<double, double> Likelihood(Mask providers, Mask nonproviders,
                                       bool calibrated) const;

  /// The counts behind one subset's joint quality
  /// (EmpiricalJointStats::Get): training triples of each class provided
  /// by every source of `subset`, and the true triples whose scope covers
  /// `subset` (every true triple when scopes are off).
  struct SupersetCounts {
    size_t num_true = 0;
    size_t num_false = 0;
    size_t den_true = 0;
  };
  SupersetCounts Superset(Mask subset) const;

 private:
  struct Row {
    TripleObservation obs;
    bool is_true = false;
  };
  std::vector<Row> rows_;
  double alpha_ = 0.5;
};

}  // namespace fuser

#endif  // FUSER_TESTS_SUPPORT_LIKELIHOOD_ORACLE_H_
