// Reference implementations of the scoring hot paths, kept out of the
// production library: the oracles the optimized paths in
// core/pattern_pipeline.h and core/precrec.h are asserted byte-identical
// against (tests/pattern_parallel_test.cc), the pre-optimization
// baselines of bench/bench_inference.cc, and the term-summation plan the
// direct and elastic likelihoods are checked against. Built as the
// fuser_test_support library.
#ifndef FUSER_TESTS_SUPPORT_PATTERN_ORACLES_H_
#define FUSER_TESTS_SUPPORT_PATTERN_ORACLES_H_

#include <vector>

#include "common/status.h"
#include "core/correlation_model.h"
#include "core/pattern_pipeline.h"
#include "core/precrec.h"
#include "model/dataset.h"

namespace fuser {

/// The scalar reference of BuildPatternGrouping: one GetClusterObservation
/// + hash-emplace per (cluster, triple), with a 32-bit id column for every
/// cluster (one-source clusters included), so comparisons go through
/// PatternGrouping::pattern_id.
StatusOr<PatternGrouping> BuildPatternGroupingScalar(
    const Dataset& dataset, const CorrelationModel& model);

/// True when `a` and `b` cover the same clusters and triples and give every
/// (cluster, triple) the same pattern id, read through
/// PatternGrouping::pattern_id whatever each column's layout.
bool SamePatternIds(const PatternGrouping& a, const PatternGrouping& b);

/// The reference of CombinePatternScores: the serial per-triple loop with
/// 2 x num_clusters std::log calls per triple.
std::vector<double> CombinePatternScoresReference(
    const PatternGrouping& grouping,
    const std::vector<std::vector<PatternLikelihood>>& likelihood,
    double alpha);

/// The references of PrecRecScores and AggressiveScores: the per-triple
/// loop both shared before IndependentSourceScores (core/precrec.h) —
/// everyone-silent plus one providers(t) swap per provider, or with scopes
/// one provides(s, t) bit test per source of in_scope_sources(t).
StatusOr<std::vector<double>> PrecRecScoresReference(
    const Dataset& dataset, const std::vector<SourceQuality>& quality,
    const QualityOptions& options);
StatusOr<std::vector<double>> AggressiveScoresReference(
    const Dataset& dataset, const CorrelationModel& model);

/// The literal inclusion-exclusion plan: every (cluster, pattern) through
/// TermSummationLikelihood (core/precrec_corr.h), no batch scorer, and the
/// model's alpha as the combine prior — precrec-corr's exact sum on any
/// statistics, with no budget. The direct and elastic paths are checked
/// against it. `model` must outlive the plan.
PatternScoringPlan MakeTermSummationPlan(const CorrelationModel& model);

}  // namespace fuser

#endif  // FUSER_TESTS_SUPPORT_PATTERN_ORACLES_H_
