// The model-building steps as they were before the training view
// (core/quality.h TrainingView): every step re-reads the full-corpus
// bitsets. Source quality tests each true training triple's scope per
// source; pairwise counts AND-count copied
// per-source class bitsets; and each cluster's joint statistics walk every
// training triple with one provides/in_scope bit test per cluster source
// and a hash insert per triple. tests/model_build_test.cc and
// tests/correlation_test.cc assert the view-based builders equal to these
// references, pattern order included; bench/bench_inference.cc times them.
// Part of the fuser_test_support library.
#ifndef FUSER_TESTS_SUPPORT_MODEL_REFERENCE_H_
#define FUSER_TESTS_SUPPORT_MODEL_REFERENCE_H_

#include <vector>

#include "common/bitset.h"
#include "common/status.h"
#include "core/correlation.h"
#include "core/correlation_model.h"
#include "core/joint_stats.h"
#include "core/quality.h"
#include "model/dataset.h"

namespace fuser {

/// Source quality from full-corpus bitsets.
StatusOr<std::vector<SourceQuality>> ReferenceSourceQuality(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const QualityOptions& options);

/// Pairwise counts from copied per-source class bitsets.
PairwiseCounts ReferencePairwiseCounts(const Dataset& dataset,
                                       const DynamicBitset& train_mask,
                                       const std::vector<SourceId>& sources);

/// Pairwise correlations: dataset marginals plus AND-counts of copied
/// per-source class bitsets.
StatusOr<std::vector<PairwiseCorrelation>> ReferencePairwiseCorrelations(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const std::vector<SourceId>& sources, const QualityOptions& options);

/// One cluster's exported joint statistics from the per-triple scan.
EmpiricalJointStatsState ReferenceJointStatsState(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const std::vector<SourceId>& cluster, const QualityOptions& options);

/// The whole model: reference quality, clustering from the reference
/// pairwise correlations (exact path only), and one reference scan per
/// cluster.
StatusOr<CorrelationModel> ReferenceCorrelationModel(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const ModelOptions& options);

/// EstimateSourceQuality, then BuildCorrelationModel around it, as
/// FusionEngine's Prepare and first GetModel run them.
StatusOr<CorrelationModel> BuildCorrelationModelOf(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const ModelOptions& options, size_t num_threads = 1,
    ThreadPool* pool = nullptr);

}  // namespace fuser

#endif  // FUSER_TESTS_SUPPORT_MODEL_REFERENCE_H_
