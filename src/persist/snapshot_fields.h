// The field lists of the snapshot format's records (persist/binary_io.h
// explains field lists). persist/snapshot_io.cc encodes and decodes these
// records only through the lists below, so each field order is written
// once; tests walk the same lists to find a field's byte offset.
//
// ENGINE section payload: one EngineSection.
// MODEL section payload: the source quality vector, the cluster partition
// (a vector of u32 source-id vectors), then one EmpiricalJointStatsState
// per cluster, in cluster order.
// GROUPING section: each cluster's distinct PatternKeys precede its
// column, whose layout (u32 ids, or two bitsets for a one-source cluster)
// is written by hand.
// SERVING section: each entry starts with its MethodSpec.
#ifndef FUSER_PERSIST_SNAPSHOT_FIELDS_H_
#define FUSER_PERSIST_SNAPSHOT_FIELDS_H_

#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "core/fusion_method.h"
#include "core/joint_stats.h"
#include "core/pattern_pipeline.h"
#include "core/quality.h"
#include "persist/binary_io.h"

namespace fuser {

template <class V, class R>
persist::FieldsOf<R, SourceQuality> VisitFields(V& v, R& q) {
  v(q.precision);
  v(q.recall);
  v(q.fpr);
  v(q.provided_labeled);
  v(q.provided_true);
  v(q.scope_true);
}

/// Every option a saved engine runs under; the host's thread count and
/// training-only switches (clustering.use_sketch) are not part of it.
template <class V, class R>
persist::FieldsOf<R, EngineOptions> VisitFields(V& v, R& o) {
  v(o.model.alpha);
  v(o.model.smoothing);
  v(o.model.use_scopes);
  v(o.model.enable_clustering);
  v(o.model.clustering.correlation_threshold);
  v(o.model.clustering.min_support);
  v(o.model.clustering.max_cluster_size);
  v(o.decision_threshold);
  v(o.three_estimates.iterations);
  v(o.three_estimates.initial_error);
  v(o.three_estimates.initial_difficulty);
  v(o.three_estimates.normalize);
  v(o.three_estimates.use_scopes);
  v(o.cosine.iterations);
  v(o.cosine.initial_trust);
  v(o.cosine.damping);
  v(o.cosine.use_scopes);
  v(o.ltm.alpha01);
  v(o.ltm.alpha00);
  v(o.ltm.alpha11);
  v(o.ltm.alpha10);
  v(o.ltm.beta);
  v(o.ltm.burn_in);
  v(o.ltm.samples);
  v(o.ltm.thin);
  v(o.ltm.seed);
  v(o.ltm.use_scopes);
  v(o.corr.calibrated_likelihood);
}

/// The pattern counts of one cluster; `options` comes from the ENGINE
/// section's ModelOptions, not from the file.
template <class V, class R>
persist::FieldsOf<R, EmpiricalJointStatsState::PatternCount> VisitFields(
    V& v, R& p) {
  v(p.providers);
  v(p.scope);
  v(p.count);
}

template <class V, class R>
persist::FieldsOf<R, EmpiricalJointStatsState> VisitFields(V& v, R& s) {
  v(s.k);
  v(s.total_true);
  v(s.total_false);
  v(s.true_patterns);
  v(s.false_patterns);
}

template <class V, class R>
persist::FieldsOf<R, PatternKey> VisitFields(V& v, R& key) {
  v(key.providers);
  v(key.nonproviders);
}

/// A SERVING entry's name and representation follow from its spec and the
/// method table, so the spec is all the entry stores about its method.
template <class V, class R>
persist::FieldsOf<R, MethodSpec> VisitFields(V& v, R& spec) {
  v(spec.kind);
  v(spec.union_percent);
  v(spec.elastic_level);
}

namespace persist {

/// The ENGINE section: the snapshot's scalar state plus the training mask.
struct EngineSection {
  uint64_t dataset_version = 0;
  uint64_t dataset_fingerprint = 0;
  uint64_t num_triples = 0;
  uint64_t num_sources = 0;
  uint64_t num_domains = 0;
  EngineOptions options;
  DynamicBitset train_mask;
  std::vector<SourceQuality> quality;
};

template <class V, class R>
FieldsOf<R, EngineSection> VisitFields(V& v, R& e) {
  v(e.dataset_version);
  v(e.dataset_fingerprint);
  v(e.num_triples);
  v(e.num_sources);
  v(e.num_domains);
  v(e.options);
  v(e.train_mask);
  v(e.quality);
}

}  // namespace persist
}  // namespace fuser

#endif  // FUSER_PERSIST_SNAPSHOT_FIELDS_H_
