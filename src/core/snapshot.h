// FusionSnapshot: an immutable, ref-counted view of everything the engine
// has estimated — source quality, the correlation model, the
// distinct-pattern grouping, and per-method serving state — published
// atomically after each Prepare/Update.
//
// The snapshot is the reader half of the engine's RCU-style split: the
// writer (FusionEngine) keeps ingesting micro-batches and republishing,
// while any number of reader threads pin a snapshot with a shared_ptr and
// score against it for as long as they like. Nothing inside a published
// snapshot is ever mutated; Update clones the model and the grouping
// before applying deltas (copy-on-write), so a pinned snapshot's scores
// are stable across any number of subsequent Prepare/Update calls.
//
// Per-method serving state (MethodServing) is what lets FusionService
// answer point queries in O(pattern lookup): pattern-based methods
// (precrec-corr, elastic) keep a PatternPosteriorTable plus the
// per-pattern scorer for ad-hoc observations; every other method keeps its
// dense score vector. Both forms are byte-identical to a full
// FusionEngine::Run on the same snapshot — they are built by the same
// code.
#ifndef FUSER_CORE_SNAPSHOT_H_
#define FUSER_CORE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/correlation_model.h"
#include "core/fusion_method.h"
#include "core/pattern_pipeline.h"
#include "core/quality.h"

namespace fuser {

/// Serving state of one method spec inside a snapshot. Exactly one of the
/// two representations is populated:
///  * pattern-based methods: `table` (per-pattern posteriors promoted
///    out of CombinePatternScores) plus `adhoc_scorer` and `alpha` for
///    observations whose pattern the grouping has never seen;
///  * everything else: `dense`, the method's full score vector.
struct MethodServing {
  MethodSpec spec;
  /// The method table's pattern_based flag for spec.kind.
  bool pattern_based = false;
  PatternPosteriorTable table;
  /// Scores one unseen (cluster, pattern) pair; thread-safe, captures the
  /// snapshot's model (kept alive by the snapshot's shared ownership).
  /// The combine prior lives in table.alpha.
  PatternScorer adhoc_scorer;
  std::vector<double> dense;
};

/// One immutable published state of a FusionEngine. All fields are set
/// before publication and never change afterwards; every pointer-valued
/// member is shared with the engine (and with other snapshots that predate
/// the same inputs), so pinning a snapshot pins exactly the state it was
/// published with.
struct FusionSnapshot {
  /// Monotonically increasing publication counter (per engine).
  uint64_t id = 0;
  /// Dataset::version() at publication; triples beyond num_triples (added
  /// by later batches) are invisible to this snapshot.
  uint64_t dataset_version = 0;
  size_t num_triples = 0;
  size_t num_sources = 0;
  EngineOptions options;
  std::vector<SourceQuality> quality;
  /// Null until the engine first built it (model and grouping build lazily
  /// on the first Run/publish that needs them).
  std::shared_ptr<const CorrelationModel> model;
  std::shared_ptr<const PatternGrouping> grouping;
  /// Serving state keyed by MethodSpec::Name(); populated by
  /// FusionEngine::PublishSnapshot for the specs the caller asked for.
  std::unordered_map<std::string, std::shared_ptr<const MethodServing>>
      serving;

  /// Serving state for `name` (a MethodSpec::Name()), or null when the
  /// snapshot was not published with that method materialized.
  const MethodServing* FindServing(const std::string& name) const;
};

/// Pattern-based `spec`'s plan over context's model (MakeScoringPlan) and
/// the posterior table of the per-cluster `keys` it scores: ScorePatterns
/// on context's workers, then BuildPatternPosteriorTable.
struct ScoredPatterns {
  PatternScoringPlan plan;
  PatternPosteriorTable table;
};
StatusOr<ScoredPatterns> ScorePatternTable(
    const MethodContext& context, const MethodSpec& spec,
    const std::vector<std::vector<PatternKey>>& keys);

/// Builds the serving state of `spec` from a fully prepared context:
/// pattern-based methods keep the ScorePatternTable of context.grouping's
/// distinct lists (the grouping must be set); others run ScoreMethod and
/// keep the dense vector. Deterministic — repeated builds over the same
/// inputs are byte-identical at every thread count — which is what makes
/// FusionService answers equal to FusionEngine::Run.
StatusOr<std::shared_ptr<const MethodServing>> BuildMethodServing(
    const MethodContext& context, const MethodSpec& spec);

/// The serving entry of pattern-based `spec`: `table` (built from
/// ScorePatterns likelihoods by BuildPatternPosteriorTable, or selected
/// from a table over the sharded router's union of patterns by
/// SelectPatternRows) and plan.scorer as its ad-hoc scorer. `plan` is
/// spec's plan over the model the entry's snapshot keeps alive.
std::shared_ptr<const MethodServing> MakePatternServing(
    const MethodSpec& spec, PatternScoringPlan plan,
    PatternPosteriorTable table);

}  // namespace fuser

#endif  // FUSER_CORE_SNAPSHOT_H_
