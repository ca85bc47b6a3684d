// FusionService: concurrent point-query scoring over published snapshots.
//
// The batch engine answers "score everything"; this facade answers the
// online question — "how likely is *this* triple (or this never-seen
// observation) to be true, right now?" — from the immutable state a
// FusionEngine publishes (core/snapshot.h), without touching the dataset
// or the engine's writer state. The concurrency contract is RCU-style:
//
//   * Acquire() pins the engine's latest published snapshot (a cheap
//     mutex-guarded shared_ptr copy). Any number of reader threads may
//     acquire and score concurrently while the writer thread keeps calling
//     FusionEngine::Update / PublishSnapshot.
//   * Every query answers from exactly the snapshot it is given: results
//     are stable for as long as the caller keeps it pinned, no matter what
//     the writer does.
//   * Answers are byte-identical to FusionEngine::Run on the same
//     snapshot: ScoreBatch over all triples reproduces Run's score vector
//     exactly, for every registered method, at every thread count.
//
// Methods must be materialized in the snapshot first (writer-side:
// FusionEngine::PublishSnapshot({specs})). Pattern-serving methods
// (precrec-corr, elastic) answer in O(num_clusters) table lookups and also
// support ScoreObservation — scoring an ad-hoc observation ("these sources
// assert it, those are silent") that the dataset has never seen, by
// routing its per-cluster patterns through the snapshot's scorers.
#ifndef FUSER_SERVING_FUSION_SERVICE_H_
#define FUSER_SERVING_FUSION_SERVICE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/snapshot.h"

namespace fuser {

/// An observation to score that need not correspond to any dataset triple:
/// the sources asserting it and (with scopes enabled) the sources that
/// have an opinion about it. Sources are identified by the snapshot's
/// SourceId space ([0, snapshot.num_sources)).
struct AdHocObservation {
  /// Sources asserting the triple.
  std::vector<SourceId> providers;
  /// Sources in scope (an opinion, possibly silence). Providers are always
  /// treated as in scope, listed here or not. Ignored when the snapshot's
  /// model does not use scopes (then every source has an opinion).
  std::vector<SourceId> in_scope;
};

class FusionService {
 public:
  /// `engine` must outlive the service. The service holds no mutable
  /// state: all methods are const and thread-safe.
  explicit FusionService(const FusionEngine* engine);

  /// Pins the engine's latest *servable* snapshot — the newest publish
  /// that carries serving entries — so reads never fail through the
  /// writer's Update→PublishSnapshot window; before any materialization it
  /// falls back to the latest published snapshot. Fails only before the
  /// engine's first Prepare.
  StatusOr<std::shared_ptr<const FusionSnapshot>> Acquire() const;

  /// Posterior of triple `t` under `spec`, answered from `snapshot`.
  /// O(num_clusters) for pattern-serving methods, O(1) for the rest.
  /// Fails when `spec` is not materialized in the snapshot or `t` is
  /// outside the snapshot's triple range.
  StatusOr<double> Score(const FusionSnapshot& snapshot,
                         const MethodSpec& spec, TripleId t) const;

  /// Batched form of Score: one posterior per requested triple, in order.
  /// Over all of the snapshot's triples the result is byte-identical to
  /// FusionEngine::Run(spec).scores on the same snapshot.
  StatusOr<std::vector<double>> ScoreBatch(
      const FusionSnapshot& snapshot, const MethodSpec& spec,
      const std::vector<TripleId>& triples) const;

  /// Posterior of an ad-hoc observation under `spec`. Patterns the
  /// snapshot's grouping already knows are answered from the posterior
  /// table; unseen patterns are scored through the snapshot's per-pattern
  /// scorer and combined with the same arithmetic, so an observation that
  /// mirrors an existing triple scores byte-identically to Score on that
  /// triple. Pattern-serving methods only (Unimplemented otherwise).
  StatusOr<double> ScoreObservation(const FusionSnapshot& snapshot,
                                    const MethodSpec& spec,
                                    const AdHocObservation& observation) const;

 private:
  const FusionEngine* engine_;
};

}  // namespace fuser

#endif  // FUSER_SERVING_FUSION_SERVICE_H_
