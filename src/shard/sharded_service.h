// ShardedFusionService: concurrent point-query scoring over a sharded
// engine's published state.
//
// Same RCU-style contract as serving/FusionService, lifted to K shards:
// Acquire() pins one ShardedSnapshot — which itself pins one FusionSnapshot
// per shard plus the global -> (shard, local) routing map — and every query
// is answered from exactly those K shard snapshots, no matter what the
// writer does concurrently. A merged read can never mix shard states from
// different publishes.
//
// Queries fan out through per-shard FusionService facades and merge in
// request order; over the same data the answers are byte-identical to an
// unsharded FusionService at every K and thread count. At K=1 every query
// goes straight to the one shard's facade. Ad-hoc observations
// (global SourceIds) are scored by shard 0 — every shard holds the same
// router-merged global parameters, so any shard gives the same answer.
#ifndef FUSER_SHARD_SHARDED_SERVICE_H_
#define FUSER_SHARD_SHARDED_SERVICE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "serving/fusion_service.h"
#include "shard/sharded_engine.h"

namespace fuser {

class ShardedFusionService {
 public:
  /// `engine` must outlive the service. The service holds no mutable
  /// state: all methods are const and thread-safe.
  explicit ShardedFusionService(const ShardedFusionEngine* engine);

  /// Pins the engine's latest servable ShardedSnapshot (falling back to
  /// the latest published one before any materialization). Fails only
  /// before the engine's first Prepare.
  StatusOr<std::shared_ptr<const ShardedSnapshot>> Acquire() const;

  /// Posterior of global triple `t` under `spec`, answered from the shard
  /// snapshot pinned by `snapshot` for the shard that owns `t`.
  StatusOr<double> Score(const ShardedSnapshot& snapshot,
                         const MethodSpec& spec, TripleId t) const;

  /// Batched form: scatter per shard, gather in request order. Over all
  /// triples the result is byte-identical to the unsharded service's
  /// ScoreBatch (and to FusionEngine::Run) on the same data.
  StatusOr<std::vector<double>> ScoreBatch(
      const ShardedSnapshot& snapshot, const MethodSpec& spec,
      const std::vector<TripleId>& triples) const;

  /// Posterior of an ad-hoc observation (global SourceIds). Pattern-serving
  /// methods only, like the unsharded service.
  StatusOr<double> ScoreObservation(const ShardedSnapshot& snapshot,
                                    const MethodSpec& spec,
                                    const AdHocObservation& observation) const;

 private:
  const ShardedFusionEngine* engine_;
  /// One facade per shard; all routing state lives in the ShardedSnapshot
  /// being queried.
  std::vector<FusionService> services_;
};

}  // namespace fuser

#endif  // FUSER_SHARD_SHARDED_SERVICE_H_
