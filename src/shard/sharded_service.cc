#include "shard/sharded_service.h"

#include <utility>

namespace fuser {

namespace {

Status CheckShardSnapshot(const ShardedSnapshot& snapshot, size_t shard) {
  if (shard >= snapshot.shards.size() || snapshot.shards[shard] == nullptr) {
    return Status::FailedPrecondition(
        "sharded snapshot does not pin a snapshot for the owning shard");
  }
  return Status::OK();
}

}  // namespace

ShardedFusionService::ShardedFusionService(const ShardedFusionEngine* engine)
    : engine_(engine) {
  services_.reserve(engine->num_shards());
  for (size_t k = 0; k < engine->num_shards(); ++k) {
    services_.emplace_back(&engine->shard_engine(k));
  }
}

StatusOr<std::shared_ptr<const ShardedSnapshot>> ShardedFusionService::Acquire()
    const {
  std::shared_ptr<const ShardedSnapshot> snapshot =
      engine_->CurrentServableSnapshot();
  if (snapshot == nullptr) snapshot = engine_->CurrentSnapshot();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition(
        "no published snapshot: call Prepare first");
  }
  return snapshot;
}

StatusOr<double> ShardedFusionService::Score(const ShardedSnapshot& snapshot,
                                             const MethodSpec& spec,
                                             TripleId t) const {
  if (t >= snapshot.num_triples) {
    return Status::InvalidArgument("triple id outside the snapshot");
  }
  const ShardLocation loc = snapshot.Locate(t);
  FUSER_RETURN_IF_ERROR(CheckShardSnapshot(snapshot, loc.shard));
  return services_[loc.shard].Score(*snapshot.shards[loc.shard], spec,
                                    loc.local);
}

StatusOr<std::vector<double>> ShardedFusionService::ScoreBatch(
    const ShardedSnapshot& snapshot, const MethodSpec& spec,
    const std::vector<TripleId>& triples) const {
  const size_t num_shards = snapshot.shards.size();
  if (num_shards == 1) {
    // K=1: global ids are shard 0's ids; no scatter, no gather.
    FUSER_RETURN_IF_ERROR(CheckShardSnapshot(snapshot, 0));
    return services_[0].ScoreBatch(*snapshot.shards[0], spec, triples);
  }
  // Scatter: per-shard local ids plus each query's position in the request.
  std::vector<std::vector<TripleId>> locals(num_shards);
  std::vector<std::vector<size_t>> positions(num_shards);
  for (size_t i = 0; i < triples.size(); ++i) {
    const TripleId t = triples[i];
    if (t >= snapshot.num_triples) {
      return Status::InvalidArgument("triple id outside the snapshot");
    }
    const ShardLocation loc = snapshot.Locate(t);
    locals[loc.shard].push_back(loc.local);
    positions[loc.shard].push_back(i);
  }
  // Gather: merge per-shard answers back into request order.
  std::vector<double> merged(triples.size(), 0.0);
  for (size_t k = 0; k < num_shards; ++k) {
    if (locals[k].empty()) continue;
    FUSER_RETURN_IF_ERROR(CheckShardSnapshot(snapshot, k));
    FUSER_ASSIGN_OR_RETURN(
        std::vector<double> scores,
        services_[k].ScoreBatch(*snapshot.shards[k], spec, locals[k]));
    for (size_t j = 0; j < scores.size(); ++j) {
      merged[positions[k][j]] = scores[j];
    }
  }
  return merged;
}

StatusOr<double> ShardedFusionService::ScoreObservation(
    const ShardedSnapshot& snapshot, const MethodSpec& spec,
    const AdHocObservation& observation) const {
  // Every shard holds the same global parameters; shard 0 answers for all.
  FUSER_RETURN_IF_ERROR(CheckShardSnapshot(snapshot, 0));
  return services_[0].ScoreObservation(*snapshot.shards[0], spec, observation);
}

}  // namespace fuser
