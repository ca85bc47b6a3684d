// ShardedFusionEngine: K independent FusionEngines behind one router, with
// scores byte-identical to a single unsharded engine on the same data.
//
// Why this is exact rather than approximate: the paper's per-triple
// inference factors through (a) each triple's own observation pattern and
// (b) globally-estimated parameters — source quality, the cluster
// partition, and per-cluster joint statistics — all of which are ratios of
// *integer counts over training triples*. Counts over disjoint partitions
// of the corpus sum exactly, so the router
//
//   1. partitions triples by domain hash (shard/partition.h; scopes never
//      cross domains, so each shard's scope relation is the global one
//      restricted to its triples),
//   2. lets every shard count its own partition's quality, merges the
//      counts and finalizes them with the *same* arithmetic the unsharded
//      estimator uses (FinalizeQualityFromCounts),
//   3. builds the model through the one BuildCorrelationModel the
//      unsharded engine uses, over one training part per shard: pairwise
//      correlation and pattern counts of each part are summed in shard
//      order, so every statistic is the one a single pass would count, and
//   4. pushes the merged parameters back into every shard
//      (FusionEngine::AdoptParameters), which then scores its own triples
//      with the stock method implementations.
//
// Since every shard holds the same model and a pattern's likelihood is a
// pure function of (model, cluster, key), PublishSnapshot scores each
// distinct pattern once per model, not once per shard: the router scores
// and tabulates the union of the shards' distinct lists, and each shard
// selects its own rows.
//
// Methods whose scores couple triples across the corpus (cosine,
// 3-estimates, LTM — iterative fixed points) cannot be stitched this way
// and return Unimplemented at K>1 (MethodInfo::shardable).
//
// K=1 is the unsharded engine, not a special case of the router: the one
// shard engine owns the whole corpus (ShardedCorpus adopts its Dataset
// with no copy and no id map, so global ids are its ids), and
// Prepare/Update/Run/PublishSnapshot go straight to it with no projection,
// merge or gather. Every method runs, exact by construction,
// and SaveSnapshot/WarmStart use the plain single-file snapshot format.
//
// Streaming Update routes each micro-batch to the shards that own its
// domains; untouched shards pay one near-free AdoptParameters (a quality
// vector copy plus a snapshot publish) instead of re-running estimation,
// which is where the aggregate ingest speedup at K shards comes from
// (bench/bench_sharding.cc).
//
// Thread budget: the configured num_threads T is a host-wide budget, not
// per shard — each shard engine gets max(1, T/K) workers and the router
// fans out across shards with min(K, T) threads and scores the union of
// the shards' patterns on all T.
#ifndef FUSER_SHARD_SHARDED_ENGINE_H_
#define FUSER_SHARD_SHARDED_ENGINE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "persist/snapshot_io.h"
#include "shard/sharded_dataset.h"

namespace fuser {

/// One immutable published state of the sharded engine: one pinned
/// FusionSnapshot per shard plus the global -> (shard, local) map to route
/// reads. Readers pin this and every query is answered from exactly these
/// shard snapshots, no matter what the writer does concurrently.
struct ShardedSnapshot {
  uint64_t id = 0;
  size_t num_triples = 0;
  size_t num_sources = 0;
  std::shared_ptr<const ShardMap> map;  // null at K=1 (identity)
  std::vector<std::shared_ptr<const FusionSnapshot>> shards;

  ShardLocation Locate(TripleId global) const {
    return map != nullptr ? map->Get(global) : ShardLocation{0, global};
  }
};

class ShardedFusionEngine {
 public:
  /// Takes ownership of a finalized corpus (ShardedCorpus::Partition or
  /// build it directly). `options.num_threads` is the host-wide budget.
  static StatusOr<std::unique_ptr<ShardedFusionEngine>> Create(
      ShardedCorpus corpus, const EngineOptions& options);

  /// Convenience: partition `full` and create. `full` is only read during
  /// construction (the shards own copies).
  static StatusOr<std::unique_ptr<ShardedFusionEngine>> Create(
      const Dataset& full, const ShardingOptions& sharding,
      const EngineOptions& options);

  /// Estimates parameters from `train_mask` (over global triple ids):
  /// every shard counts its partition under its projected mask, the router
  /// merges and finalizes, and the merged quality is adopted everywhere.
  Status Prepare(const DynamicBitset& train_mask);

  /// Streaming ingestion, byte-identical to FusionEngine::Update on the
  /// unsharded corpus: routes the batch to the owning shards, merges their
  /// per-shard statistics, and advances the global model through the same
  /// AdvanceCorrelationModel step FusionEngine::Update uses (cloned once
  /// with every dirty shard's pattern deltas folded in, or invalidated for
  /// a lazy rebuild). Shards the batch does not touch only adopt the
  /// refreshed global quality.
  Status Update(const ObservationBatch& batch);

  /// Runs one method on every shard and stitches the per-shard scores into
  /// global id order. At K>1, Unimplemented for methods that are not
  /// shardable and for sketch-based clustering.
  StatusOr<FusionRun> Run(const MethodSpec& spec);
  StatusOr<std::vector<FusionRun>> RunAll(const std::vector<MethodSpec>& specs);

  /// Materializes serving state for `specs` on every shard and publishes
  /// one ShardedSnapshot pinning all K shard snapshots. At K>1 each
  /// pattern-based spec is scored once per model, not once per shard: the
  /// router scores and tabulates the union of the shards' distinct
  /// patterns (each key once, across all T workers), and every shard
  /// selects its own keys' rows of that table (FusionEngine::PublishSnapshot
  /// with UnionPatternTables). A spec every shard already serves for its
  /// current inputs is not built. K=1 publishes straight on its shard.
  StatusOr<std::shared_ptr<const ShardedSnapshot>> PublishSnapshot(
      const std::vector<MethodSpec>& specs);

  /// Latest published state / latest state with serving entries. Same
  /// reader contract as the unsharded engine. Thread-safe.
  std::shared_ptr<const ShardedSnapshot> CurrentSnapshot() const;
  std::shared_ptr<const ShardedSnapshot> CurrentServableSnapshot() const;

  /// K=1: writes one plain snapshot file at `path` (persist::SaveSnapshot,
  /// loadable by LoadSnapshot). K>1: one snapshot file per shard
  /// (`<path>.shard<k>`) plus a checksummed manifest at `path` recording
  /// the partition plan and the per-shard local -> global id maps (see
  /// shard/sharded_persist.h).
  Status SaveSnapshot(const std::string& path) const;

  /// Rebuilds an engine from SaveSnapshot output, picking the format from
  /// the file magic. A plain snapshot file (FusionEngine::SaveSnapshot or
  /// K=1 output) warm-starts K=1. A manifest (any K) is validated (magic,
  /// versions, checksum), every shard snapshot is loaded (a missing shard
  /// file or a shard saved under a different snapshot format version fails
  /// the whole warm start), the global id maps are reassembled, and each
  /// shard engine warm-starts. `options.num_threads` is the host budget;
  /// every other option comes from the saved state. Snapshot files load
  /// with LoadSnapshot(path), or with `load` when given.
  static StatusOr<std::unique_ptr<ShardedFusionEngine>> WarmStart(
      const std::string& path, const EngineOptions& options,
      const std::optional<LoadOptions>& load = std::nullopt);

  // ---- Introspection ----

  const ShardedCorpus& corpus() const { return corpus_; }
  size_t num_shards() const { return engines_.size(); }
  size_t num_triples() const { return corpus_.num_triples(); }
  FusionEngine* shard_engine(size_t k) { return engines_[k].get(); }
  const FusionEngine& shard_engine(size_t k) const { return *engines_[k]; }
  /// Router-merged global quality (equals the unsharded engine's).
  const std::vector<SourceQuality>& source_quality() const { return quality_; }
  /// Global training mask (what Prepare received, extended by Update).
  const DynamicBitset& train_mask() const { return train_mask_; }
  const EngineOptions& options() const { return options_; }
  size_t updates_applied() const { return updates_applied_; }
  size_t full_invalidations() const { return full_invalidations_; }

 private:
  ShardedFusionEngine(ShardedCorpus corpus, const EngineOptions& options);

  bool single() const { return engines_.size() == 1; }
  /// K>1: rejects specs the router cannot serve exactly and builds the
  /// global model when one of them needs it. K=1: nothing to do.
  Status PrepareSpecs(const std::vector<MethodSpec>& specs);
  /// K=1: mirrors the shard engine's quality and train mask after it
  /// changed, and publishes.
  void SyncSingle();
  /// Builds the global model over one training part per shard, on the
  /// router's pool, and adopts it (with the merged quality) into every
  /// shard. No-op when already built.
  Status EnsureGlobalModel();
  /// K>1 publish: for the pattern-based `specs` some shard must rebuild,
  /// scores the union of every shard's distinct patterns once per spec and
  /// tabulates it into `tables` (by spec name), and sets `union_tables` to
  /// each shard's view of them (left empty when nothing needs building).
  Status BuildUnionTables(
      const std::vector<MethodSpec>& specs,
      std::unordered_map<std::string, PatternPosteriorTable>* tables,
      std::vector<UnionPatternTables>* union_tables);
  /// Rejects specs the sharded router cannot serve exactly.
  Status CheckSpecs(const std::vector<MethodSpec>& specs,
                    bool* needs_model) const;
  /// Merges the cached per-shard quality counts into quality_.
  Status MergeQuality();
  /// Runs fn(k) for every shard, across min(K, T) router threads.
  void ForEachShard(const std::function<void(size_t)>& fn);
  /// Publishes the shards' current snapshots as one ShardedSnapshot.
  void PublishCurrent();
  /// Wraps `shards` in a ShardedSnapshot and installs it as the current
  /// snapshot (and as the serving snapshot too when `servable`).
  std::shared_ptr<const ShardedSnapshot> StoreSnapshot(
      std::vector<std::shared_ptr<const FusionSnapshot>> shards,
      bool servable);

  ShardedCorpus corpus_;
  EngineOptions options_;
  std::vector<std::unique_ptr<FusionEngine>> engines_;
  std::unique_ptr<ThreadPool> router_pool_;
  size_t router_threads_ = 1;
  bool prepared_ = false;
  DynamicBitset train_mask_;
  std::vector<SourceQuality> quality_;
  /// Per-shard quality (raw counts), cached so one dirty shard's update
  /// re-merges in O(K * S) instead of re-estimating clean shards.
  std::vector<std::vector<SourceQuality>> shard_quality_;
  std::shared_ptr<const CorrelationModel> model_;
  size_t updates_applied_ = 0;
  size_t full_invalidations_ = 0;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const ShardedSnapshot> snapshot_;
  std::shared_ptr<const ShardedSnapshot> serving_snapshot_;
  uint64_t snapshots_published_ = 0;
};

}  // namespace fuser

#endif  // FUSER_SHARD_SHARDED_ENGINE_H_
