#include "shard/sharded_engine.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/quality.h"
#include "shard/sharded_persist.h"

namespace fuser {

namespace {
const std::vector<TripleId> kNoChangedExisting;
}  // namespace

ShardedFusionEngine::ShardedFusionEngine(ShardedCorpus corpus,
                                         const EngineOptions& options)
    : corpus_(std::move(corpus)), options_(options) {
  const size_t num_shards = corpus_.num_shards();
  const size_t budget = ResolveNumThreads(options_.num_threads);
  EngineOptions shard_options = options_;
  shard_options.num_threads = std::max<size_t>(1, budget / num_shards);
  engines_.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    engines_.push_back(
        std::make_unique<FusionEngine>(corpus_.mutable_shard(k), shard_options));
  }
  router_threads_ = std::min(num_shards, budget);
  // The router fans out across shards on min(K, T) of these workers and
  // scores the shards' union of patterns on all T.
  if (budget > 1 && num_shards > 1) {
    router_pool_ = std::make_unique<ThreadPool>(budget);
  }
  shard_quality_.resize(num_shards);
}

StatusOr<std::unique_ptr<ShardedFusionEngine>> ShardedFusionEngine::Create(
    ShardedCorpus corpus, const EngineOptions& options) {
  if (corpus.num_shards() == 0) {
    return Status::InvalidArgument("sharded corpus has no shards");
  }
  for (size_t k = 0; k < corpus.num_shards(); ++k) {
    if (!corpus.shard(k).finalized()) {
      return Status::FailedPrecondition(
          "sharded corpus must be finalized before engine creation");
    }
  }
  return std::unique_ptr<ShardedFusionEngine>(
      new ShardedFusionEngine(std::move(corpus), options));
}

StatusOr<std::unique_ptr<ShardedFusionEngine>> ShardedFusionEngine::Create(
    const Dataset& full, const ShardingOptions& sharding,
    const EngineOptions& options) {
  FUSER_ASSIGN_OR_RETURN(ShardedCorpus corpus,
                         ShardedCorpus::Partition(full, sharding));
  return Create(std::move(corpus), options);
}

void ShardedFusionEngine::ForEachShard(const std::function<void(size_t)>& fn) {
  const size_t num_shards = engines_.size();
  if (router_pool_ == nullptr || num_shards <= 1) {
    for (size_t k = 0; k < num_shards; ++k) fn(k);
    return;
  }
  ParallelForOptions options;
  options.pool = router_pool_.get();
  ParallelFor(num_shards, router_threads_, fn, options);
}

Status ShardedFusionEngine::MergeQuality() {
  std::vector<SourceQuality> merged = shard_quality_[0];
  for (size_t k = 1; k < shard_quality_.size(); ++k) {
    FUSER_RETURN_IF_ERROR(MergeQualityCounts(&merged, shard_quality_[k]));
  }
  FUSER_RETURN_IF_ERROR(FinalizeQualityFromCounts(options_.model, &merged));
  quality_ = std::move(merged);
  return Status::OK();
}

Status ShardedFusionEngine::Prepare(const DynamicBitset& train_mask) {
  if (train_mask.size() != corpus_.num_triples()) {
    return Status::InvalidArgument(
        "train mask size does not match the corpus");
  }
  if (single()) {
    FUSER_RETURN_IF_ERROR(engines_[0]->Prepare(train_mask));
    SyncSingle();
    return Status::OK();
  }
  const size_t num_shards = engines_.size();
  std::vector<DynamicBitset> shard_masks;
  shard_masks.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    shard_masks.emplace_back(corpus_.shard(k).num_triples());
  }
  train_mask.ForEach([&](size_t global) {
    const ShardLocation loc = corpus_.Locate(static_cast<TripleId>(global));
    shard_masks[loc.shard].Set(loc.local);
  });

  std::vector<Status> statuses(num_shards);
  ForEachShard(
      [&](size_t k) { statuses[k] = engines_[k]->Prepare(shard_masks[k]); });
  for (const Status& s : statuses) FUSER_RETURN_IF_ERROR(s);

  for (size_t k = 0; k < num_shards; ++k) {
    shard_quality_[k] = engines_[k]->source_quality();
  }
  FUSER_RETURN_IF_ERROR(MergeQuality());
  model_ = nullptr;
  for (size_t k = 0; k < num_shards; ++k) {
    FUSER_RETURN_IF_ERROR(
        engines_[k]->AdoptParameters(quality_, nullptr, kNoChangedExisting));
  }
  train_mask_ = train_mask;
  prepared_ = true;
  PublishCurrent();
  return Status::OK();
}

Status ShardedFusionEngine::Update(const ObservationBatch& batch) {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare before Update");
  }
  if (single()) {
    FUSER_RETURN_IF_ERROR(engines_[0]->Update(batch));
    ++updates_applied_;
    full_invalidations_ = engines_[0]->full_invalidations();
    SyncSingle();
    return Status::OK();
  }
  FUSER_ASSIGN_OR_RETURN(RoutedBatch routed, corpus_.RouteBatch(batch));
  const size_t num_shards = engines_.size();

  // New sources are not covered by the current clustering, so pattern
  // deltas against it would be meaningless (and their provider masks
  // unrepresentable) — AdvanceCorrelationModel invalidates it anyway.
  const CorrelationModel* delta_model =
      routed.new_sources.empty() ? model_.get() : nullptr;

  std::vector<ShardUpdateResult> results(num_shards);
  std::vector<Status> statuses(num_shards);
  std::vector<char> applied(num_shards, 0);
  ForEachShard([&](size_t k) {
    if (!routed.dirty[k]) return;
    StatusOr<ShardUpdateResult> result =
        engines_[k]->ApplyShardBatch(routed.per_shard[k], delta_model);
    if (!result.ok()) {
      statuses[k] = result.status();
      return;
    }
    results[k] = std::move(result).value();
    applied[k] = 1;
  });
  for (const Status& s : statuses) FUSER_RETURN_IF_ERROR(s);

  std::vector<const DatasetDelta*> deltas(num_shards, nullptr);
  for (size_t k = 0; k < num_shards; ++k) {
    if (applied[k]) deltas[k] = &results[k].delta;
  }
  FUSER_RETURN_IF_ERROR(corpus_.CommitRoute(routed, deltas));
  ++updates_applied_;

  // Extend the global training mask exactly as the shards extended theirs.
  train_mask_.Resize(corpus_.num_triples());
  bool training_changed = false;
  std::vector<const ClusterDeltas*> cluster_deltas;
  for (size_t k = 0; k < num_shards; ++k) {
    if (!applied[k]) continue;
    training_changed |= results[k].training_changed;
    for (const auto& change : results[k].delta.label_changes) {
      if (change.second == Label::kUnknown) {
        train_mask_.Set(corpus_.GlobalOf(k, change.first));
      }
    }
    shard_quality_[k] = std::move(results[k].shard_quality);
    cluster_deltas.push_back(&results[k].cluster_deltas);
  }
  FUSER_RETURN_IF_ERROR(MergeQuality());

  // Fold every dirty shard's deltas into one clone of the global model (or
  // invalidate it) and adopt the result everywhere; on error the model is
  // dropped and the error returned after adoption.
  StatusOr<ModelAdvance> next = AdvanceCorrelationModel(
      model_.get(), quality_, options_.model, !routed.new_sources.empty(),
      training_changed, cluster_deltas);
  model_ = nullptr;
  if (next.ok()) {
    if (next->invalidated) ++full_invalidations_;
    model_ = std::move(next->model);
  }
  for (size_t k = 0; k < num_shards; ++k) {
    FUSER_RETURN_IF_ERROR(engines_[k]->AdoptParameters(
        quality_, model_,
        applied[k] ? results[k].changed_existing : kNoChangedExisting));
  }
  PublishCurrent();
  return next.status();
}

Status ShardedFusionEngine::EnsureGlobalModel() {
  if (model_ != nullptr) return Status::OK();
  const size_t num_shards = engines_.size();
  // Every count sums exactly over the shards' disjoint training triples,
  // so the model is built over one part per shard.
  std::vector<TrainingPart> parts;
  parts.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    parts.push_back({&corpus_.shard(k), &engines_[k]->train_mask()});
  }
  FUSER_ASSIGN_OR_RETURN(
      CorrelationModel model,
      BuildCorrelationModel(parts, quality_, options_.model,
                            ResolveNumThreads(options_.num_threads),
                            router_pool_.get()));
  model_ = std::make_shared<const CorrelationModel>(std::move(model));
  for (size_t k = 0; k < num_shards; ++k) {
    FUSER_RETURN_IF_ERROR(
        engines_[k]->AdoptParameters(quality_, model_, kNoChangedExisting));
  }
  PublishCurrent();
  return Status::OK();
}

Status ShardedFusionEngine::CheckSpecs(const std::vector<MethodSpec>& specs,
                                       bool* needs_model) const {
  *needs_model = false;
  for (const MethodSpec& spec : specs) {
    const MethodInfo* method = FindMethod(spec.kind);
    if (method == nullptr) {
      return Status::Unimplemented("method kind is not registered: " +
                                   spec.Name());
    }
    if (!method->shardable) {
      return Status::Unimplemented(
          "method '" + std::string(method->id) +
          "' couples triples across the corpus and cannot run sharded");
    }
    if (method->needs_model) {
      *needs_model = true;
    }
  }
  return Status::OK();
}

Status ShardedFusionEngine::PrepareSpecs(const std::vector<MethodSpec>& specs) {
  if (single()) return Status::OK();
  bool needs_model = false;
  FUSER_RETURN_IF_ERROR(CheckSpecs(specs, &needs_model));
  return needs_model ? EnsureGlobalModel() : Status::OK();
}

StatusOr<std::vector<FusionRun>> ShardedFusionEngine::RunAll(
    const std::vector<MethodSpec>& specs) {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare before Run");
  }
  if (single()) return engines_[0]->RunAll(specs);
  FUSER_RETURN_IF_ERROR(PrepareSpecs(specs));

  const size_t num_shards = engines_.size();
  std::vector<std::vector<FusionRun>> shard_runs(num_shards);
  std::vector<Status> statuses(num_shards);
  ForEachShard([&](size_t k) {
    StatusOr<std::vector<FusionRun>> runs = engines_[k]->RunAll(specs);
    if (!runs.ok()) {
      statuses[k] = runs.status();
      return;
    }
    shard_runs[k] = std::move(runs).value();
  });
  for (const Status& s : statuses) FUSER_RETURN_IF_ERROR(s);

  const size_t num_triples = corpus_.num_triples();
  std::vector<FusionRun> runs(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    FusionRun& run = runs[i];
    run.spec = specs[i];
    run.threshold = shard_runs[0][i].threshold;
    run.dataset_version = 0;  // stitched run: no single dataset version
    run.scores.resize(num_triples);
    double seconds = 0.0;
    for (size_t k = 0; k < num_shards; ++k) {
      seconds += shard_runs[k][i].seconds;
    }
    run.seconds = seconds;
  }
  for (size_t g = 0; g < num_triples; ++g) {
    const ShardLocation loc = corpus_.Locate(static_cast<TripleId>(g));
    for (size_t i = 0; i < specs.size(); ++i) {
      runs[i].scores[g] = shard_runs[loc.shard][i].scores[loc.local];
    }
  }
  return runs;
}

StatusOr<FusionRun> ShardedFusionEngine::Run(const MethodSpec& spec) {
  FUSER_ASSIGN_OR_RETURN(std::vector<FusionRun> runs, RunAll({spec}));
  return std::move(runs.front());
}

StatusOr<std::shared_ptr<const ShardedSnapshot>>
ShardedFusionEngine::PublishSnapshot(const std::vector<MethodSpec>& specs) {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare before PublishSnapshot");
  }
  FUSER_RETURN_IF_ERROR(PrepareSpecs(specs));

  const size_t num_shards = engines_.size();
  std::unordered_map<std::string, PatternPosteriorTable> tables;
  std::vector<UnionPatternTables> union_tables;
  if (!single()) {
    FUSER_RETURN_IF_ERROR(BuildUnionTables(specs, &tables, &union_tables));
  }
  std::vector<std::shared_ptr<const FusionSnapshot>> shards(num_shards);
  std::vector<Status> statuses(num_shards);
  ForEachShard([&](size_t k) {
    StatusOr<std::shared_ptr<const FusionSnapshot>> snapshot =
        engines_[k]->PublishSnapshot(
            specs, union_tables.empty() ? nullptr : &union_tables[k]);
    if (!snapshot.ok()) {
      statuses[k] = snapshot.status();
      return;
    }
    shards[k] = std::move(snapshot).value();
  });
  for (const Status& s : statuses) FUSER_RETURN_IF_ERROR(s);
  return StoreSnapshot(std::move(shards), /*servable=*/!specs.empty());
}

Status ShardedFusionEngine::BuildUnionTables(
    const std::vector<MethodSpec>& specs,
    std::unordered_map<std::string, PatternPosteriorTable>* tables,
    std::vector<UnionPatternTables>* union_tables) {
  const size_t num_shards = engines_.size();
  // Only the pattern-based specs some shard has no current entry for.
  std::vector<const MethodSpec*> to_build;
  for (const MethodSpec& spec : specs) {
    const std::string name = spec.Name();
    if (!FindMethod(spec.kind)->pattern_based || tables->count(name) != 0) {
      continue;
    }
    for (size_t k = 0; k < num_shards; ++k) {
      if (engines_[k]->PublishedServing(spec) == nullptr) {
        to_build.push_back(&spec);
        (*tables)[name];  // filled below
        break;
      }
    }
  }
  if (to_build.empty()) return Status::OK();

  // Every shard's grouping over the shared model (built where missing).
  std::vector<const PatternGrouping*> groupings(num_shards, nullptr);
  std::vector<Status> statuses(num_shards);
  ForEachShard([&](size_t k) {
    StatusOr<const PatternGrouping*> grouping =
        engines_[k]->GetPatternGrouping();
    if (!grouping.ok()) {
      statuses[k] = grouping.status();
      return;
    }
    groupings[k] = *grouping;
  });
  for (const Status& s : statuses) FUSER_RETURN_IF_ERROR(s);

  // The union of the shards' distinct lists in first-seen order (shard 0's
  // list, then each later shard's new keys), and each shard's positions in
  // it, through an open-addressing index of union ids at most half full.
  const size_t num_clusters = model_->clustering.clusters.size();
  std::vector<std::vector<PatternKey>> keys(num_clusters);
  union_tables->assign(num_shards, UnionPatternTables{});
  for (size_t k = 0; k < num_shards; ++k) {
    if (groupings[k]->num_clusters() != num_clusters) {
      return Status::Internal("shard grouping does not match the model");
    }
    (*union_tables)[k].tables = tables;
    (*union_tables)[k].positions.resize(num_clusters);
  }
  constexpr uint32_t kEmptySlot = ~uint32_t{0};
  std::vector<uint32_t> slots;
  for (size_t c = 0; c < num_clusters; ++c) {
    size_t total = 0;
    for (const PatternGrouping* grouping : groupings) {
      total += grouping->distinct[c].size();
    }
    size_t capacity = 16;
    while (capacity < 2 * total) capacity <<= 1;
    const size_t mask = capacity - 1;
    slots.assign(capacity, kEmptySlot);
    for (size_t k = 0; k < num_shards; ++k) {
      std::vector<uint32_t>& positions = (*union_tables)[k].positions[c];
      positions.reserve(groupings[k]->distinct[c].size());
      for (const PatternKey& key : groupings[k]->distinct[c]) {
        size_t i = PatternKeyHash{}(key) & mask;
        while (slots[i] != kEmptySlot && !(keys[c][slots[i]] == key)) {
          i = (i + 1) & mask;
        }
        if (slots[i] == kEmptySlot) {
          slots[i] = static_cast<uint32_t>(keys[c].size());
          keys[c].push_back(key);
        }
        positions.push_back(slots[i]);
      }
    }
  }

  MethodContext context;
  context.options = &options_;
  context.quality = &quality_;
  context.model = model_.get();
  context.num_threads = ResolveNumThreads(options_.num_threads);
  context.pool = router_pool_.get();
  for (const MethodSpec* spec : to_build) {
    StatusOr<ScoredPatterns> scored = ScorePatternTable(context, *spec, keys);
    if (!scored.ok()) {
      return Status(scored.status().code(),
                    spec->Name() + ": " + scored.status().message());
    }
    (*tables)[spec->Name()] = std::move(scored->table);
  }
  return Status::OK();
}

std::shared_ptr<const ShardedSnapshot> ShardedFusionEngine::StoreSnapshot(
    std::vector<std::shared_ptr<const FusionSnapshot>> shards, bool servable) {
  auto snapshot = std::make_shared<ShardedSnapshot>();
  snapshot->num_triples = corpus_.num_triples();
  snapshot->num_sources = corpus_.num_sources();
  snapshot->map = corpus_.SnapshotMap();
  snapshot->shards = std::move(shards);
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot->id = ++snapshots_published_;
  snapshot_ = snapshot;
  if (servable) serving_snapshot_ = snapshot;
  return snapshot;
}

void ShardedFusionEngine::SyncSingle() {
  quality_ = engines_[0]->source_quality();
  train_mask_ = engines_[0]->train_mask();
  prepared_ = true;
  PublishCurrent();
}

void ShardedFusionEngine::PublishCurrent() {
  std::vector<std::shared_ptr<const FusionSnapshot>> shards;
  shards.reserve(engines_.size());
  for (const auto& engine : engines_) {
    shards.push_back(engine->CurrentSnapshot());
  }
  StoreSnapshot(std::move(shards), /*servable=*/false);
}

std::shared_ptr<const ShardedSnapshot> ShardedFusionEngine::CurrentSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::shared_ptr<const ShardedSnapshot>
ShardedFusionEngine::CurrentServableSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return serving_snapshot_;
}

Status ShardedFusionEngine::SaveSnapshot(const std::string& path) const {
  if (single()) return engines_[0]->SaveSnapshot(path);
  for (size_t k = 0; k < engines_.size(); ++k) {
    FUSER_RETURN_IF_ERROR(engines_[k]->SaveSnapshot(ShardSnapshotPath(path, k)));
  }
  ShardManifest manifest;
  manifest.snapshot_format_version = kSnapshotFormatVersion;
  manifest.sharding = corpus_.options();
  manifest.num_triples = corpus_.num_triples();
  manifest.num_sources = corpus_.num_sources();
  manifest.local_to_global = corpus_.LocalToGlobal();
  return WriteShardManifest(path, manifest);
}

StatusOr<std::unique_ptr<ShardedFusionEngine>> ShardedFusionEngine::WarmStart(
    const std::string& path, const EngineOptions& options,
    const std::optional<LoadOptions>& load) {
  auto load_file = [&load](const std::string& file) {
    return load.has_value() ? LoadSnapshot(file, *load) : LoadSnapshot(file);
  };
  // The corpus owns the datasets; each shard engine's WarmStart skips its
  // pointer-identity check for a moved-out dataset (the object itself is
  // unmoved, so the snapshot's internal pointers stay valid).
  std::vector<LoadedSnapshot> loaded;
  ShardedCorpus corpus;
  if (!IsShardManifest(path)) {
    FUSER_ASSIGN_OR_RETURN(LoadedSnapshot whole, load_file(path));
    FUSER_ASSIGN_OR_RETURN(
        corpus, ShardedCorpus::Partition(std::move(whole.dataset),
                                         ShardingOptions{1}));
    loaded.push_back(std::move(whole));
  } else {
    FUSER_ASSIGN_OR_RETURN(ShardManifest manifest, ReadShardManifest(path));
    const size_t num_shards = manifest.sharding.num_shards;
    loaded.reserve(num_shards);
    std::vector<std::unique_ptr<Dataset>> datasets;
    datasets.reserve(num_shards);
    for (size_t k = 0; k < num_shards; ++k) {
      FUSER_ASSIGN_OR_RETURN(LoadedSnapshot shard,
                             load_file(ShardSnapshotPath(path, k)));
      datasets.push_back(std::move(shard.dataset));
      loaded.push_back(std::move(shard));
    }
    FUSER_ASSIGN_OR_RETURN(
        corpus, ShardedCorpus::FromShards(std::move(datasets),
                                          manifest.local_to_global,
                                          manifest.sharding));
    if (corpus.num_triples() != manifest.num_triples ||
        corpus.num_sources() != manifest.num_sources) {
      return Status::InvalidArgument(
          "shard manifest totals do not match the shard snapshots: " + path);
    }
  }

  const size_t num_shards = corpus.num_shards();
  std::unique_ptr<ShardedFusionEngine> engine(
      new ShardedFusionEngine(std::move(corpus), options));
  for (size_t k = 0; k < num_shards; ++k) {
    FUSER_RETURN_IF_ERROR(engine->engines_[k]->WarmStart(loaded[k]));
  }

  // The saved options govern all estimation; the thread budget stays the
  // caller's (per-shard budgets were already applied at construction).
  engine->options_ = engine->engines_[0]->options();
  engine->options_.num_threads = options.num_threads;

  if (engine->single()) {
    // The one shard's saved quality and model are already the global ones.
    engine->quality_ = engine->engines_[0]->source_quality();
    engine->train_mask_ = engine->engines_[0]->train_mask();
  } else {
    engine->train_mask_ = DynamicBitset(engine->corpus_.num_triples());
    for (size_t k = 0; k < num_shards; ++k) {
      const size_t shard = k;
      engine->engines_[k]->train_mask().ForEach([&](size_t local) {
        engine->train_mask_.Set(engine->corpus_.GlobalOf(
            shard, static_cast<TripleId>(local)));
      });
      FUSER_ASSIGN_OR_RETURN(
          engine->shard_quality_[k],
          EstimateSourceQuality(engine->corpus_.shard(k),
                                engine->engines_[k]->train_mask(),
                                engine->options_.model));
    }
    FUSER_RETURN_IF_ERROR(engine->MergeQuality());

    // Every shard saved the same adopted global parameters; shard 0's model
    // object becomes the router's (values are identical across shards).
    engine->model_ = engine->engines_[0]->CurrentSnapshot()->model;
  }
  engine->prepared_ = true;

  std::vector<std::shared_ptr<const FusionSnapshot>> current;
  std::vector<std::shared_ptr<const FusionSnapshot>> servable;
  current.reserve(num_shards);
  servable.reserve(num_shards);
  bool all_servable = true;
  for (size_t k = 0; k < num_shards; ++k) {
    current.push_back(engine->engines_[k]->CurrentSnapshot());
    auto shard_servable = engine->engines_[k]->CurrentServableSnapshot();
    if (shard_servable == nullptr) {
      all_servable = false;
    } else {
      servable.push_back(std::move(shard_servable));
    }
  }
  if (all_servable) {
    engine->StoreSnapshot(std::move(servable), /*servable=*/true);
  } else {
    engine->StoreSnapshot(std::move(current), /*servable=*/false);
  }
  return engine;
}

}  // namespace fuser
