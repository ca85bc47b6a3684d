#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "persist/snapshot_io.h"

namespace fuser {

namespace {

/// A pattern-based entry whose table is selected from the sharded router's
/// union table: distinct pattern i of cluster c reads union row
/// positions[c][i]. The plan is rebuilt over this engine's own model for
/// the entry's ad-hoc scorer, which the snapshot keeps alive.
StatusOr<std::shared_ptr<const MethodServing>> SelectUnionServing(
    const MethodContext& context, const MethodSpec& spec,
    const UnionPatternTables& union_tables) {
  const auto it = union_tables.tables->find(spec.Name());
  const std::vector<std::vector<PatternKey>>& distinct =
      context.grouping->distinct;
  const std::vector<std::vector<uint32_t>>& positions = union_tables.positions;
  bool covered = it != union_tables.tables->end() &&
                 it->second.num_clusters() == distinct.size() &&
                 positions.size() == distinct.size();
  for (size_t c = 0; covered && c < distinct.size(); ++c) {
    covered = positions[c].size() == distinct[c].size();
  }
  if (!covered) {
    return Status::Internal("union pattern tables do not cover this shard");
  }
  FUSER_ASSIGN_OR_RETURN(PatternScoringPlan plan,
                         MakeScoringPlan(context, spec));
  return MakePatternServing(spec, std::move(plan),
                            SelectPatternRows(it->second, positions));
}

}  // namespace

FusionEngine::FusionEngine(const Dataset* dataset, EngineOptions options)
    : dataset_(dataset), options_(std::move(options)) {
  FUSER_CHECK(dataset_ != nullptr);
  FUSER_CHECK(dataset_->finalized()) << "dataset must be finalized";
  // Scope handling must be consistent across methods; propagate the model
  // setting into every baseline.
  options_.three_estimates.use_scopes = options_.model.use_scopes;
  options_.cosine.use_scopes = options_.model.use_scopes;
  options_.ltm.use_scopes = options_.model.use_scopes;
}

FusionEngine::FusionEngine(Dataset* dataset, EngineOptions options)
    : FusionEngine(static_cast<const Dataset*>(dataset), std::move(options)) {
  mutable_dataset_ = dataset;
}

Status FusionEngine::Prepare(const DynamicBitset& train_mask) {
  if (train_mask.size() != dataset_->num_triples()) {
    return Status::InvalidArgument("train_mask size != num_triples");
  }
  FUSER_RETURN_IF_ERROR(ValidateEngineOptions(options_));
  train_mask_ = train_mask;
  FUSER_ASSIGN_OR_RETURN(
      quality_, EstimateSourceQuality(*dataset_, train_mask_,
                                      options_.model.ToQualityOptions()));
  // Unreference (not destroy): snapshots pinned by readers keep the old
  // model/grouping alive and consistent; the engine rebuilds lazily.
  model_ = nullptr;
  grouping_ = nullptr;
  dataset_version_ = dataset_->version();
  prepared_ = true;
  Publish({});
  return Status::OK();
}

void FusionEngine::Publish(ServingMap serving) {
  auto snapshot = std::make_shared<FusionSnapshot>();
  snapshot->id = ++snapshots_published_;
  snapshot->dataset_version = dataset_version_;
  snapshot->num_triples = dataset_->num_triples();
  snapshot->num_sources = dataset_->num_sources();
  snapshot->options = options_;
  snapshot->quality = quality_;
  snapshot->model = model_;
  snapshot->grouping = grouping_;
  snapshot->serving = std::move(serving);
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snapshot);
  if (!snapshot_->serving.empty()) {
    serving_snapshot_ = snapshot_;
  }
}

void FusionEngine::RepublishKeepServing() {
  std::shared_ptr<const FusionSnapshot> previous = CurrentSnapshot();
  ServingMap serving;
  if (previous != nullptr && previous->dataset_version == dataset_version_) {
    serving = previous->serving;
  }
  Publish(std::move(serving));
}

std::shared_ptr<const FusionSnapshot> FusionEngine::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::shared_ptr<const FusionSnapshot> FusionEngine::CurrentServableSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return serving_snapshot_;
}

StatusOr<std::shared_ptr<const FusionSnapshot>> FusionEngine::PublishSnapshot(
    const std::vector<MethodSpec>& specs,
    const UnionPatternTables* union_tables) {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare before PublishSnapshot");
  }
  FUSER_RETURN_IF_ERROR(CheckDatasetVersion());
  ServingMap serving;
  for (const MethodSpec& spec : specs) {
    const std::string name = spec.Name();
    if (serving.count(name) != 0) continue;
    std::shared_ptr<const MethodServing> entry = PublishedServing(spec);
    if (entry == nullptr) {
      MethodContext context;
      FUSER_ASSIGN_OR_RETURN(const MethodInfo* method,
                             ResolveAndPrepareContext(spec, &context));
      StatusOr<std::shared_ptr<const MethodServing>> built =
          union_tables != nullptr && method->pattern_based
              ? SelectUnionServing(context, spec, *union_tables)
              : BuildMethodServing(context, spec);
      if (!built.ok()) {
        return Status(built.status().code(),
                      name + ": " + built.status().message());
      }
      entry = std::move(built).value();
    }
    serving.emplace(name, std::move(entry));
  }
  Publish(std::move(serving));
  return CurrentSnapshot();
}

std::shared_ptr<const MethodServing> FusionEngine::PublishedServing(
    const MethodSpec& spec) const {
  // The pointer comparison is sound because every mutation path swaps the
  // shared_ptrs instead of editing in place.
  std::shared_ptr<const FusionSnapshot> current = CurrentSnapshot();
  if (current == nullptr || current->dataset_version != dataset_version_ ||
      current->model != model_ || current->grouping != grouping_) {
    return nullptr;
  }
  auto it = current->serving.find(spec.Name());
  return it != current->serving.end() ? it->second : nullptr;
}

Status FusionEngine::WarmStart(const std::string& path) {
  FUSER_ASSIGN_OR_RETURN(LoadedSnapshot loaded,
                         LoadSnapshotFor(path, *dataset_));
  return WarmStart(loaded);
}

Status FusionEngine::WarmStart(const LoadedSnapshot& loaded) {
  if (loaded.snapshot == nullptr) {
    return Status::InvalidArgument("loaded snapshot is empty");
  }
  const FusionSnapshot& snap = *loaded.snapshot;
  if (loaded.dataset != nullptr && loaded.dataset.get() != dataset_) {
    // The loaded grouping/serving state is wired to loaded.dataset;
    // adopting it in an engine over a different object would leave scores
    // computed against one dataset and Updates applied to another.
    return Status::InvalidArgument(
        "engine must be constructed over the loaded snapshot's dataset");
  }
  if (snap.num_triples != dataset_->num_triples() ||
      snap.num_sources != dataset_->num_sources()) {
    return Status::InvalidArgument(
        "snapshot does not belong to this dataset (size mismatch)");
  }
  if (snap.dataset_version != dataset_->version()) {
    return Status::InvalidArgument(
        "snapshot dataset_version " + std::to_string(snap.dataset_version) +
        " does not match the dataset's version " +
        std::to_string(dataset_->version()) +
        " (the dataset changed since the snapshot was saved)");
  }
  if (loaded.train_mask.size() != dataset_->num_triples()) {
    return Status::InvalidArgument("loaded train mask size mismatch");
  }
  if (snap.grouping != nullptr && snap.grouping->dataset != dataset_) {
    return Status::InvalidArgument(
        "loaded grouping is attached to a different dataset");
  }
  // Adopt the saved options wholesale — they are what the persisted model
  // and serving state were computed under, and scores must reproduce
  // exactly — except the worker-thread count, which a file does not carry:
  // it is a property of the host machine rather than of the trained state
  // (scores are thread-count invariant by contract).
  const size_t host_threads = options_.num_threads;
  options_ = snap.options;
  options_.num_threads = host_threads;
  train_mask_ = loaded.train_mask;
  quality_ = snap.quality;
  model_ = snap.model;
  grouping_ = snap.grouping;
  dataset_version_ = snap.dataset_version;
  prepared_ = true;
  Publish(snap.serving);
  return Status::OK();
}

Status FusionEngine::SaveSnapshot(const std::string& path) const {
  std::shared_ptr<const FusionSnapshot> snapshot = CurrentSnapshot();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition(
        "nothing to save: call Prepare (and PublishSnapshot) first");
  }
  FUSER_RETURN_IF_ERROR(CheckDatasetVersion());
  return ::fuser::SaveSnapshot(path, *dataset_, train_mask_, *snapshot);
}

Status FusionEngine::CheckDatasetVersion() const {
  if (dataset_->version() != dataset_version_) {
    return Status::FailedPrecondition(
        "dataset changed since Prepare/Update; call Update (streaming) or "
        "re-Prepare");
  }
  return Status::OK();
}

std::vector<TripleId> FusionEngine::CollectChangedExisting(
    const DatasetDelta& delta, bool use_scopes) const {
  const size_t old_m = delta.old_num_triples;
  std::vector<TripleId> changed;
  for (const auto& [s, t] : delta.new_provides) {
    (void)s;
    if (t < old_m) changed.push_back(t);
  }
  if (use_scopes && !delta.scope_gains.empty()) {
    // A source newly covering a domain flips in_scope for every triple of
    // that domain. Domains introduced by this batch hold only new triples.
    std::vector<DomainId> domains;
    for (const auto& [s, d] : delta.scope_gains) {
      (void)s;
      if (d < delta.old_num_domains) domains.push_back(d);
    }
    std::sort(domains.begin(), domains.end());
    domains.erase(std::unique(domains.begin(), domains.end()), domains.end());
    for (DomainId d : domains) {
      for (TripleId t : dataset_->triples_in_domain(d)) {
        if (t < old_m) changed.push_back(t);
      }
    }
  }
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  return changed;
}

ClusterDeltas FusionEngine::ComputeClusterDeltas(
    const DatasetDelta& delta, const DynamicBitset& old_train,
    const std::vector<TripleId>& changed_existing,
    const SourceClustering& clustering) const {
  const size_t old_m = delta.old_num_triples;
  const bool use_scopes = options_.model.use_scopes;

  // Label state before the batch (ApplyBatch records the first old label
  // per triple; emplace keeps it even if a batch relabels twice).
  std::unordered_map<TripleId, Label> old_labels;
  for (const auto& [t, label] : delta.label_changes) {
    old_labels.emplace(t, label);
  }
  auto label_before = [&](TripleId t) {
    auto it = old_labels.find(t);
    return it != old_labels.end() ? it->second : dataset_->label(t);
  };

  // Existing triples whose stats contribution may change: structural
  // changes plus label changes. New triples labeled by this batch are
  // add-only; both lists are deduped (a batch may relabel a triple twice).
  std::vector<TripleId> affected = changed_existing;
  std::vector<TripleId> new_labeled;
  for (const auto& [t, label] : delta.label_changes) {
    (void)label;
    if (t < old_m) {
      affected.push_back(t);
    } else {
      new_labeled.push_back(t);
    }
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  std::sort(new_labeled.begin(), new_labeled.end());
  new_labeled.erase(std::unique(new_labeled.begin(), new_labeled.end()),
                    new_labeled.end());

  ClusterDeltas result(clustering.clusters.size());
  for (size_t c = 0; c < clustering.clusters.size(); ++c) {
    const std::vector<SourceId>& cluster = clustering.clusters[c];
    const Mask full = FullMask(static_cast<int>(cluster.size()));

    // Bits this batch added to cluster-local provider/scope masks; old
    // masks are the current ones minus these (observations only add bits).
    std::unordered_map<TripleId, Mask> added_providers;
    for (const auto& [s, t] : delta.new_provides) {
      if (t >= old_m) continue;
      if (clustering.cluster_of[s] != static_cast<int>(c)) continue;
      added_providers[t] =
          WithBit(added_providers[t], clustering.index_in_cluster[s]);
    }
    std::unordered_map<DomainId, Mask> gained_scope;
    if (use_scopes) {
      for (const auto& [s, d] : delta.scope_gains) {
        if (clustering.cluster_of[s] != static_cast<int>(c)) continue;
        gained_scope[d] = WithBit(gained_scope[d],
                                  clustering.index_in_cluster[s]);
      }
    }

    // Cluster-local (providers, scope) masks as EmpiricalJointStats counts
    // them: provider bit when the source provides t, scope bit when it is
    // in scope (all bits when scopes are disabled).
    auto observation = [&](TripleId t) {
      Mask providers = 0;
      Mask scope = use_scopes ? Mask{0} : full;
      for (size_t i = 0; i < cluster.size(); ++i) {
        SourceId s = cluster[i];
        if (dataset_->provides(s, t)) {
          providers = WithBit(providers, static_cast<int>(i));
        }
        if (use_scopes && dataset_->in_scope(s, t)) {
          scope = WithBit(scope, static_cast<int>(i));
        }
      }
      return std::make_pair(providers, scope);
    };

    std::vector<JointPatternDelta>& deltas = result[c];
    for (TripleId t : affected) {
      Mask added = 0;
      if (auto it = added_providers.find(t); it != added_providers.end()) {
        added = it->second;
      }
      Mask gained = 0;
      if (use_scopes) {
        if (auto it = gained_scope.find(dataset_->domain(t));
            it != gained_scope.end()) {
          gained = it->second;
        }
      }
      const bool label_changed = old_labels.count(t) != 0;
      if (added == 0 && gained == 0 && !label_changed) {
        // Untouched in this cluster: the -1/+1 pair would cancel exactly,
        // so skipping it spares the cluster's table updates.
        continue;
      }
      const auto [providers, scope] = observation(t);
      const Label before = label_before(t);
      if (before != Label::kUnknown && old_train.Test(t)) {
        deltas.push_back({providers & ~added,
                          use_scopes ? (scope & ~gained) : full,
                          before == Label::kTrue, -1});
      }
      const Label now = dataset_->label(t);
      if (now != Label::kUnknown && train_mask_.Test(t)) {
        deltas.push_back({providers, scope, now == Label::kTrue, +1});
      }
    }
    // Triples created and labeled by the same batch enter the training set
    // with their current masks (nothing to remove).
    for (TripleId t : new_labeled) {
      const Label now = dataset_->label(t);
      if (now == Label::kUnknown || !train_mask_.Test(t)) continue;
      const auto [providers, scope] = observation(t);
      deltas.push_back({providers, scope, now == Label::kTrue, +1});
    }
  }
  return result;
}

Status FusionEngine::Update(const ObservationBatch& batch) {
  FUSER_ASSIGN_OR_RETURN(ShardUpdateResult result,
                         ApplyShardBatch(batch, model_.get()));
  // Unsharded, this engine's own quality estimate is the final one.
  StatusOr<ModelAdvance> next = AdvanceCorrelationModel(
      model_.get(), result.shard_quality, options_.model,
      !result.delta.new_sources.empty(), result.training_changed,
      {&result.cluster_deltas});
  std::shared_ptr<const CorrelationModel> model;
  if (next.ok()) {
    if (next->invalidated) ++full_invalidations_;
    model = std::move(next->model);
  }
  // On error the model is dropped rather than served half-updated (pinned
  // snapshots are unaffected) and the error is returned after publishing.
  InstallParameters(std::move(result.shard_quality), std::move(model),
                    result.changed_existing);
  return next.status();
}

StatusOr<ShardUpdateResult> FusionEngine::ApplyShardBatch(
    const ObservationBatch& batch, const CorrelationModel* model) {
  if (mutable_dataset_ == nullptr) {
    return Status::FailedPrecondition(
        "streaming updates require an engine constructed with a mutable "
        "Dataset*");
  }
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare before Update");
  }
  FUSER_RETURN_IF_ERROR(CheckDatasetVersion());

  ShardUpdateResult result;
  FUSER_RETURN_IF_ERROR(mutable_dataset_->ApplyBatch(batch, &result.delta));
  dataset_version_ = dataset_->version();
  ++updates_applied_;

  const DatasetDelta& delta = result.delta;
  const size_t old_m = delta.old_num_triples;
  const bool use_scopes = options_.model.use_scopes;

  // The training set grows with the stream: newly labeled triples join it
  // (previously labeled triples keep their train/test assignment).
  DynamicBitset old_train = train_mask_;
  train_mask_.Resize(dataset_->num_triples());
  for (const auto& [t, old_label] : delta.label_changes) {
    if (old_label == Label::kUnknown) train_mask_.Set(t);
  }

  // Source quality is one cheap bitset pass; recomputing it is exact.
  FUSER_ASSIGN_OR_RETURN(
      result.shard_quality,
      EstimateSourceQuality(*dataset_, train_mask_,
                            options_.model.ToQualityOptions()));

  result.training_changed = !delta.label_changes.empty();
  if (!result.training_changed) {
    for (const auto& [s, t] : delta.new_provides) {
      (void)s;
      if (t < old_m && old_train.Test(t)) {
        result.training_changed = true;
        break;
      }
    }
  }
  if (!result.training_changed && use_scopes && !delta.scope_gains.empty()) {
    result.training_changed = true;  // scope denominators shift with coverage
  }

  // The fold inputs are only needed when the batch can be folded into
  // `model`; a batch that invalidates it skips them.
  if (model != nullptr &&
      !BatchInvalidatesModel(options_.model, !delta.new_sources.empty(),
                             result.training_changed)) {
    result.changed_existing = CollectChangedExisting(delta, use_scopes);
    result.cluster_deltas = ComputeClusterDeltas(
        delta, old_train, result.changed_existing, model->clustering);
  }
  return result;
}

Status FusionEngine::AdoptParameters(
    std::vector<SourceQuality> quality,
    std::shared_ptr<const CorrelationModel> model,
    const std::vector<TripleId>& changed_existing) {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare before AdoptParameters");
  }
  external_parameters_ = true;
  InstallParameters(std::move(quality), std::move(model), changed_existing);
  return Status::OK();
}

void FusionEngine::InstallParameters(
    std::vector<SourceQuality> quality,
    std::shared_ptr<const CorrelationModel> model,
    const std::vector<TripleId>& changed_existing) {
  dataset_version_ = dataset_->version();
  quality_ = std::move(quality);
  model_ = std::move(model);
  if (model_ == nullptr) {
    grouping_ = nullptr;
  } else if (grouping_ != nullptr) {
    const bool untouched =
        grouping_->num_triples == dataset_->num_triples() &&
        changed_existing.empty() &&
        grouping_->model_fingerprint == ModelGroupingFingerprint(*model_);
    if (!untouched) {
      // Copy-on-write: append/remap in a copy so the published grouping
      // (shared with pinned snapshots) never moves.
      auto next_grouping = std::make_shared<PatternGrouping>(*grouping_);
      Status grouping_status = UpdatePatternGrouping(
          *dataset_, *model_, changed_existing, next_grouping.get());
      if (grouping_status.ok()) {
        grouping_ = std::move(next_grouping);
      } else {
        grouping_ = nullptr;  // degrade to a lazy rebuild
        ++full_invalidations_;
      }
    }
  }
  Publish({});
}

Status FusionEngine::EnsureModel() {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare before Run");
  }
  FUSER_RETURN_IF_ERROR(CheckDatasetVersion());
  if (model_ != nullptr) {
    return Status::OK();
  }
  if (external_parameters_) {
    // A shard's local dataset cannot reproduce the router-merged model;
    // building from it would silently change scores.
    return Status::FailedPrecondition(
        "model is router-managed; the sharded engine must adopt parameters "
        "before scoring");
  }
  // The model takes the source quality the engine already holds (Prepare
  // and Update keep it current) and counts everything else from one view
  // of the training triples.
  FUSER_ASSIGN_OR_RETURN(
      CorrelationModel model,
      BuildCorrelationModel({{dataset_, &train_mask_}}, quality_,
                            options_.model,
                            ResolveNumThreads(options_.num_threads),
                            WorkerPool()));
  model_ = std::make_shared<const CorrelationModel>(std::move(model));
  RepublishKeepServing();
  return Status::OK();
}

ThreadPool* FusionEngine::WorkerPool() {
  const size_t num_threads = ResolveNumThreads(options_.num_threads);
  if (num_threads <= 1) return nullptr;
  if (pool_ == nullptr || pool_->num_threads() != num_threads) {
    pool_ = std::make_unique<ThreadPool>(num_threads);
  }
  return pool_.get();
}

Status FusionEngine::EnsureGrouping() {
  FUSER_RETURN_IF_ERROR(EnsureModel());
  if (grouping_ != nullptr) {
    return Status::OK();
  }
  FUSER_ASSIGN_OR_RETURN(
      PatternGrouping grouping,
      BuildPatternGrouping(*dataset_, *model_,
                           ResolveNumThreads(options_.num_threads),
                           WorkerPool()));
  grouping_ = std::make_shared<const PatternGrouping>(std::move(grouping));
  ++grouping_builds_;
  RepublishKeepServing();
  return Status::OK();
}

StatusOr<const CorrelationModel*> FusionEngine::GetModel() {
  FUSER_RETURN_IF_ERROR(EnsureModel());
  return model_.get();
}

StatusOr<const PatternGrouping*> FusionEngine::GetPatternGrouping() {
  FUSER_RETURN_IF_ERROR(EnsureGrouping());
  return grouping_.get();
}

StatusOr<const MethodInfo*> FusionEngine::ResolveAndPrepareContext(
    const MethodSpec& spec, MethodContext* context) {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare before Run");
  }
  FUSER_RETURN_IF_ERROR(CheckDatasetVersion());
  const MethodInfo* method = FindMethod(spec.kind);
  if (method == nullptr) {
    return Status::Unimplemented("method kind not registered");
  }
  // The snapshot decoder applies the same check, so an engine never saves
  // a serving entry it cannot load.
  FUSER_RETURN_IF_ERROR(ValidateMethodSpec(spec));
  context->dataset = dataset_;
  context->options = &options_;
  context->quality = &quality_;
  context->num_threads =
      method->supports_threads ? ResolveNumThreads(options_.num_threads) : 1;
  context->pool = method->supports_threads ? WorkerPool() : nullptr;
  // Shared inputs are built outside the timed section (they are reused
  // across methods, like the paper's offline parameters).
  if (method->needs_model) {
    FUSER_RETURN_IF_ERROR(EnsureModel());
    context->model = model_.get();
  }
  if (method->pattern_based) {
    FUSER_RETURN_IF_ERROR(EnsureGrouping());
    context->grouping = grouping_.get();
  }
  return method;
}

StatusOr<FusionRun> FusionEngine::Run(const MethodSpec& spec) {
  MethodContext context;
  FUSER_ASSIGN_OR_RETURN(const MethodInfo* method,
                         ResolveAndPrepareContext(spec, &context));

  FusionRun run;
  run.spec = spec;
  run.threshold = DefaultThreshold(spec, options_);
  run.dataset_version = dataset_->version();

  if (method->pattern_based) {
    // Batch scoring is the dense expansion of the serving state: build (or
    // reuse) the per-pattern posterior table a published snapshot carries
    // and gather it over every triple, so FusionService::ScoreBatch and
    // Run share one implementation (and are byte-identical).
    WallTimer timer;
    // An entry already published against exactly these inputs is
    // byte-identical to a rebuild (BuildMethodServing is deterministic) —
    // skip the distinct-pattern scoring pass. This makes the canonical
    // writer loop (PublishSnapshot, then Run for a dense reference) pay
    // for the scoring once. Note FusionRun.seconds then covers only the
    // gather, like the shared inputs it excludes by contract.
    std::shared_ptr<const MethodServing> serving = PublishedServing(spec);
    if (serving == nullptr) {
      FUSER_ASSIGN_OR_RETURN(serving, BuildMethodServing(context, spec));
    }
    run.scores = GatherPatternScores(*context.grouping, serving->table,
                                     context.num_threads, context.pool);
    run.seconds = timer.ElapsedSeconds();
    return run;
  }

  WallTimer timer;
  FUSER_ASSIGN_OR_RETURN(run.scores, ScoreMethod(context, spec));
  run.seconds = timer.ElapsedSeconds();
  return run;
}

StatusOr<std::vector<FusionRun>> FusionEngine::RunAll(
    const std::vector<MethodSpec>& specs) {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare before Run");
  }
  // Resolve every spec up front so a bad spec late in the lineup fails
  // before any scoring work happens.
  for (const MethodSpec& spec : specs) {
    if (FindMethod(spec.kind) == nullptr) {
      return Status::Unimplemented("method kind not registered");
    }
  }
  std::vector<FusionRun> runs;
  runs.reserve(specs.size());
  for (const MethodSpec& spec : specs) {
    StatusOr<FusionRun> run = Run(spec);
    if (!run.ok()) {
      // Name the failing method: with a long lineup the caller cannot tell
      // which spec died from the bare status.
      return Status(run.status().code(),
                    spec.Name() + ": " + run.status().message());
    }
    runs.push_back(std::move(run).value());
  }
  return runs;
}

StatusOr<EvalSummary> FusionEngine::Evaluate(
    const FusionRun& run, const DynamicBitset& eval_mask) const {
  if (run.scores.size() != dataset_->num_triples() ||
      (run.dataset_version != 0 &&
       run.dataset_version != dataset_->version())) {
    return Status::InvalidArgument(
        "run predates a dataset change; re-run the method");
  }
  EvalSummary summary;
  summary.counts =
      EvaluateDecisions(*dataset_, run.scores, eval_mask, run.threshold);
  summary.precision = summary.counts.Precision();
  summary.recall = summary.counts.Recall();
  summary.f1 = summary.counts.F1();
  StatusOr<RankedCurves> curves =
      ComputeRankedCurves(*dataset_, run.scores, eval_mask);
  if (curves.ok()) {
    summary.auc_pr = curves->auc_pr;
    summary.auc_roc = curves->auc_roc;
  } else if (curves.status().code() == StatusCode::kFailedPrecondition) {
    // Single-class eval mask: ranked curves are undefined, but the
    // decision-quality half of the summary still stands.
    summary.curves_available = false;
    summary.auc_pr = std::numeric_limits<double>::quiet_NaN();
    summary.auc_roc = std::numeric_limits<double>::quiet_NaN();
  } else {
    return curves.status();
  }
  summary.seconds = run.seconds;
  return summary;
}

StatusOr<EvalSummary> FusionEngine::RunAndEvaluate(
    const MethodSpec& spec, const DynamicBitset& eval_mask) {
  FUSER_ASSIGN_OR_RETURN(FusionRun run, Run(spec));
  return Evaluate(run, eval_mask);
}

}  // namespace fuser
