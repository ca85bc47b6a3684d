#include "serving/fusion_service.h"

#include <algorithm>

namespace fuser {

namespace {

StatusOr<const MethodServing*> FindServing(const FusionSnapshot& snapshot,
                                           const MethodSpec& spec) {
  const MethodServing* serving = snapshot.FindServing(spec.Name());
  if (serving == nullptr) {
    return Status::FailedPrecondition(
        spec.Name() +
        ": not materialized in this snapshot; publish it with "
        "FusionEngine::PublishSnapshot first");
  }
  return serving;
}

/// One cluster's combine input for an ad-hoc observation: the same
/// PatternLogEntry the posterior table stores. Known patterns read the
/// table; unseen patterns run the snapshot's scorer with the same clamping
/// ScorePatterns applies, so the entry is identical either way.
StatusOr<PatternLogEntry> AdHocClusterEntry(const FusionSnapshot& snapshot,
                                            const MethodServing& serving,
                                            size_t c, const PatternKey& key) {
  const PatternPosteriorTable::ClusterLogs& logs = serving.table.logs[c];
  const auto& index = snapshot.grouping->index[c];
  auto it = index.find(key);
  if (it != index.end() && it->second < logs.flags.size()) {
    return PatternLogEntry{logs.flags[it->second],
                           logs.log_true[it->second],
                           logs.log_false[it->second]};
  }
  double given_true = 0.0;
  double given_false = 0.0;
  FUSER_RETURN_IF_ERROR(
      serving.adhoc_scorer(c, key, &given_true, &given_false));
  return MakePatternLogEntry(std::max(given_true, 0.0),
                             std::max(given_false, 0.0));
}

}  // namespace

FusionService::FusionService(const FusionEngine* engine) : engine_(engine) {}

StatusOr<std::shared_ptr<const FusionSnapshot>> FusionService::Acquire()
    const {
  // Prefer the latest *servable* snapshot: between an Update and the
  // writer's next PublishSnapshot the engine's current snapshot carries no
  // serving entries yet, and readers should keep answering from the last
  // materialized state instead of failing through that window.
  std::shared_ptr<const FusionSnapshot> snapshot =
      engine_->CurrentServableSnapshot();
  if (snapshot == nullptr) snapshot = engine_->CurrentSnapshot();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition(
        "engine has published no snapshot; call Prepare first");
  }
  return snapshot;
}

StatusOr<double> FusionService::Score(const FusionSnapshot& snapshot,
                                      const MethodSpec& spec,
                                      TripleId t) const {
  FUSER_ASSIGN_OR_RETURN(const MethodServing* serving,
                         FindServing(snapshot, spec));
  if (static_cast<size_t>(t) >= snapshot.num_triples) {
    return Status::InvalidArgument(
        "triple id outside this snapshot's range (added later?)");
  }
  if (serving->pattern_based) {
    return ScoreTripleFromTable(*snapshot.grouping, serving->table, t);
  }
  return serving->dense[t];
}

StatusOr<std::vector<double>> FusionService::ScoreBatch(
    const FusionSnapshot& snapshot, const MethodSpec& spec,
    const std::vector<TripleId>& triples) const {
  FUSER_ASSIGN_OR_RETURN(const MethodServing* serving,
                         FindServing(snapshot, spec));
  std::vector<double> scores(triples.size());
  for (size_t i = 0; i < triples.size(); ++i) {
    const TripleId t = triples[i];
    if (static_cast<size_t>(t) >= snapshot.num_triples) {
      return Status::InvalidArgument(
          "triple id outside this snapshot's range (added later?)");
    }
    scores[i] = serving->pattern_based
                    ? ScoreTripleFromTable(*snapshot.grouping, serving->table,
                                           t)
                    : serving->dense[t];
  }
  return scores;
}

StatusOr<double> FusionService::ScoreObservation(
    const FusionSnapshot& snapshot, const MethodSpec& spec,
    const AdHocObservation& observation) const {
  FUSER_ASSIGN_OR_RETURN(const MethodServing* serving,
                         FindServing(snapshot, spec));
  if (!serving->pattern_based) {
    return Status::Unimplemented(
        spec.Name() + ": method does not support ad-hoc observations "
        "(no pattern scoring plan)");
  }
  if (snapshot.model == nullptr || snapshot.grouping == nullptr) {
    return Status::FailedPrecondition(
        "snapshot has no model/grouping for pattern serving");
  }
  const CorrelationModel& model = *snapshot.model;
  const SourceClustering& clustering = model.clustering;
  const size_t num_clusters = clustering.clusters.size();

  // Cluster-local observation masks, exactly as GetClusterObservation
  // derives them for dataset triples: provider bit per asserting source,
  // scope bit per source with an opinion (all members when scopes are
  // off; providers are always in scope).
  std::vector<Mask> providers(num_clusters, 0);
  std::vector<Mask> scope(num_clusters, 0);
  if (!model.use_scopes) {
    for (size_t c = 0; c < num_clusters; ++c) {
      scope[c] = clustering.clusters[c].empty()
                     ? Mask{0}
                     : FullMask(static_cast<int>(
                           clustering.clusters[c].size()));
    }
  }
  auto add_source = [&](SourceId s, bool provides) -> Status {
    if (static_cast<size_t>(s) >= clustering.cluster_of.size() ||
        static_cast<size_t>(s) >= snapshot.num_sources) {
      return Status::InvalidArgument("unknown source id in observation");
    }
    const size_t c = static_cast<size_t>(clustering.cluster_of[s]);
    const int bit = clustering.index_in_cluster[s];
    if (provides) providers[c] = WithBit(providers[c], bit);
    if (model.use_scopes) scope[c] = WithBit(scope[c], bit);
    return Status::OK();
  };
  for (SourceId s : observation.providers) {
    FUSER_RETURN_IF_ERROR(add_source(s, /*provides=*/true));
  }
  if (model.use_scopes) {
    for (SourceId s : observation.in_scope) {
      FUSER_RETURN_IF_ERROR(add_source(s, /*provides=*/false));
    }
  }

  // Combine per-cluster entries through the shared accumulator — the same
  // rule the posterior table and the dense gather use, so an observation
  // that mirrors an existing triple scores byte-identically to Score on
  // that triple.
  PatternLogAccumulator acc;
  for (size_t c = 0; c < num_clusters; ++c) {
    const PatternKey key{providers[c], scope[c] & ~providers[c]};
    FUSER_ASSIGN_OR_RETURN(PatternLogEntry entry,
                           AdHocClusterEntry(snapshot, *serving, c, key));
    acc.Add(entry);
  }
  return acc.Posterior(serving->table.alpha);
}

}  // namespace fuser
