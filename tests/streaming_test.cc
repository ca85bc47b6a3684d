// Streaming ingestion tests: Dataset::ApplyBatch index maintenance and
// FusionEngine::Update incremental-vs-rebuild equivalence. The contract
// under test is the strong one: after any sequence of micro-batches, every
// method's scores are byte-identical to a fresh engine prepared on the
// resulting dataset — while the pattern grouping is never rebuilt on the
// incremental path (pattern_grouping_builds() stays at 1).
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "model/dataset.h"
#include "synth/generator.h"
#include "synth/stream_replay.h"

namespace fuser {
namespace {

/// The full deterministic method lineup (every method scores
/// from the dataset + shared inputs alone, so equality is exact).
std::vector<MethodSpec> Lineup() {
  std::vector<MethodSpec> specs;
  for (const char* name : {"union-50", "3estimates", "cosine", "ltm",
                           "precrec", "precrec-corr", "aggressive",
                           "elastic-3"}) {
    auto spec = ParseMethodSpec(name);
    EXPECT_TRUE(spec.ok()) << name;
    specs.push_back(*spec);
  }
  return specs;
}

void ExpectScoresIdentical(const std::vector<FusionRun>& streamed,
                           const std::vector<FusionRun>& fresh) {
  ASSERT_EQ(streamed.size(), fresh.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    ASSERT_EQ(streamed[i].scores.size(), fresh[i].scores.size())
        << streamed[i].spec.Name();
    for (size_t t = 0; t < streamed[i].scores.size(); ++t) {
      // Byte-identical, not approximately equal: the incremental paths must
      // maintain the exact same counts a rebuild would produce.
      EXPECT_EQ(streamed[i].scores[t], fresh[i].scores[t])
          << streamed[i].spec.Name() << " triple " << t;
    }
  }
}

/// Streams `final`'s suffix into a prefix engine in `num_batches` batches,
/// then asserts RunAll equality against a fresh engine on the same dataset.
void RunEquivalence(const Dataset& final, EngineOptions options,
                    TripleId prefix, size_t num_batches,
                    bool expect_incremental) {
  auto prefix_or = PrefixDataset(final, prefix);
  ASSERT_TRUE(prefix_or.ok()) << prefix_or.status();
  Dataset ds = std::move(*prefix_or);
  FusionEngine streaming(&ds, options);
  ASSERT_TRUE(streaming.Prepare(ds.labeled_mask()).ok());
  // Build the shared inputs once up front so Update has state to maintain.
  auto warmup = streaming.RunAll(Lineup());
  ASSERT_TRUE(warmup.ok()) << warmup.status();
  ASSERT_EQ(streaming.pattern_grouping_builds(), 1u);

  const TripleId total = static_cast<TripleId>(final.num_triples());
  const TripleId step =
      (total - prefix + static_cast<TripleId>(num_batches) - 1) /
      static_cast<TripleId>(num_batches);
  for (TripleId lo = prefix; lo < total; lo += step) {
    const TripleId hi = std::min<TripleId>(lo + step, total);
    Status updated = streaming.Update(BatchForRange(final, lo, hi));
    ASSERT_TRUE(updated.ok()) << updated;
    // Interleave scoring with ingestion: every batch must leave the engine
    // runnable, not just the last one.
    auto mid = streaming.Run({MethodKind::kPrecRecCorr});
    ASSERT_TRUE(mid.ok()) << mid.status();
  }
  ASSERT_EQ(ds.num_triples(), final.num_triples());

  auto streamed = streaming.RunAll(Lineup());
  ASSERT_TRUE(streamed.ok()) << streamed.status();

  FusionEngine fresh(static_cast<const Dataset*>(&ds), options);
  ASSERT_TRUE(fresh.Prepare(streaming.train_mask()).ok());
  auto rebuilt = fresh.RunAll(Lineup());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();

  ExpectScoresIdentical(*streamed, *rebuilt);
  if (expect_incremental) {
    EXPECT_EQ(streaming.pattern_grouping_builds(), 1u)
        << "grouping was rebuilt instead of incrementally maintained";
    EXPECT_EQ(streaming.full_invalidations(), 0u);
  }
  EXPECT_GT(streaming.updates_applied(), 0u);
}

TEST(DatasetApplyBatchTest, MaintainsDerivedIndexes) {
  Dataset d;
  SourceId s0 = d.AddSource("alpha");
  SourceId s1 = d.AddSource("beta");
  TripleId t0 = d.AddTriple({"e1", "a", "v1"}, "d1");
  TripleId t1 = d.AddTriple({"e2", "a", "v2"}, "d1");
  d.Provide(s0, t0);
  d.Provide(s1, t1);
  d.SetLabel(t0, true);
  ASSERT_TRUE(d.Finalize().ok());
  const uint64_t v0 = d.version();

  ObservationBatch batch;
  batch.observations.push_back({"beta", {"e1", "a", "v1"}, "d1"});   // new provide
  batch.observations.push_back({"beta", {"e1", "a", "v1"}, "d1"});   // duplicate
  batch.observations.push_back({"gamma", {"e3", "a", "v3"}, "d2"});  // new everything
  batch.observations.push_back({"alpha", {"e3", "a", "v3"}, "ignored"});
  batch.labels.push_back({{"e3", "a", "v3"}, false});
  batch.labels.push_back({{"nope", "x", "y"}, true});  // unknown: skipped
  DatasetDelta delta;
  ASSERT_TRUE(d.ApplyBatch(batch, &delta).ok());

  EXPECT_GT(d.version(), v0);
  EXPECT_EQ(delta.old_num_triples, 2u);
  EXPECT_EQ(delta.old_num_sources, 2u);
  EXPECT_EQ(delta.new_sources.size(), 1u);
  EXPECT_EQ(delta.new_triples.size(), 1u);
  EXPECT_EQ(delta.new_provides.size(), 3u);  // duplicate dropped
  EXPECT_EQ(delta.label_changes.size(), 1u);
  EXPECT_EQ(delta.label_changes[0].second, Label::kUnknown);

  EXPECT_EQ(d.num_sources(), 3u);
  EXPECT_EQ(d.num_triples(), 3u);
  EXPECT_EQ(d.num_domains(), 2u);  // "ignored" never materializes
  const TripleId t2 = d.FindTriple({"e3", "a", "v3"});
  ASSERT_NE(t2, kInvalidTriple);
  // Providers stay sorted; outputs and scope tables are maintained.
  EXPECT_EQ(d.providers(t0), (std::vector<SourceId>{0, 1}));
  EXPECT_EQ(d.providers(t2), (std::vector<SourceId>{0, 2}));
  EXPECT_TRUE(d.provides(s1, t0));
  EXPECT_TRUE(d.in_scope(2, t2));
  EXPECT_FALSE(d.in_scope(s1, t2));  // beta has nothing in d2
  EXPECT_TRUE(d.in_scope(s0, t2));   // alpha gained d2 via the batch
  EXPECT_EQ(d.label(t2), Label::kFalse);
  EXPECT_EQ(d.num_labeled(), 2u);
  EXPECT_EQ(d.triples_in_domain(d.domain(t2)),
            (std::vector<TripleId>{t2}));

  // The existing triple keeps its original domain despite the "ignored"
  // domain on the duplicate observation.
  EXPECT_EQ(d.domain_name(d.domain(t2)), "d2");
}

TEST(DatasetApplyBatchTest, RequiresFinalize) {
  Dataset d;
  d.AddSource("s");
  DatasetDelta delta;
  EXPECT_EQ(d.ApplyBatch({}, &delta).code(),
            StatusCode::kFailedPrecondition);
}

TEST(StreamingUpdateTest, IncrementalMatchesRebuild) {
  SyntheticConfig config =
      MakeIndependentConfig(6, 1200, 0.4, 0.7, 0.45, /*seed=*/311);
  config.groups_true = {{{0, 1, 2}, 0.85}};
  config.groups_false = {{{3, 4}, 0.8}};
  auto final = GenerateSynthetic(config);
  ASSERT_TRUE(final.ok());
  RunEquivalence(*final, EngineOptions{},
                 static_cast<TripleId>(final->num_triples() / 2),
                 /*num_batches=*/5, /*expect_incremental=*/true);
}

TEST(StreamingUpdateTest, IncrementalMatchesRebuildWithScopes) {
  SyntheticConfig config =
      MakeIndependentConfig(5, 900, 0.4, 0.7, 0.5, /*seed=*/313);
  config.num_domains = 7;  // scope gains happen as coverage grows
  auto final = GenerateSynthetic(config);
  ASSERT_TRUE(final.ok());
  EngineOptions options;
  options.model.use_scopes = true;
  RunEquivalence(*final, options,
                 static_cast<TripleId>(final->num_triples() / 2),
                 /*num_batches=*/4, /*expect_incremental=*/true);
}

TEST(StreamingUpdateTest, ProvideOnExistingTrainTripleStaysIncremental) {
  SyntheticConfig config =
      MakeIndependentConfig(5, 400, 0.4, 0.7, 0.45, /*seed=*/317);
  auto final = GenerateSynthetic(config);
  ASSERT_TRUE(final.ok());
  auto ds_or =
      PrefixDataset(*final, static_cast<TripleId>(final->num_triples()));
  ASSERT_TRUE(ds_or.ok()) << ds_or.status();
  Dataset ds = std::move(*ds_or);
  // ds holds the full dataset; craft a batch that adds one observation to
  // an already-labeled training triple (exercises the remove-old/add-new
  // joint-stats delta path).
  TripleId target = kInvalidTriple;
  SourceId newcomer = kInvalidTriple;
  for (TripleId t = 0; t < ds.num_triples() && target == kInvalidTriple;
       ++t) {
    if (ds.label(t) == Label::kUnknown) continue;
    for (SourceId s = 0; s < ds.num_sources(); ++s) {
      if (!ds.provides(s, t)) {
        target = t;
        newcomer = s;
        break;
      }
    }
  }
  ASSERT_NE(target, kInvalidTriple);

  FusionEngine streaming(&ds, EngineOptions{});
  ASSERT_TRUE(streaming.Prepare(ds.labeled_mask()).ok());
  ASSERT_TRUE(streaming.RunAll(Lineup()).ok());

  ObservationBatch batch;
  batch.observations.push_back(
      {std::string(ds.source_name(newcomer)), ds.triple(target),
       std::string(ds.domain_name(ds.domain(target)))});
  ASSERT_TRUE(streaming.Update(batch).ok());
  EXPECT_EQ(streaming.full_invalidations(), 0u);
  EXPECT_EQ(streaming.pattern_grouping_builds(), 1u);

  auto streamed = streaming.RunAll(Lineup());
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  FusionEngine fresh(static_cast<const Dataset*>(&ds), EngineOptions{});
  ASSERT_TRUE(fresh.Prepare(streaming.train_mask()).ok());
  auto rebuilt = fresh.RunAll(Lineup());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectScoresIdentical(*streamed, *rebuilt);
}

TEST(StreamingUpdateTest, RelabelStaysIncremental) {
  SyntheticConfig config =
      MakeIndependentConfig(5, 400, 0.4, 0.7, 0.45, /*seed=*/331);
  auto final = GenerateSynthetic(config);
  ASSERT_TRUE(final.ok());
  auto ds_or =
      PrefixDataset(*final, static_cast<TripleId>(final->num_triples()));
  ASSERT_TRUE(ds_or.ok()) << ds_or.status();
  Dataset ds = std::move(*ds_or);
  TripleId target = 0;
  while (ds.label(target) == Label::kUnknown) ++target;

  FusionEngine streaming(&ds, EngineOptions{});
  ASSERT_TRUE(streaming.Prepare(ds.labeled_mask()).ok());
  ASSERT_TRUE(streaming.RunAll(Lineup()).ok());
  auto stale_run = streaming.Run({MethodKind::kPrecRecCorr});
  ASSERT_TRUE(stale_run.ok());

  ObservationBatch batch;
  batch.labels.push_back(
      {ds.triple(target), ds.label(target) != Label::kTrue});
  ASSERT_TRUE(streaming.Update(batch).ok());
  EXPECT_EQ(streaming.full_invalidations(), 0u);

  // A run scored before the update cannot be evaluated against the mutated
  // gold standard, even though the triple count is unchanged.
  EXPECT_EQ(streaming.Evaluate(*stale_run, ds.labeled_mask()).status().code(),
            StatusCode::kInvalidArgument);

  auto streamed = streaming.RunAll(Lineup());
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  FusionEngine fresh(static_cast<const Dataset*>(&ds), EngineOptions{});
  ASSERT_TRUE(fresh.Prepare(streaming.train_mask()).ok());
  auto rebuilt = fresh.RunAll(Lineup());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectScoresIdentical(*streamed, *rebuilt);
}

TEST(StreamingUpdateTest, ConflictingLabelsInOneBatchCountOnce) {
  SyntheticConfig config =
      MakeIndependentConfig(5, 300, 0.4, 0.7, 0.45, /*seed=*/353);
  auto final = GenerateSynthetic(config);
  ASSERT_TRUE(final.ok());
  auto ds_or = PrefixDataset(
      *final, static_cast<TripleId>(final->num_triples() - 10));
  ASSERT_TRUE(ds_or.ok()) << ds_or.status();
  Dataset ds = std::move(*ds_or);

  FusionEngine streaming(&ds, EngineOptions{});
  ASSERT_TRUE(streaming.Prepare(ds.labeled_mask()).ok());
  ASSERT_TRUE(streaming.RunAll(Lineup()).ok());

  // One batch delivers a new triple with two conflicting gold feeds (and
  // relabels an existing train triple twice). Last write wins, and the
  // triple must be counted exactly once in the joint stats.
  ObservationBatch batch = BatchForRange(
      *final, static_cast<TripleId>(final->num_triples() - 10),
      static_cast<TripleId>(final->num_triples()));
  const Triple& new_triple =
      final->triple(static_cast<TripleId>(final->num_triples() - 1));
  batch.labels.push_back({new_triple, true});
  batch.labels.push_back({new_triple, false});
  TripleId relabel = 0;
  while (ds.label(relabel) == Label::kUnknown) ++relabel;
  batch.labels.push_back({ds.triple(relabel), false});
  batch.labels.push_back({ds.triple(relabel), true});
  ASSERT_TRUE(streaming.Update(batch).ok());
  EXPECT_EQ(streaming.full_invalidations(), 0u);
  EXPECT_EQ(ds.label(ds.FindTriple(new_triple)), Label::kFalse);

  auto streamed = streaming.RunAll(Lineup());
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  FusionEngine fresh(static_cast<const Dataset*>(&ds), EngineOptions{});
  ASSERT_TRUE(fresh.Prepare(streaming.train_mask()).ok());
  auto rebuilt = fresh.RunAll(Lineup());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectScoresIdentical(*streamed, *rebuilt);
}

TEST(StreamingUpdateTest, NewSourceInvalidatesThenMatches) {
  SyntheticConfig config =
      MakeIndependentConfig(5, 600, 0.4, 0.7, 0.45, /*seed=*/337);
  auto final = GenerateSynthetic(config);
  ASSERT_TRUE(final.ok());
  auto ds_or =
      PrefixDataset(*final, static_cast<TripleId>(final->num_triples()));
  ASSERT_TRUE(ds_or.ok()) << ds_or.status();
  Dataset ds = std::move(*ds_or);
  FusionEngine streaming(&ds, EngineOptions{});
  ASSERT_TRUE(streaming.Prepare(ds.labeled_mask()).ok());
  ASSERT_TRUE(streaming.RunAll(Lineup()).ok());

  ObservationBatch batch;
  batch.observations.push_back({"brand-new-source", ds.triple(0), ""});
  ASSERT_TRUE(streaming.Update(batch).ok());
  EXPECT_EQ(streaming.full_invalidations(), 1u);

  auto streamed = streaming.RunAll(Lineup());
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  // The single-cluster partition grew, so the grouping had to rebuild.
  EXPECT_EQ(streaming.pattern_grouping_builds(), 2u);

  FusionEngine fresh(static_cast<const Dataset*>(&ds), EngineOptions{});
  ASSERT_TRUE(fresh.Prepare(streaming.train_mask()).ok());
  auto rebuilt = fresh.RunAll(Lineup());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectScoresIdentical(*streamed, *rebuilt);
}

TEST(StreamingUpdateTest, ClusteringEnabledFallsBackButMatches) {
  SyntheticConfig config =
      MakeIndependentConfig(8, 1000, 0.4, 0.7, 0.4, /*seed=*/341);
  config.groups_true = {{{0, 1}, 0.9}};
  auto final = GenerateSynthetic(config);
  ASSERT_TRUE(final.ok());
  EngineOptions options;
  options.model.enable_clustering = true;
  options.model.clustering.correlation_threshold = 0.3;
  // Labeled batches re-cluster (no incremental guarantee), but equivalence
  // with a fresh engine must still hold.
  RunEquivalence(*final, options,
                 static_cast<TripleId>(final->num_triples() / 2),
                 /*num_batches=*/3, /*expect_incremental=*/false);
}

TEST(StreamingUpdateTest, UpdateRequiresMutableEngineAndPrepare) {
  SyntheticConfig config =
      MakeIndependentConfig(4, 200, 0.4, 0.7, 0.45, /*seed=*/347);
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  FusionEngine const_engine(static_cast<const Dataset*>(&*d),
                            EngineOptions{});
  ASSERT_TRUE(const_engine.Prepare(d->labeled_mask()).ok());
  EXPECT_EQ(const_engine.Update({}).code(), StatusCode::kFailedPrecondition);

  FusionEngine unprepared(&*d, EngineOptions{});
  EXPECT_EQ(unprepared.Update({}).code(), StatusCode::kFailedPrecondition);
}

TEST(StreamingUpdateTest, OutOfBandMutationDetected) {
  SyntheticConfig config =
      MakeIndependentConfig(4, 200, 0.4, 0.7, 0.45, /*seed=*/349);
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  FusionEngine engine(&*d, EngineOptions{});
  ASSERT_TRUE(engine.Prepare(d->labeled_mask()).ok());
  ASSERT_TRUE(engine.Run({MethodKind::kPrecRecCorr}).ok());

  ObservationBatch batch;
  batch.observations.push_back(
      {std::string(d->source_name(0)), {"oob", "p", "v"}, ""});
  DatasetDelta delta;
  ASSERT_TRUE(d->ApplyBatch(batch, &delta).ok());  // behind the engine's back
  EXPECT_EQ(engine.Run({MethodKind::kPrecRecCorr}).status().code(),
            StatusCode::kFailedPrecondition);
  // Re-Prepare recovers.
  ASSERT_TRUE(engine.Prepare(d->labeled_mask()).ok());
  EXPECT_TRUE(engine.Run({MethodKind::kPrecRecCorr}).ok());
}

TEST(StreamingUpdateTest, SingleClassEvaluationReportsCountsWithoutCurves) {
  Dataset d;
  SourceId s = d.AddSource("src");
  for (int i = 0; i < 10; ++i) {
    TripleId t = d.AddTriple({"e" + std::to_string(i), "a", "v"});
    d.Provide(s, t);
    d.SetLabel(t, true);  // single-class gold
  }
  ASSERT_TRUE(d.Finalize().ok());
  FusionEngine engine(&d, EngineOptions{});
  ASSERT_TRUE(engine.Prepare(d.labeled_mask()).ok());
  auto run = engine.Run({MethodKind::kPrecRec});
  ASSERT_TRUE(run.ok());
  auto eval = engine.Evaluate(*run, d.labeled_mask());
  ASSERT_TRUE(eval.ok()) << eval.status();
  EXPECT_FALSE(eval->curves_available);
  EXPECT_TRUE(std::isnan(eval->auc_pr));
  EXPECT_TRUE(std::isnan(eval->auc_roc));
  EXPECT_EQ(eval->counts.total(), 10u);
  EXPECT_GT(eval->recall, 0.0);
}

}  // namespace
}  // namespace fuser
