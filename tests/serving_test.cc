// Serving-layer tests: FusionSnapshot publication and FusionService point
// queries. The core contract is byte-identity — ScoreBatch over every
// triple reproduces FusionEngine::Run exactly, for every
// method, at every thread count — plus snapshot immutability: a pinned
// snapshot keeps answering with its original scores across any number of
// subsequent Prepare/Update calls.
#include "serving/fusion_service.h"

#include <memory>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "model/dataset.h"
#include "synth/generator.h"
#include "synth/motivating_example.h"
#include "synth/stream_replay.h"

namespace fuser {
namespace {

std::vector<MethodSpec> FullLineup() {
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

std::vector<TripleId> AllTriples(size_t m) {
  std::vector<TripleId> ids(m);
  for (size_t t = 0; t < m; ++t) ids[t] = static_cast<TripleId>(t);
  return ids;
}

/// ScoreBatch over all triples must equal Run byte-for-byte, and Score
/// must agree with ScoreBatch, for every method of the lineup.
void ExpectServingMatchesRun(const Dataset& dataset, EngineOptions options) {
  for (size_t num_threads : {size_t{1}, size_t{2}, size_t{8}}) {
    options.num_threads = num_threads;
    FusionEngine engine(&dataset, options);
    ASSERT_TRUE(engine.Prepare(dataset.labeled_mask()).ok());
    const std::vector<MethodSpec> specs = FullLineup();
    auto snapshot = engine.PublishSnapshot(specs);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    FusionService service(&engine);
    const std::vector<TripleId> all = AllTriples(dataset.num_triples());
    for (const MethodSpec& spec : specs) {
      auto run = engine.Run(spec);
      ASSERT_TRUE(run.ok()) << spec.Name() << ": " << run.status();
      auto batch = service.ScoreBatch(**snapshot, spec, all);
      ASSERT_TRUE(batch.ok()) << spec.Name() << ": " << batch.status();
      ASSERT_EQ(batch->size(), run->scores.size()) << spec.Name();
      for (size_t t = 0; t < all.size(); ++t) {
        // Byte-identical, not approximately equal: the serving layer must
        // share the batch path's arithmetic exactly.
        ASSERT_EQ((*batch)[t], run->scores[t])
            << spec.Name() << " triple " << t << " threads " << num_threads;
      }
      for (TripleId t : {TripleId{0},
                         static_cast<TripleId>(dataset.num_triples() / 2),
                         static_cast<TripleId>(dataset.num_triples() - 1)}) {
        auto one = service.Score(**snapshot, spec, t);
        ASSERT_TRUE(one.ok()) << spec.Name();
        EXPECT_EQ(*one, (*batch)[t]) << spec.Name() << " triple " << t;
      }
    }
  }
}

TEST(FusionServiceTest, ScoreBatchMatchesRunEveryMethod) {
  SyntheticConfig config =
      MakeIndependentConfig(6, 1500, 0.4, 0.7, 0.4, /*seed=*/311);
  config.groups_true = {{{0, 1, 2}, 0.8}};
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  ExpectServingMatchesRun(*d, {});
}

TEST(FusionServiceTest, ScoreBatchMatchesRunWithScopes) {
  SyntheticConfig config =
      MakeIndependentConfig(6, 1200, 0.4, 0.7, 0.4, /*seed=*/313);
  config.num_domains = 5;
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  EngineOptions options;
  options.model.use_scopes = true;
  ExpectServingMatchesRun(*d, options);
}

TEST(FusionServiceTest, ScoreBatchMatchesRunWithClustering) {
  SyntheticConfig config =
      MakeIndependentConfig(8, 2000, 0.4, 0.7, 0.4, /*seed=*/317);
  config.groups_true = {{{0, 1}, 0.9}};
  config.groups_false = {{{2, 3}, 0.85}};
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  EngineOptions options;
  options.model.enable_clustering = true;
  options.model.clustering.correlation_threshold = 0.3;
  // Make sure the multi-cluster combine path is what we are exercising.
  FusionEngine probe(&*d, options);
  ASSERT_TRUE(probe.Prepare(d->labeled_mask()).ok());
  auto model = probe.GetModel();
  ASSERT_TRUE(model.ok());
  ASSERT_GT((*model)->clustering.clusters.size(), 1u);
  ExpectServingMatchesRun(*d, options);
}

TEST(FusionServiceTest, AdHocObservationMirrorsExistingTriple) {
  SyntheticConfig config =
      MakeIndependentConfig(6, 1000, 0.4, 0.7, 0.4, /*seed=*/331);
  config.num_domains = 4;
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  for (bool use_scopes : {false, true}) {
    EngineOptions options;
    options.model.use_scopes = use_scopes;
    FusionEngine engine(&*d, options);
    ASSERT_TRUE(engine.Prepare(d->labeled_mask()).ok());
    std::vector<MethodSpec> specs = {*ParseMethodSpec("precrec-corr"),
                                     *ParseMethodSpec("elastic-3")};
    auto snapshot = engine.PublishSnapshot(specs);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    FusionService service(&engine);
    for (const MethodSpec& spec : specs) {
      for (TripleId t = 0; t < d->num_triples();
           t += static_cast<TripleId>(d->num_triples() / 23 + 1)) {
        AdHocObservation obs;
        obs.providers = d->providers(t).ToVector();
        obs.in_scope = d->in_scope_sources(t).ToVector();
        auto adhoc = service.ScoreObservation(**snapshot, spec, obs);
        ASSERT_TRUE(adhoc.ok()) << spec.Name() << ": " << adhoc.status();
        auto direct = service.Score(**snapshot, spec, t);
        ASSERT_TRUE(direct.ok());
        // An observation that mirrors an existing triple routes through
        // the same table entries — exactly equal, not approximately.
        EXPECT_EQ(*adhoc, *direct)
            << spec.Name() << " triple " << t << " scopes " << use_scopes;
      }
    }
  }
}

/// A small hand-built dataset for the unseen-pattern test; with_extra adds
/// one *unlabeled* triple provided by exactly sources {0, 3} — a pattern
/// no other triple carries — without touching the training data.
Dataset MakeUnseenPatternDataset(bool with_extra, TripleId* extra) {
  Dataset d;
  for (int s = 0; s < 5; ++s) d.AddSource("S" + std::to_string(s));
  struct Row {
    bool is_true;
    unsigned providers;  // bit s = source s provides
  };
  const Row rows[] = {{true, 0b00111},  {true, 0b01110},  {false, 0b10001},
                      {true, 0b00110},  {false, 0b11000}, {true, 0b00011},
                      {false, 0b10010}, {true, 0b01111},  {false, 0b00101},
                      {true, 0b11111}};
  int i = 0;
  for (const Row& row : rows) {
    TripleId t = d.AddTriple({"s" + std::to_string(i), "p", "o"}, "");
    d.SetLabel(t, row.is_true);
    for (int s = 0; s < 5; ++s) {
      if ((row.providers >> s) & 1) d.Provide(static_cast<SourceId>(s), t);
    }
    ++i;
  }
  if (with_extra) {
    TripleId t = d.AddTriple({"unseen", "p", "o"}, "");
    d.Provide(0, t);
    d.Provide(3, t);
    if (extra != nullptr) *extra = t;
  }
  Status finalized = d.Finalize();
  EXPECT_TRUE(finalized.ok()) << finalized;
  return d;
}

TEST(FusionServiceTest, AdHocUnseenPatternMatchesDatasetWithThatTriple) {
  // Score an observation pattern the dataset has never seen, then verify
  // against ground truth: a dataset extended with an *unlabeled* triple
  // carrying exactly that pattern has the same model (training data is
  // unchanged), so a fresh engine's Run score for the new triple must
  // equal the ad-hoc answer from the original snapshot.
  Dataset d = MakeUnseenPatternDataset(/*with_extra=*/false, nullptr);
  FusionEngine engine(&d, {});
  ASSERT_TRUE(engine.Prepare(d.labeled_mask()).ok());
  const MethodSpec spec = *ParseMethodSpec("precrec-corr");
  auto snapshot = engine.PublishSnapshot({spec});
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  FusionService service(&engine);

  // Sources {0, 3} co-providing alone is genuinely unseen; assert that so
  // the test keeps exercising the unseen-pattern path.
  AdHocObservation obs;
  obs.providers = {0, 3};
  ASSERT_TRUE((*snapshot)->grouping != nullptr);
  const PatternGrouping& grouping = *(*snapshot)->grouping;
  ASSERT_EQ(grouping.num_clusters(), 1u);
  const Mask mask = WithBit(WithBit(Mask{0}, 0), 3);
  const Mask full = FullMask(5);
  ASSERT_EQ(grouping.index[0].count(PatternKey{mask, full & ~mask}), 0u);

  auto adhoc = service.ScoreObservation(**snapshot, spec, obs);
  ASSERT_TRUE(adhoc.ok()) << adhoc.status();
  EXPECT_GE(*adhoc, 0.0);
  EXPECT_LE(*adhoc, 1.0);

  TripleId extra = 0;
  Dataset extended = MakeUnseenPatternDataset(/*with_extra=*/true, &extra);
  FusionEngine fresh(&extended, {});
  ASSERT_TRUE(fresh.Prepare(extended.labeled_mask()).ok());
  auto run = fresh.Run(spec);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(*adhoc, run->scores[extra]);
}

TEST(FusionServiceTest, PinnedSnapshotStableAcrossPrepareAndUpdate) {
  // The GetModel/GetPatternGrouping dangling-pointer regression: pinning a
  // snapshot keeps the model, the grouping, and every score stable across
  // subsequent Prepare and Update calls.
  SyntheticConfig config =
      MakeIndependentConfig(6, 1200, 0.4, 0.7, 0.4, /*seed=*/337);
  auto final_or = GenerateSynthetic(config);
  ASSERT_TRUE(final_or.ok());
  const TripleId total = static_cast<TripleId>(final_or->num_triples());
  const TripleId prefix = total - total / 5;
  auto prefix_or = PrefixDataset(*final_or, prefix);
  ASSERT_TRUE(prefix_or.ok());
  Dataset ds = std::move(*prefix_or);

  FusionEngine engine(&ds, {});
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());
  std::vector<MethodSpec> specs = {*ParseMethodSpec("precrec-corr"),
                                   *ParseMethodSpec("union-50")};
  auto published = engine.PublishSnapshot(specs);
  ASSERT_TRUE(published.ok()) << published.status();
  std::shared_ptr<const FusionSnapshot> pinned = *published;
  FusionService service(&engine);

  const std::vector<TripleId> all = AllTriples(pinned->num_triples);
  std::vector<std::vector<double>> before;
  for (const MethodSpec& spec : specs) {
    auto scores = service.ScoreBatch(*pinned, spec, all);
    ASSERT_TRUE(scores.ok());
    before.push_back(std::move(*scores));
  }
  const CorrelationModel* pinned_model = pinned->model.get();
  const PatternGrouping* pinned_grouping = pinned->grouping.get();
  ASSERT_NE(pinned_model, nullptr);
  ASSERT_NE(pinned_grouping, nullptr);
  const double pinned_alpha = pinned_model->alpha;
  const size_t pinned_distinct = pinned_grouping->TotalDistinct();

  // Stream the suffix in a few batches, then re-Prepare on a shrunk
  // training mask — both invalidate/replace the engine's current state.
  const TripleId step = std::max<TripleId>(1, (total - prefix) / 3);
  for (TripleId lo = prefix; lo < total; lo += step) {
    const TripleId hi = std::min<TripleId>(lo + step, total);
    ASSERT_TRUE(engine.Update(BatchForRange(*final_or, lo, hi)).ok());
    ASSERT_TRUE(engine.PublishSnapshot(specs).ok());
  }
  DynamicBitset half = ds.labeled_mask();
  std::vector<size_t> labeled;
  half.ForEach([&](size_t t) { labeled.push_back(t); });
  for (size_t i = 0; i < labeled.size(); i += 2) half.Reset(labeled[i]);
  ASSERT_TRUE(engine.Prepare(half).ok());
  ASSERT_TRUE(engine.PublishSnapshot(specs).ok());

  // The pinned snapshot still answers with its original state.
  EXPECT_EQ(pinned->model.get(), pinned_model);
  EXPECT_EQ(pinned->grouping.get(), pinned_grouping);
  EXPECT_EQ(pinned_model->alpha, pinned_alpha);
  EXPECT_EQ(pinned_grouping->TotalDistinct(), pinned_distinct);
  for (size_t i = 0; i < specs.size(); ++i) {
    auto after = service.ScoreBatch(*pinned, specs[i], all);
    ASSERT_TRUE(after.ok()) << specs[i].Name();
    for (size_t t = 0; t < all.size(); ++t) {
      ASSERT_EQ((*after)[t], before[i][t]) << specs[i].Name() << " " << t;
    }
  }
  // While the latest snapshot has moved on to the full dataset.
  auto latest = service.Acquire();
  ASSERT_TRUE(latest.ok());
  EXPECT_GT((*latest)->num_triples, pinned->num_triples);
  EXPECT_GT((*latest)->id, pinned->id);
}

TEST(FusionServiceTest, PinnedSnapshotSurvivesASingletonSourceScopeGain) {
  // Clustering leaves most sources in clusters of one, whose grouping
  // columns are bitsets. An Update gives an existing triple a provider
  // from such a source, in a domain the source did not cover: with scopes
  // every triple of that domain changes pattern. The snapshot pinned
  // before the Update keeps its answers; the one published after it
  // equals a fresh engine's.
  for (bool use_scopes : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "scopes=" << use_scopes);
    SyntheticConfig config =
        MakeIndependentConfig(6, 1200, 0.4, 0.7, 0.4, /*seed=*/83);
    config.groups_true = {{{0, 1, 2}, 0.85}};
    config.num_domains = 300;  // ~4 triples each: sources miss domains
    auto generated = GenerateSynthetic(config);
    ASSERT_TRUE(generated.ok()) << generated.status();
    Dataset ds = std::move(*generated);
    // Training on every other labeled triple leaves room for a provide
    // outside the training set (the grouping is then updated in place).
    DynamicBitset train = ds.labeled_mask();
    std::vector<size_t> labeled;
    train.ForEach([&](size_t t) { labeled.push_back(t); });
    for (size_t i = 0; i < labeled.size(); i += 2) train.Reset(labeled[i]);

    EngineOptions options;
    options.model.enable_clustering = true;
    options.model.use_scopes = use_scopes;
    FusionEngine engine(&ds, options);
    ASSERT_TRUE(engine.Prepare(train).ok());
    const std::vector<MethodSpec> specs = {*ParseMethodSpec("precrec-corr"),
                                           *ParseMethodSpec("elastic-2")};
    auto published = engine.PublishSnapshot(specs);
    ASSERT_TRUE(published.ok()) << published.status();
    const std::shared_ptr<const FusionSnapshot> pinned = *published;

    size_t cluster = 0;
    SourceId source = 0;
    DomainId domain = 0;
    TripleId triple = kInvalidTriple;
    const CorrelationModel& model = *pinned->model;
    for (size_t c = 0; c < model.clustering.clusters.size(); ++c) {
      if (model.clustering.clusters[c].size() != 1) continue;
      cluster = c;
      ASSERT_TRUE(pinned->grouping->columns[c].singleton);
      source = model.clustering.clusters[c][0];
      for (domain = 0; domain < ds.num_domains(); ++domain) {
        if (ds.covers_domain(source, domain)) continue;
        for (TripleId t : ds.triples_in_domain(domain)) {
          if (!train.Test(t)) triple = t;
        }
        if (triple != kInvalidTriple) break;
      }
      if (triple != kInvalidTriple) break;
    }
    ASSERT_NE(triple, kInvalidTriple);

    FusionService service(&engine);
    const std::vector<TripleId> all = AllTriples(ds.num_triples());
    std::vector<std::vector<double>> before;
    for (const MethodSpec& spec : specs) {
      auto scores = service.ScoreBatch(*pinned, spec, all);
      ASSERT_TRUE(scores.ok()) << scores.status();
      before.push_back(std::move(*scores));
    }

    const TripleView view = ds.triple(triple);
    ObservationBatch batch;
    batch.observations.push_back(
        {std::string(ds.source_name(source)),
         Triple{std::string(view.subject), std::string(view.predicate),
                std::string(view.object)},
         std::string(ds.domain_name(domain))});
    ASSERT_TRUE(engine.Update(batch).ok());
    ASSERT_TRUE(ds.provides(source, triple));
    ASSERT_TRUE(ds.covers_domain(source, domain));
    auto after = engine.PublishSnapshot(specs);
    ASSERT_TRUE(after.ok()) << after.status();
    // Without scopes the batch leaves training alone, so the grouping was
    // updated copy-on-write rather than rebuilt; either way the triple's
    // pattern moved in the new grouping and not in the pinned one.
    if (!use_scopes) {
      EXPECT_EQ(engine.pattern_grouping_builds(), 1u);
    }
    const PatternGrouping& old_grouping = *pinned->grouping;
    const PatternGrouping& new_grouping = *(*after)->grouping;
    EXPECT_EQ(old_grouping.distinct[cluster][old_grouping.pattern_id(
                  cluster, triple)],
              (PatternKey{0, use_scopes ? Mask{0} : Mask{1}}));
    EXPECT_EQ(new_grouping.distinct[cluster][new_grouping.pattern_id(
                  cluster, triple)],
              (PatternKey{1, 0}));

    FusionEngine fresh(static_cast<const Dataset*>(&ds), options);
    ASSERT_TRUE(fresh.Prepare(train).ok());
    auto fresh_snapshot = fresh.PublishSnapshot(specs);
    ASSERT_TRUE(fresh_snapshot.ok()) << fresh_snapshot.status();
    for (size_t i = 0; i < specs.size(); ++i) {
      auto pinned_scores = service.ScoreBatch(*pinned, specs[i], all);
      auto after_scores = service.ScoreBatch(**after, specs[i], all);
      auto fresh_scores = service.ScoreBatch(**fresh_snapshot, specs[i], all);
      ASSERT_TRUE(pinned_scores.ok() && after_scores.ok() &&
                  fresh_scores.ok());
      for (size_t t = 0; t < all.size(); ++t) {
        ASSERT_EQ((*pinned_scores)[t], before[i][t])
            << specs[i].Name() << " " << t;
        ASSERT_EQ((*after_scores)[t], (*fresh_scores)[t])
            << specs[i].Name() << " " << t;
      }
      auto point = service.Score(*pinned, specs[i], triple);
      ASSERT_TRUE(point.ok());
      EXPECT_EQ(*point, before[i][triple]) << specs[i].Name();
    }
  }
}

TEST(FusionServiceTest, RepublishingUnchangedStateReusesEntries) {
  Dataset d = MakeMotivatingExample();
  FusionEngine engine(&d, {});
  ASSERT_TRUE(engine.Prepare(d.labeled_mask()).ok());
  std::vector<MethodSpec> specs = {*ParseMethodSpec("precrec-corr"),
                                   *ParseMethodSpec("ltm")};
  auto first = engine.PublishSnapshot(specs);
  ASSERT_TRUE(first.ok());
  auto second = engine.PublishSnapshot(specs);
  ASSERT_TRUE(second.ok());
  EXPECT_NE((*first)->id, (*second)->id);
  for (const MethodSpec& spec : specs) {
    // Entry objects are shared, not rebuilt, when nothing changed.
    EXPECT_EQ((*first)->FindServing(spec.Name()),
              (*second)->FindServing(spec.Name()))
        << spec.Name();
  }
}

TEST(FusionServiceTest, ErrorsAreDiagnosable) {
  Dataset d = MakeMotivatingExample();
  FusionEngine engine(&d, {});
  FusionService service(&engine);
  // Before Prepare: nothing published.
  EXPECT_EQ(service.Acquire().status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(engine.Prepare(d.labeled_mask()).ok());
  const MethodSpec corr = *ParseMethodSpec("precrec-corr");
  // Published, but the method is not materialized yet.
  auto bare = service.Acquire();
  ASSERT_TRUE(bare.ok()) << bare.status();
  EXPECT_EQ(service.Score(**bare, corr, 0).status().code(),
            StatusCode::kFailedPrecondition);

  auto snapshot = engine.PublishSnapshot({corr});
  ASSERT_TRUE(snapshot.ok());
  // Triple outside the snapshot's range.
  EXPECT_EQ(service
                .Score(**snapshot, corr,
                       static_cast<TripleId>(d.num_triples()))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Dense methods cannot score ad-hoc observations.
  auto union_snapshot = engine.PublishSnapshot({*ParseMethodSpec("union-50")});
  ASSERT_TRUE(union_snapshot.ok());
  AdHocObservation obs;
  obs.providers = {0};
  EXPECT_EQ(service
                .ScoreObservation(**union_snapshot,
                                  *ParseMethodSpec("union-50"), obs)
                .status()
                .code(),
            StatusCode::kUnimplemented);
  // Unknown source ids are rejected.
  auto corr_snapshot = engine.PublishSnapshot({corr});
  ASSERT_TRUE(corr_snapshot.ok());
  obs.providers = {static_cast<SourceId>(d.num_sources())};
  EXPECT_EQ(service.ScoreObservation(**corr_snapshot, corr, obs)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fuser
