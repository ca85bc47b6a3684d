// Byte-identity of the model build over the training view (TrainingView,
// ComputePairwiseCounts, CountClusterPatterns, BuildCorrelationModel and
// the sharded router's K-part build through it) against the full-corpus
// references in tests/support/model_reference.h: source quality, pairwise
// counts, clustering and every cluster's exported pattern lists, pattern
// order included, since snapshot bytes depend on that order.
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/correlation_model.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "shard/sharded_engine.h"
#include "support/model_reference.h"
#include "synth/generator.h"

namespace fuser {
namespace {

std::vector<SourceId> AllSources(const Dataset& d) {
  std::vector<SourceId> all(d.num_sources());
  std::iota(all.begin(), all.end(), SourceId{0});
  return all;
}

Dataset Corpus(size_t num_sources, size_t num_triples, size_t num_domains,
               uint64_t seed) {
  SyntheticConfig config = MakeIndependentConfig(
      num_sources, num_triples, /*fraction_true=*/0.4, /*precision=*/0.7,
      /*recall=*/0.4, seed);
  config.num_domains = num_domains;
  config.groups_true = {{{0, 1, 2}, 0.85}};
  config.groups_false = {{{3, 4, 5}, 0.8}};
  // Leave some triples unlabeled, so the train masks below can hold
  // triples the model must ignore.
  config.labeled_true = config.num_true * 3 / 4;
  config.labeled_false = config.num_false * 3 / 4;
  auto d = GenerateSynthetic(config);
  FUSER_CHECK(d.ok()) << d.status();
  return std::move(d).value();
}

/// Two train masks per corpus: every labeled triple, and a strict subset
/// of them plus some unlabeled triples (which must not count).
std::vector<DynamicBitset> TrainMasks(const Dataset& d) {
  DynamicBitset subset(d.num_triples());
  for (TripleId t = 0; t < d.num_triples(); ++t) {
    if (t % 3 != 0) subset.Set(t);
  }
  return {d.labeled_mask(), subset};
}

void ExpectSameQuality(const std::vector<SourceQuality>& got,
                       const std::vector<SourceQuality>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].provided_true, want[s].provided_true) << what << s;
    EXPECT_EQ(got[s].provided_labeled, want[s].provided_labeled) << what << s;
    EXPECT_EQ(got[s].scope_true, want[s].scope_true) << what << s;
    EXPECT_EQ(got[s].precision, want[s].precision) << what << s;
    EXPECT_EQ(got[s].recall, want[s].recall) << what << s;
    EXPECT_EQ(got[s].fpr, want[s].fpr) << what << s;
  }
}

void ExpectSameCounts(const PairwiseCounts& got, const PairwiseCounts& want,
                      const std::string& what) {
  EXPECT_EQ(got.sources, want.sources) << what;
  EXPECT_EQ(got.total_true, want.total_true) << what;
  EXPECT_EQ(got.true_count, want.true_count) << what;
  EXPECT_EQ(got.false_count, want.false_count) << what;
  EXPECT_EQ(got.joint_true, want.joint_true) << what;
  EXPECT_EQ(got.joint_false, want.joint_false) << what;
}

void ExpectSamePatterns(
    const std::vector<EmpiricalJointStatsState::PatternCount>& got,
    const std::vector<EmpiricalJointStatsState::PatternCount>& want,
    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].providers, want[i].providers) << what << " #" << i;
    EXPECT_EQ(got[i].scope, want[i].scope) << what << " #" << i;
    EXPECT_EQ(got[i].count, want[i].count) << what << " #" << i;
  }
}

void ExpectSameState(const EmpiricalJointStatsState& got,
                     const EmpiricalJointStatsState& want,
                     const std::string& what) {
  EXPECT_EQ(got.k, want.k) << what;
  EXPECT_EQ(got.options.alpha, want.options.alpha) << what;
  EXPECT_EQ(got.options.smoothing, want.options.smoothing) << what;
  EXPECT_EQ(got.options.use_scopes, want.options.use_scopes) << what;
  EXPECT_EQ(got.total_true, want.total_true) << what;
  EXPECT_EQ(got.total_false, want.total_false) << what;
  ExpectSamePatterns(got.true_patterns, want.true_patterns, what + " true");
  ExpectSamePatterns(got.false_patterns, want.false_patterns,
                     what + " false");
}

EmpiricalJointStatsState StateOf(const JointStatsProvider& stats) {
  const auto* empirical = dynamic_cast<const EmpiricalJointStats*>(&stats);
  FUSER_CHECK(empirical != nullptr);
  return empirical->ExportState();
}

void ExpectSameModel(const CorrelationModel& got, const CorrelationModel& want,
                     const std::string& what) {
  ExpectSameQuality(got.source_quality, want.source_quality,
                    what + " quality ");
  EXPECT_EQ(got.clustering.clusters, want.clustering.clusters) << what;
  EXPECT_EQ(got.clustering.cluster_of, want.clustering.cluster_of) << what;
  EXPECT_EQ(got.clustering.index_in_cluster,
            want.clustering.index_in_cluster)
      << what;
  EXPECT_EQ(got.alpha, want.alpha) << what;
  EXPECT_EQ(got.use_scopes, want.use_scopes) << what;
  ASSERT_EQ(got.cluster_stats.size(), want.cluster_stats.size()) << what;
  for (size_t c = 0; c < got.cluster_stats.size(); ++c) {
    ExpectSameState(StateOf(*got.cluster_stats[c]),
                    StateOf(*want.cluster_stats[c]),
                    what + " cluster " + std::to_string(c));
  }
}

/// Builds every step over the view at 1, 2 and 4 threads and compares it
/// with the reference.
void ExpectBuildMatchesReference(const Dataset& d, const DynamicBitset& train,
                                 const ModelOptions& options,
                                 const std::string& what) {
  auto want_model = ReferenceCorrelationModel(d, train, options);
  ASSERT_TRUE(want_model.ok()) << what << want_model.status();
  const PairwiseCounts want_counts =
      ReferencePairwiseCounts(d, train, AllSources(d));
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    const std::string at = what + " threads=" + std::to_string(threads);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    auto view = BuildTrainingView(d, train, threads, pool.get());
    ASSERT_TRUE(view.ok()) << at << view.status();
    auto quality = EstimateSourceQuality(d, train, options.ToQualityOptions());
    ASSERT_TRUE(quality.ok()) << at << quality.status();
    ExpectSameQuality(*quality, want_model->source_quality, at + " quality ");
    auto counts = ComputePairwiseCounts(*view, AllSources(d));
    ASSERT_TRUE(counts.ok()) << at << counts.status();
    ExpectSameCounts(*counts, want_counts, at + " pairwise");
    auto model = BuildCorrelationModel({{&d, &train}}, *quality, options,
                                       threads, pool.get());
    ASSERT_TRUE(model.ok()) << at << model.status();
    ExpectSameModel(*model, *want_model, at);
  }
}

TEST(ModelBuildTest, MatchesReferenceOverSeedsScopesAndClustering) {
  for (uint64_t seed : {1, 2, 3}) {
    // Seed 3 has 14 sources, so its one-cluster builds are the widest.
    const Dataset d = Corpus(seed == 3 ? 14 : 9, 1500, 7, seed);
    const std::vector<DynamicBitset> masks = TrainMasks(d);
    for (size_t m = 0; m < masks.size(); ++m) {
      for (bool scopes : {false, true}) {
        for (bool clustering : {false, true}) {
          ModelOptions options;
          options.use_scopes = scopes;
          options.enable_clustering = clustering;
          options.clustering.correlation_threshold = 0.1;
          ExpectBuildMatchesReference(
              d, masks[m], options,
              "seed=" + std::to_string(seed) + " mask=" + std::to_string(m) +
                  " scopes=" + std::to_string(scopes) +
                  " clustering=" + std::to_string(clustering));
        }
      }
    }
  }
}

TEST(ModelBuildTest, MatchesReferenceWithMoreThan64Sources) {
  const Dataset d = Corpus(70, 2500, 5, 17);
  for (bool scopes : {false, true}) {
    ModelOptions options;
    options.use_scopes = scopes;
    options.enable_clustering = true;
    options.clustering.max_cluster_size = 8;
    ExpectBuildMatchesReference(d, d.labeled_mask(), options,
                                "70 sources scopes=" + std::to_string(scopes));
  }
}

TEST(ModelBuildTest, MatchesReferenceWithZeroTrainingTriples) {
  const Dataset d = Corpus(6, 400, 3, 5);
  const DynamicBitset none(d.num_triples());
  for (bool scopes : {false, true}) {
    for (bool clustering : {false, true}) {
      ModelOptions options;
      options.use_scopes = scopes;
      options.enable_clustering = clustering;
      ExpectBuildMatchesReference(
          d, none, options,
          "empty scopes=" + std::to_string(scopes) +
              " clustering=" + std::to_string(clustering));
    }
  }
}

TEST(ModelBuildTest, MatchesReferenceWithASourceThatHasNoTrainingTriple) {
  // Source "late" provides only unlabeled triples of its own domain.
  Dataset d;
  std::vector<SourceId> sources;
  for (const char* name : {"a", "b", "c", "late"}) {
    sources.push_back(d.AddSource(name));
  }
  for (int i = 0; i < 40; ++i) {
    const std::string id = std::to_string(i);
    const TripleId t = d.AddTriple({"s" + id, "p", "o" + id},
                                   i % 2 == 0 ? "even" : "odd");
    for (int s = 0; s < 3; ++s) {
      if ((i + s) % 3 != 0) d.Provide(sources[static_cast<size_t>(s)], t);
    }
    d.SetLabel(t, i % 4 != 0);
  }
  for (int i = 0; i < 10; ++i) {
    const std::string id = std::to_string(i);
    const TripleId t = d.AddTriple({"late" + id, "p", "o"}, "late");
    d.Provide(sources[3], t);
    if (i % 2 == 0) d.Provide(sources[0], t);
  }
  ASSERT_TRUE(d.Finalize().ok());
  for (bool scopes : {false, true}) {
    for (bool clustering : {false, true}) {
      ModelOptions options;
      options.use_scopes = scopes;
      options.enable_clustering = clustering;
      ExpectBuildMatchesReference(
          d, d.labeled_mask(), options,
          "silent source scopes=" + std::to_string(scopes) +
              " clustering=" + std::to_string(clustering));
    }
  }
}

TEST(ModelBuildTest, EngineModelMatchesReference) {
  const Dataset d = Corpus(9, 1500, 7, 4);
  for (const DynamicBitset& train : TrainMasks(d)) {
    EngineOptions options;
    options.num_threads = 2;
    options.model.use_scopes = true;
    options.model.enable_clustering = true;
    options.model.clustering.correlation_threshold = 0.1;
    FusionEngine engine(&d, options);
    ASSERT_TRUE(engine.Prepare(train).ok());
    auto want = ReferenceCorrelationModel(d, train, options.model);
    ASSERT_TRUE(want.ok()) << want.status();
    ExpectSameQuality(engine.source_quality(), want->source_quality,
                      "engine quality ");
    auto model = engine.GetModel();
    ASSERT_TRUE(model.ok()) << model.status();
    ExpectSameModel(**model, *want, "engine");
  }
}

TEST(ModelBuildTest, SketchClusteringOverTwoPartsIsRejected) {
  const Dataset d = Corpus(9, 600, 4, 9);
  const DynamicBitset& train = d.labeled_mask();
  ModelOptions options;
  options.enable_clustering = true;
  options.clustering.use_sketch = true;
  auto quality = EstimateSourceQuality(d, train, options.ToQualityOptions());
  ASSERT_TRUE(quality.ok()) << quality.status();
  auto model =
      BuildCorrelationModel({{&d, &train}, {&d, &train}}, *quality, options);
  EXPECT_EQ(model.status().code(), StatusCode::kUnimplemented);
}

/// The router's model at K shards and `threads` workers against a
/// reference that merges what each shard's reference scan counts, in shard
/// order, as the router did before the view.
void ExpectRouterModelMatchesReference(const Dataset& d,
                                       const DynamicBitset& train,
                                       bool clustering, uint32_t num_shards,
                                       size_t threads) {
  const std::string what = "K=" + std::to_string(num_shards) +
                           " clustering=" + std::to_string(clustering) +
                           " threads=" + std::to_string(threads);
  EngineOptions options;
  options.num_threads = threads;
  options.model.use_scopes = true;
  options.model.enable_clustering = clustering;
  options.model.clustering.correlation_threshold = 0.1;
  auto engine =
      ShardedFusionEngine::Create(d, ShardingOptions{num_shards}, options);
  ASSERT_TRUE(engine.ok()) << what << engine.status();
  ASSERT_TRUE((*engine)->Prepare(train).ok()) << what;
  const MethodSpec spec{MethodKind::kPrecRecCorr};
  ASSERT_TRUE((*engine)->PublishSnapshot({spec}).ok()) << what;
  std::shared_ptr<const CorrelationModel> model =
      (*engine)->shard_engine(0)->CurrentSnapshot()->model;
  ASSERT_NE(model, nullptr) << what;

  const ShardedCorpus& corpus = (*engine)->corpus();
  auto want = ReferenceCorrelationModel(d, train, options.model);
  ASSERT_TRUE(want.ok()) << what << want.status();
  if (num_shards > 1) {
    std::vector<SourceId> all = AllSources(d);
    PairwiseCounts merged;
    for (size_t k = 0; k < num_shards; ++k) {
      PairwiseCounts counts = ReferencePairwiseCounts(
          corpus.shard(k), (*engine)->shard_engine(k)->train_mask(), all);
      if (k == 0) {
        merged = counts;
      } else {
        ASSERT_TRUE(MergePairwiseCounts(&merged, counts).ok());
      }
    }
    if (clustering) {
      auto pairs = PairwiseCorrelationsFromCounts(
          merged, options.model.ToJointStatsOptions());
      ASSERT_TRUE(pairs.ok());
      auto partition = ClusterSourcesFromPairs(d.num_sources(), *pairs,
                                               options.model.clustering);
      ASSERT_TRUE(partition.ok());
      want->clustering = *partition;
    }
    want->cluster_stats.clear();
    for (const auto& cluster : want->clustering.clusters) {
      std::vector<EmpiricalJointStatsState> states;
      for (size_t k = 0; k < num_shards; ++k) {
        states.push_back(ReferenceJointStatsState(
            corpus.shard(k), (*engine)->shard_engine(k)->train_mask(),
            cluster, options.model.ToJointStatsOptions()));
      }
      auto merged_state = MergeJointStatsStates(states);
      ASSERT_TRUE(merged_state.ok());
      auto stats = EmpiricalJointStats::FromState(*merged_state);
      ASSERT_TRUE(stats.ok());
      want->cluster_stats.push_back(std::move(stats).value());
    }
  }
  ExpectSameModel(*model, *want, what);
}

// At one thread the router has no pool; at 2 and 4 the K-part build runs
// its views and pattern counts on the router's pool.
TEST(ModelBuildTest, ShardedRouterModelMatchesReference) {
  const Dataset d = Corpus(9, 2000, 12, 8);
  for (const DynamicBitset& train : TrainMasks(d)) {
    for (bool clustering : {false, true}) {
      for (uint32_t num_shards : {1u, 2u, 4u}) {
        for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
          ExpectRouterModelMatchesReference(d, train, clustering, num_shards,
                                            threads);
        }
      }
    }
  }
}

}  // namespace
}  // namespace fuser
