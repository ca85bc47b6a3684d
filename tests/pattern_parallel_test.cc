// Tests for the word-parallel inference hot path: the 64x64 bit-matrix
// transpose primitive, chunked ParallelFor dispatch (+ cancellation +
// pool execution), byte-identity of the word-parallel BuildPatternGrouping
// against the retained scalar reference across ragged triple counts,
// scopes, clustering, thread counts and both numbering paths (direct map
// and hash), byte-identity of the lane-parallel dense gather against the
// per-triple reference combine and point queries, byte-identity of the
// threaded independent-source scorer (precrec, aggressive; one-row words
// and mixed-row words) against the per-triple reference loop,
// byte-identity of the batched ScoreAllPatterns path against per-query
// likelihood calls, byte-identity of end-to-end RunAll scores against
// the legacy (per-pattern scorer + reference combine) pipeline, and
// thread-count invariance of the table-less wide-cluster lookups.
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/aggressive.h"
#include "core/engine.h"
#include "core/pattern_pipeline.h"
#include "core/precrec.h"
#include "core/precrec_corr.h"
#include "core/quality.h"
#include "gtest/gtest.h"
#include "support/model_reference.h"
#include "support/pattern_oracles.h"
#include "synth/generator.h"
#include "synth/stream_replay.h"

namespace fuser {
namespace {

// ---------- Transpose primitive ----------

TEST(TransposeTest, MatchesNaiveBitTranspose) {
  Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    uint64_t m[64];
    for (auto& w : m) w = rng.NextUint64();
    uint64_t original[64];
    for (int i = 0; i < 64; ++i) original[i] = m[i];
    Transpose64x64(m);
    for (int i = 0; i < 64; ++i) {
      for (int j = 0; j < 64; ++j) {
        ASSERT_EQ((m[i] >> j) & 1, (original[j] >> i) & 1)
            << "round " << round << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(TransposeTest, TransposeIsAnInvolution) {
  Rng rng(11);
  uint64_t m[64];
  for (auto& w : m) w = rng.NextUint64();
  uint64_t original[64];
  for (int i = 0; i < 64; ++i) original[i] = m[i];
  Transpose64x64(m);
  Transpose64x64(m);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(m[i], original[i]);
}

TEST(TransposeTest, BitColumnsHandlesPartialRowCounts) {
  Rng rng(13);
  for (size_t k :
       {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{8}, size_t{64}}) {
    std::vector<uint64_t> rows(k);
    for (auto& w : rows) w = rng.NextUint64();
    uint64_t cols[64];
    TransposeBitColumns(rows.data(), k, cols);
    for (size_t j = 0; j < 64; ++j) {
      Mask expected = 0;
      for (size_t i = 0; i < k; ++i) {
        if ((rows[i] >> j) & 1) expected = WithBit(expected, static_cast<int>(i));
      }
      ASSERT_EQ(cols[j], expected) << "k=" << k << " j=" << j;
    }
  }
}

// ---------- Chunked ParallelFor ----------

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (size_t num_threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (size_t count : {size_t{1}, size_t{7}, size_t{64}, size_t{1000}}) {
      std::vector<std::atomic<int>> visits(count);
      for (auto& v : visits) v.store(0);
      ParallelFor(count, num_threads,
                  [&](size_t i) { visits[i].fetch_add(1); });
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "threads=" << num_threads;
      }
    }
  }
}

TEST(ParallelForTest, RunsOnPersistentPool) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(513);
  for (auto& v : visits) v.store(0);
  ParallelForOptions options;
  options.pool = &pool;
  ParallelFor(visits.size(), 4, [&](size_t i) { visits[i].fetch_add(1); },
              options);
  for (size_t i = 0; i < visits.size(); ++i) {
    ASSERT_EQ(visits[i].load(), 1);
  }
  // The pool survives and can run a second section (persistent workers).
  std::atomic<size_t> total{0};
  ParallelFor(100, 4, [&](size_t i) { total.fetch_add(i); }, options);
  EXPECT_EQ(total.load(), 4950u);
}

TEST(ParallelForTest, CancellationStopsSchedulingWork) {
  std::atomic<bool> cancel{false};
  std::atomic<size_t> processed{0};
  ParallelForOptions options;
  options.cancel = &cancel;
  // Cancel after the first item: with chunked dispatch the workers may
  // finish in-flight items, but most of the 100k-item range must be
  // skipped.
  ParallelFor(
      100000, 2,
      [&](size_t) {
        processed.fetch_add(1);
        cancel.store(true);
      },
      options);
  EXPECT_LT(processed.load(), 100000u);
  // Already-set cancellation skips the whole range.
  size_t before = processed.load();
  ParallelFor(
      100000, 2, [&](size_t) { processed.fetch_add(1); }, options);
  EXPECT_EQ(processed.load(), before);
}

// ---------- Word-parallel grouping vs scalar reference ----------

Dataset MakeDataset(size_t num_sources, size_t num_triples, size_t num_domains,
                    uint64_t seed) {
  SyntheticConfig config = MakeIndependentConfig(
      num_sources, num_triples, /*fraction_true=*/0.4, /*precision=*/0.7,
      /*recall=*/0.45, seed);
  config.num_domains = num_domains;
  auto dataset = GenerateSynthetic(config);
  EXPECT_TRUE(dataset.ok()) << dataset.status();
  return std::move(*dataset);
}

void ExpectGroupingsIdentical(const PatternGrouping& got,
                              const PatternGrouping& want) {
  ASSERT_EQ(got.num_triples, want.num_triples);
  ASSERT_EQ(got.num_clusters(), want.num_clusters());
  for (size_t c = 0; c < want.num_clusters(); ++c) {
    ASSERT_EQ(got.distinct[c].size(), want.distinct[c].size()) << "c=" << c;
    for (size_t i = 0; i < want.distinct[c].size(); ++i) {
      ASSERT_EQ(got.distinct[c][i].providers, want.distinct[c][i].providers);
      ASSERT_EQ(got.distinct[c][i].nonproviders,
                want.distinct[c][i].nonproviders);
    }
    ASSERT_EQ(got.index[c], want.index[c]) << "c=" << c;
  }
  ASSERT_TRUE(SamePatternIds(got, want));
}

TEST(WordParallelGroupingTest, ByteIdenticalToScalarReference) {
  ThreadPool pool(8);
  // Ragged triple counts (m % 64 != 0), tiny datasets, scopes on/off,
  // clustering on/off, thread counts 1/2/8, with and without a pool.
  for (size_t num_triples : {size_t{40}, size_t{130}, size_t{5000}}) {
    for (bool use_scopes : {false, true}) {
      for (bool clustering : {false, true}) {
        Dataset dataset = MakeDataset(/*num_sources=*/9, num_triples,
                                      /*num_domains=*/use_scopes ? 13 : 0,
                                      /*seed=*/num_triples + use_scopes);
        ModelOptions options;
        options.use_scopes = use_scopes;
        options.enable_clustering = clustering;
        auto model =
            BuildCorrelationModelOf(dataset, dataset.labeled_mask(), options);
        ASSERT_TRUE(model.ok()) << model.status();
        SCOPED_TRACE(::testing::Message()
                     << "m=" << dataset.num_triples()
                     << " scopes=" << use_scopes << " clustering="
                     << clustering);

        auto scalar = BuildPatternGroupingScalar(dataset, *model);
        ASSERT_TRUE(scalar.ok()) << scalar.status();
        for (size_t num_threads : {size_t{1}, size_t{2}, size_t{8}}) {
          auto word =
              BuildPatternGrouping(dataset, *model, num_threads, nullptr);
          ASSERT_TRUE(word.ok()) << word.status();
          ExpectGroupingsIdentical(*word, *scalar);
          auto pooled =
              BuildPatternGrouping(dataset, *model, num_threads, &pool);
          ASSERT_TRUE(pooled.ok()) << pooled.status();
          ExpectGroupingsIdentical(*pooled, *scalar);
        }
      }
    }
  }
}

/// Arbitrary per-pattern likelihoods for `grouping`, zeros included, so
/// the combine's short-circuit branches run too.
std::vector<std::vector<PatternLikelihood>> RandomLikelihoods(
    const PatternGrouping& grouping, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<PatternLikelihood>> likelihood(
      grouping.num_clusters());
  for (size_t c = 0; c < grouping.num_clusters(); ++c) {
    for (size_t i = 0; i < grouping.distinct[c].size(); ++i) {
      PatternLikelihood like;
      like.given_true = rng.NextBounded(9) == 0 ? 0.0 : rng.NextDouble();
      like.given_false = rng.NextBounded(9) == 0 ? 0.0 : rng.NextDouble();
      likelihood[c].push_back(like);
    }
  }
  return likelihood;
}

/// Asserts BuildPatternGrouping matches the scalar reference at 1-4 and 8
/// threads, with and without a persistent pool, and that combining
/// likelihoods over it matches the reference combine (through the
/// single-cluster gather kernel when the model has one cluster).
void ExpectWordParallelMatchesScalar(const Dataset& dataset,
                                     const CorrelationModel& model) {
  ThreadPool pool(8);
  auto scalar = BuildPatternGroupingScalar(dataset, model);
  ASSERT_TRUE(scalar.ok()) << scalar.status();
  const auto likelihood = RandomLikelihoods(*scalar, /*seed=*/17);
  const std::vector<double> want =
      CombinePatternScoresReference(*scalar, likelihood, /*alpha=*/0.4);
  for (size_t num_threads : {1, 2, 3, 4, 8}) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      auto word = BuildPatternGrouping(dataset, model, num_threads, p);
      ASSERT_TRUE(word.ok()) << word.status();
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << num_threads << " pool=" << (p != nullptr));
      ExpectGroupingsIdentical(*word, *scalar);
      ASSERT_EQ(CombinePatternScores(*word, likelihood, 0.4, num_threads, p),
                want);
    }
  }
}

/// A model over `num_sources` sources with the given hand-picked clusters
/// (any widths, empty ones included) and flat explicit statistics.
CorrelationModel MakeClusteredModel(
    size_t num_sources, const std::vector<std::vector<SourceId>>& clusters,
    bool use_scopes) {
  CorrelationModel model;
  model.alpha = 0.5;
  model.use_scopes = use_scopes;
  model.clustering.clusters = clusters;
  model.clustering.cluster_of.assign(num_sources, 0);
  model.clustering.index_in_cluster.assign(num_sources, 0);
  for (size_t c = 0; c < clusters.size(); ++c) {
    for (size_t i = 0; i < clusters[c].size(); ++i) {
      model.clustering.cluster_of[clusters[c][i]] = static_cast<int>(c);
      model.clustering.index_in_cluster[clusters[c][i]] = static_cast<int>(i);
    }
    model.cluster_stats.push_back(std::make_unique<ExplicitJointStats>(
        std::vector<JointQuality>(clusters[c].size(),
                                  JointQuality{0.7, 0.5, 0.1}),
        0.5));
  }
  return model;
}

TEST(WordParallelGroupingTest, HandlesEmptyAndSilentClusters) {
  // A real cluster, an empty cluster, and a singleton — the empty cluster
  // maps every triple to the all-zero pattern, the singleton keeps bits.
  for (bool use_scopes : {false, true}) {
    Dataset dataset = MakeDataset(/*num_sources=*/4, /*num_triples=*/100,
                                  /*num_domains=*/use_scopes ? 5 : 0,
                                  /*seed=*/3);
    CorrelationModel model =
        MakeClusteredModel(4, {{0, 1, 2}, {}, {3}}, use_scopes);
    SCOPED_TRACE(::testing::Message() << "scopes=" << use_scopes);
    auto scalar = BuildPatternGroupingScalar(dataset, model);
    ASSERT_TRUE(scalar.ok()) << scalar.status();
    ASSERT_EQ(scalar->distinct[1].size(), 1u);
    EXPECT_EQ(scalar->distinct[1][0].providers, 0u);
    EXPECT_EQ(scalar->distinct[1][0].nonproviders, 0u);
    auto word = BuildPatternGrouping(dataset, model);
    ASSERT_TRUE(word.ok()) << word.status();
    EXPECT_FALSE(word->columns[1].singleton);
    EXPECT_TRUE(word->columns[2].singleton);
    ExpectWordParallelMatchesScalar(dataset, model);
  }
}

TEST(WordParallelGroupingTest, OneSourceDatasetMatchesScalar) {
  // One source is one singleton cluster: the single-cluster posterior
  // table and gather kernel read its bit column.
  for (bool use_scopes : {false, true}) {
    for (size_t num_triples : {size_t{64}, size_t{3001}}) {
      Dataset dataset = MakeDataset(/*num_sources=*/1, num_triples,
                                    /*num_domains=*/use_scopes ? 7 : 0,
                                    /*seed=*/num_triples);
      ModelOptions options;
      options.use_scopes = use_scopes;
      auto model =
          BuildCorrelationModelOf(dataset, dataset.labeled_mask(), options);
      ASSERT_TRUE(model.ok()) << model.status();
      ASSERT_EQ(model->clustering.clusters.size(), 1u);
      SCOPED_TRACE(::testing::Message()
                   << "scopes=" << use_scopes << " m=" << num_triples);
      ExpectWordParallelMatchesScalar(dataset, *model);
    }
  }
}

TEST(WordParallelGroupingTest, WideScopedClusterTakesTheHashPath) {
  // One scoped 20-source cluster: 2^20 provider masks per scope is past
  // the direct-mapped table's size, so its patterns are hashed.
  Dataset dataset = MakeDataset(/*num_sources=*/20, /*num_triples=*/5000,
                                /*num_domains=*/13, /*seed=*/5);
  CorrelationModel model;
  model.alpha = 0.5;
  model.use_scopes = true;
  std::vector<SourceId> all(20);
  for (SourceId s = 0; s < 20; ++s) {
    all[s] = s;
    model.clustering.index_in_cluster.push_back(static_cast<int>(s));
  }
  model.clustering.clusters = {all};
  model.clustering.cluster_of.assign(20, 0);
  model.cluster_stats.push_back(std::make_unique<ExplicitJointStats>(
      std::vector<JointQuality>(20, JointQuality{0.7, 0.5, 0.1}), 0.5));
  ExpectWordParallelMatchesScalar(dataset, model);
}

/// Six sources over twelve domains whose scopes repeat with period 3, so
/// the domains share three distinct scope masks; triples interleave the
/// domains, and every domain's first triple is provided by its whole scope.
Dataset MakeSharedScopeDataset(size_t num_triples, uint64_t seed) {
  const std::vector<std::vector<SourceId>> scopes = {
      {0, 1, 2, 3}, {2, 3, 4, 5}, {0, 5}};
  constexpr size_t kDomains = 12;
  Dataset dataset;
  for (int s = 0; s < 6; ++s) dataset.AddSource("s" + std::to_string(s));
  Rng rng(seed);
  for (size_t i = 0; i < num_triples; ++i) {
    const size_t domain = (i * 7) % kDomains;
    const std::vector<SourceId>& scope = scopes[domain % scopes.size()];
    const std::string subject = "e" + std::to_string(i);
    const TripleId t = dataset.AddTriple({subject, "p", "o"},
                                         "d" + std::to_string(domain));
    bool provided = false;
    for (SourceId s : scope) {
      if (i < kDomains || rng.NextBounded(2) == 0) {
        dataset.Provide(s, t);
        provided = true;
      }
    }
    if (!provided) dataset.Provide(scope[0], t);
    if (i % 4 == 0) dataset.SetLabel(t, rng.NextBounded(2) == 0);
  }
  EXPECT_TRUE(dataset.Finalize().ok());
  return dataset;
}

TEST(WordParallelGroupingTest, DomainsSharingScopeMasksMatchScalar) {
  for (size_t num_triples : {size_t{100}, size_t{5000}}) {
    Dataset dataset = MakeSharedScopeDataset(num_triples, /*seed=*/9);
    for (bool clustering : {false, true}) {
      ModelOptions options;
      options.use_scopes = true;
      options.enable_clustering = clustering;
      auto model =
          BuildCorrelationModelOf(dataset, dataset.labeled_mask(), options);
      ASSERT_TRUE(model.ok()) << model.status();
      SCOPED_TRACE(::testing::Message() << "m=" << num_triples
                                        << " clustering=" << clustering);
      ExpectWordParallelMatchesScalar(dataset, *model);
    }
  }
}

TEST(WordParallelGroupingTest, UpdatedGroupingMatchesScalarOnGrownDataset) {
  // Grow a prefix by a small batch (the per-triple tail path) and then a
  // large one (the word-parallel tail path). The small batch also gives
  // singleton source 1 an existing triple of domain d7, a domain outside
  // its scope, which flips the scope bit of every d7 triple.
  const Dataset full = MakeSharedScopeDataset(/*num_triples=*/3000, 9);
  const TripleId prefix = 2000;
  const TripleId small_end = 2100;
  for (bool use_scopes : {false, true}) {
    const CorrelationModel model =
        MakeClusteredModel(6, {{0, 2, 3}, {1}, {4}, {5}}, use_scopes);
    for (size_t num_threads : {1, 2, 3, 4}) {
      SCOPED_TRACE(::testing::Message() << "scopes=" << use_scopes
                                        << " threads=" << num_threads);
      auto ds = PrefixDataset(full, prefix);
      ASSERT_TRUE(ds.ok()) << ds.status();
      auto grouping = BuildPatternGrouping(*ds, model, num_threads, nullptr);
      ASSERT_TRUE(grouping.ok()) << grouping.status();

      ObservationBatch small = BatchForRange(full, prefix, small_end);
      small.observations.push_back({"s1", Triple{"e1", "p", "o"}, "d7"});
      const DomainId d7 = ds->domain(1);
      ASSERT_FALSE(ds->covers_domain(1, d7));
      DatasetDelta delta;
      ASSERT_TRUE(ds->ApplyBatch(small, &delta).ok());
      std::vector<TripleId> changed;
      for (TripleId t : ds->triples_in_domain(d7)) {
        if (t < prefix) changed.push_back(t);
      }
      ASSERT_TRUE(UpdatePatternGrouping(*ds, model, changed, &*grouping).ok());
      ASSERT_TRUE(
          ds->ApplyBatch(BatchForRange(full, small_end, 3000), &delta).ok());
      ASSERT_TRUE(UpdatePatternGrouping(*ds, model, {}, &*grouping).ok());

      // Patterns are appended in update order, so ids may differ from a
      // fresh build's; each triple's pattern key may not.
      auto scalar = BuildPatternGroupingScalar(*ds, model);
      ASSERT_TRUE(scalar.ok()) << scalar.status();
      ASSERT_EQ(grouping->num_triples, scalar->num_triples);
      for (size_t c = 0; c < model.clustering.clusters.size(); ++c) {
        EXPECT_EQ(grouping->columns[c].singleton,
                  model.clustering.clusters[c].size() == 1);
        for (size_t t = 0; t < scalar->num_triples; ++t) {
          ASSERT_EQ(grouping->distinct[c][grouping->pattern_id(c, t)],
                    scalar->distinct[c][scalar->pattern_id(c, t)])
              << "c=" << c << " t=" << t;
        }
      }
    }
  }
}

// ---------- Lane-parallel gather vs the per-triple combine ----------

/// True when `got` and `want` hold the same doubles, bit for bit.
::testing::AssertionResult SameBytes(const std::vector<double>& got,
                                     const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "sizes " << got.size() << " vs "
                                         << want.size();
  }
  for (size_t t = 0; t < got.size(); ++t) {
    if (std::memcmp(&got[t], &want[t], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "triple " << t << ": " << got[t] << " vs " << want[t];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Likelihoods for `grouping` whose flags follow `scheme`: 0 none; 1, 2 and
/// 3 give one pattern per cluster a zero given_true, given_false or both;
/// 4 mixes the three across clusters (cluster c's kind is c % 3 + 1). Every
/// other pattern gets distinct positive values, so a triple may meet no
/// flag, one kind, or both kinds from two clusters.
std::vector<std::vector<PatternLikelihood>> FlaggedLikelihoods(
    const PatternGrouping& grouping, int scheme) {
  std::vector<std::vector<PatternLikelihood>> likelihood(
      grouping.num_clusters());
  for (size_t c = 0; c < grouping.num_clusters(); ++c) {
    const size_t num_patterns = grouping.distinct[c].size();
    const int kind = scheme == 4 ? static_cast<int>(c % 3) + 1 : scheme;
    for (size_t i = 0; i < num_patterns; ++i) {
      PatternLikelihood like{0.05 + 0.9 * static_cast<double>(i + 1) /
                                        static_cast<double>(num_patterns + 1),
                             0.9 - 0.07 * static_cast<double>(c % 5 + i % 3)};
      if (i == c % num_patterns) {
        if (kind & 1) like.given_true = 0.0;
        if (kind & 2) like.given_false = 0.0;
      }
      likelihood[c].push_back(like);
    }
  }
  return likelihood;
}

TEST(GatherPatternScoresTest, LanePathsMatchReferenceAndPointQueries) {
  // Two multi-source clusters (id columns) among three one-source ones
  // (bit columns), scopes on and off, m % 64 != 0 and m % 1024 != 0, and
  // every flag combination. The dense gather must equal the per-triple
  // reference combine and each triple's point query, byte for byte.
  ThreadPool pool(4);
  for (bool use_scopes : {false, true}) {
    for (size_t num_triples : {size_t{1000}, size_t{3001}}) {
      Dataset dataset = MakeDataset(/*num_sources=*/7, num_triples,
                                    /*num_domains=*/use_scopes ? 5 : 0,
                                    /*seed=*/num_triples + use_scopes);
      const CorrelationModel model = MakeClusteredModel(
          7, {{0, 1}, {2}, {3}, {4, 5}, {6}}, use_scopes);
      auto grouping = BuildPatternGrouping(dataset, model);
      ASSERT_TRUE(grouping.ok()) << grouping.status();
      ASSERT_NE(grouping->num_triples % 64, 0u);
      ASSERT_TRUE(grouping->columns[1].singleton);
      ASSERT_FALSE(grouping->columns[3].singleton);
      for (int scheme = 0; scheme <= 4; ++scheme) {
        SCOPED_TRACE(::testing::Message() << "scopes=" << use_scopes
                                          << " m=" << num_triples
                                          << " scheme=" << scheme);
        const auto likelihood = FlaggedLikelihoods(*grouping, scheme);
        const std::vector<double> want =
            CombinePatternScoresReference(*grouping, likelihood, 0.3);
        const PatternPosteriorTable table =
            BuildPatternPosteriorTable(likelihood, 0.3);
        std::vector<double> point(grouping->num_triples);
        for (size_t t = 0; t < point.size(); ++t) {
          point[t] = ScoreTripleFromTable(*grouping, table,
                                          static_cast<TripleId>(t));
        }
        ASSERT_TRUE(SameBytes(point, want));
        for (size_t num_threads : {size_t{1}, size_t{2}, size_t{4}}) {
          SCOPED_TRACE(::testing::Message() << "threads=" << num_threads);
          ASSERT_TRUE(SameBytes(
              GatherPatternScores(*grouping, table, num_threads, nullptr),
              want));
          ASSERT_TRUE(SameBytes(
              GatherPatternScores(*grouping, table, num_threads, &pool),
              want));
        }
      }
    }
  }
}

// ---------- Independent-source scorer vs the per-triple loop ----------

/// Asserts PrecRecScores and AggressiveScores match their per-triple
/// references at 1, 2, 4 and 8 threads, with and without a pool.
void ExpectIndependentScoresMatchReference(const Dataset& dataset,
                                           bool use_scopes) {
  ThreadPool pool(8);
  QualityOptions quality_options;
  quality_options.use_scopes = use_scopes;
  auto quality = EstimateSourceQuality(dataset, dataset.labeled_mask(),
                                       quality_options);
  ASSERT_TRUE(quality.ok()) << quality.status();
  ModelOptions model_options;
  model_options.use_scopes = use_scopes;
  model_options.enable_clustering = true;
  auto model = BuildCorrelationModelOf(dataset, dataset.labeled_mask(),
                                       model_options);
  ASSERT_TRUE(model.ok()) << model.status();
  PrecRecOptions options;
  options.use_scopes = use_scopes;
  auto want_precrec = PrecRecScoresReference(dataset, *quality, options);
  ASSERT_TRUE(want_precrec.ok()) << want_precrec.status();
  auto want_aggressive = AggressiveScoresReference(dataset, *model);
  ASSERT_TRUE(want_aggressive.ok()) << want_aggressive.status();
  for (size_t num_threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << num_threads
                                        << " pool=" << (p != nullptr));
      auto precrec = PrecRecScores(dataset, *quality, options, num_threads, p);
      ASSERT_TRUE(precrec.ok()) << precrec.status();
      ASSERT_TRUE(SameBytes(*precrec, *want_precrec));
      auto aggressive = AggressiveScores(dataset, *model, num_threads, p);
      ASSERT_TRUE(aggressive.ok()) << aggressive.status();
      ASSERT_TRUE(SameBytes(*aggressive, *want_aggressive));
    }
  }
}

/// Eight sources over four domains in runs of `run` triples; domains 0 and
/// 2 share one scope row, 1 and 3 another. A word inside a run has one row
/// (the lane path), a word across a run boundary two (the transposed path).
Dataset MakeDomainRunDataset(size_t num_triples, size_t run, uint64_t seed) {
  const std::vector<std::vector<SourceId>> scopes = {{0, 1, 2, 5, 7},
                                                    {1, 3, 4, 5, 6}};
  Dataset dataset;
  for (int s = 0; s < 8; ++s) dataset.AddSource("s" + std::to_string(s));
  Rng rng(seed);
  for (size_t i = 0; i < num_triples; ++i) {
    const size_t domain = (i / run) % 4;
    const std::vector<SourceId>& scope = scopes[domain % 2];
    const TripleId t = dataset.AddTriple({"e" + std::to_string(i), "p", "o"},
                                         "d" + std::to_string(domain));
    // Each domain's first run has every scope source provide a triple, so
    // every domain's row is its whole scope.
    bool provided = false;
    for (SourceId s : scope) {
      if (i < 4 * run || rng.NextBounded(3) == 0) {
        dataset.Provide(s, t);
        provided = true;
      }
    }
    if (!provided) dataset.Provide(scope[0], t);
    if (i % 3 == 0) dataset.SetLabel(t, rng.NextBounded(2) == 0);
  }
  EXPECT_TRUE(dataset.Finalize().ok());
  return dataset;
}

TEST(IndependentSourceScoresTest, RowClassLanesMatchReferenceLoop) {
  // One row for every domain, and a ragged final word.
  {
    SCOPED_TRACE("one row");
    Dataset dataset = MakeDataset(/*num_sources=*/9, /*num_triples=*/5000,
                                  /*num_domains=*/13, /*seed=*/23);
    ASSERT_NE(dataset.num_triples() % 64, 0u);
    const auto& rows = dataset.domain_sources_table();
    for (DomainId d = 0; d < dataset.num_domains(); ++d) {
      ASSERT_EQ(rows.row(d), rows.row(0)) << "domain " << d;
    }
    ExpectIndependentScoresMatchReference(dataset, /*use_scopes=*/true);
  }
  // Rows differ inside every word: the period-3 shared-scope domains
  // interleave triple by triple.
  for (size_t num_triples : {size_t{100}, size_t{5000}}) {
    SCOPED_TRACE(::testing::Message() << "interleaved m=" << num_triples);
    ExpectIndependentScoresMatchReference(
        MakeSharedScopeDataset(num_triples, /*seed=*/9), /*use_scopes=*/true);
  }
  // Runs of one row with mixed words at the run boundaries, and a ragged
  // final word (4100 % 64 == 4).
  for (size_t run : {size_t{64}, size_t{150}}) {
    SCOPED_TRACE(::testing::Message() << "runs of " << run);
    const Dataset dataset = MakeDomainRunDataset(4100, run, /*seed=*/31);
    ASSERT_EQ(dataset.num_domains(), 4u);
    ASSERT_EQ(dataset.domain_sources_table().row(0),
              dataset.domain_sources_table().row(2));
    ASSERT_NE(dataset.domain_sources_table().row(0),
              dataset.domain_sources_table().row(1));
    ExpectIndependentScoresMatchReference(dataset, /*use_scopes=*/true);
  }
}

TEST(IndependentSourceScoresTest, PrecRecAndAggressiveMatchReferenceLoop) {
  // 70 sources use a second 64-source group; no triple count is a multiple
  // of 64, and 5000 spans more than one scoring block.
  for (size_t num_sources : {size_t{9}, size_t{70}}) {
    for (size_t num_triples : {size_t{130}, size_t{5000}}) {
      for (bool use_scopes : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << num_sources << " m=" << num_triples
                     << " scopes=" << use_scopes);
        ExpectIndependentScoresMatchReference(
            MakeDataset(num_sources, num_triples,
                        /*num_domains=*/use_scopes ? 13 : 0,
                        /*seed=*/num_sources + num_triples),
            use_scopes);
      }
    }
  }
}

TEST(IndependentSourceScoresTest, EngineRunsBothMethodsThreaded) {
  for (MethodKind kind : {MethodKind::kPrecRec, MethodKind::kAggressive}) {
    const MethodInfo* method = FindMethod(kind);
    ASSERT_NE(method, nullptr);
    EXPECT_TRUE(method->supports_threads) << method->id;
  }
  Dataset dataset = MakeDataset(/*num_sources=*/9, /*num_triples=*/3000,
                                /*num_domains=*/7, /*seed=*/61);
  std::vector<std::vector<double>> scores;
  for (size_t num_threads : {size_t{1}, size_t{8}}) {
    EngineOptions options;
    options.model.use_scopes = true;
    options.model.enable_clustering = true;
    options.num_threads = num_threads;
    FusionEngine engine(&dataset, options);
    ASSERT_TRUE(engine.Prepare(dataset.labeled_mask()).ok());
    auto runs =
        engine.RunAll({{MethodKind::kPrecRec}, {MethodKind::kAggressive}});
    ASSERT_TRUE(runs.ok()) << runs.status();
    scores.push_back((*runs)[0].scores);
    scores.push_back((*runs)[1].scores);
  }
  EXPECT_EQ(scores[0], scores[2]);
  EXPECT_EQ(scores[1], scores[3]);
}

// ---------- Batched likelihoods vs per-query ----------

TEST(ScoreAllPatternsTest, ByteIdenticalToPerQueryLikelihoods) {
  for (bool use_scopes : {false, true}) {
    Dataset dataset = MakeDataset(/*num_sources=*/6, /*num_triples=*/400,
                                  /*num_domains=*/use_scopes ? 11 : 0,
                                  /*seed=*/17 + use_scopes);
    std::vector<SourceId> all(dataset.num_sources());
    for (SourceId s = 0; s < dataset.num_sources(); ++s) all[s] = s;
    JointStatsOptions options;
    options.use_scopes = use_scopes;
    auto stats = EmpiricalJointStats::Create(dataset, dataset.labeled_mask(),
                                             all, options);
    ASSERT_TRUE(stats.ok()) << stats.status();

    // Every disjoint (providers, nonproviders) pair over 6 sources.
    std::vector<PatternQuery> queries;
    const Mask full = FullMask(6);
    for (Mask prov = 0; prov <= full; ++prov) {
      ForEachSubmask(full & ~prov, [&](Mask nonprov) {
        queries.push_back({prov, nonprov});
      });
    }
    for (bool calibrated : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "scopes=" << use_scopes
                                        << " calibrated=" << calibrated);
      std::vector<std::pair<double, double>> batched;
      ASSERT_TRUE(
          (*stats)->ScoreAllPatterns(queries, calibrated, &batched).ok());
      ASSERT_EQ(batched.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        double pt = 0.0;
        double pf = 0.0;
        Status s = (*stats)->DirectPatternLikelihood(
            queries[i].providers, queries[i].nonproviders, calibrated, &pt,
            &pf);
        ASSERT_TRUE(s.ok()) << s;
        ASSERT_EQ(batched[i].first, pt) << "query " << i;
        ASSERT_EQ(batched[i].second, pf) << "query " << i;
      }
    }
  }
}

TEST(ScoreAllPatternsTest, RejectsOverlappingMasks) {
  Dataset dataset = MakeDataset(4, 50, 0, 23);
  std::vector<SourceId> all = {0, 1, 2, 3};
  auto stats = EmpiricalJointStats::Create(dataset, dataset.labeled_mask(),
                                           all, {});
  ASSERT_TRUE(stats.ok());
  std::vector<std::pair<double, double>> out;
  EXPECT_EQ((*stats)
                ->ScoreAllPatterns({{0x3, 0x1}}, /*calibrated=*/true, &out)
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------- End-to-end byte-identity ----------

/// The pre-optimization scoring pipeline, composed from the retained
/// reference pieces: scalar grouping, one DirectPatternLikelihood call per
/// distinct pattern (no batching), serial reference combine. This is what
/// precrec-corr's scoring did before the word-parallel hot path landed.
std::vector<double> LegacyCorrScores(const Dataset& dataset,
                                     const CorrelationModel& model) {
  auto grouping = BuildPatternGroupingScalar(dataset, model);
  EXPECT_TRUE(grouping.ok()) << grouping.status();
  auto scorer = [&](size_t c, const PatternKey& key, double* given_true,
                    double* given_false) -> Status {
    return model.cluster_stats[c]->DirectPatternLikelihood(
        key.providers, key.nonproviders, /*calibrated=*/true, given_true,
        given_false);
  };
  auto likelihood =
      ScorePatterns(grouping->distinct, /*num_threads=*/1, scorer);
  EXPECT_TRUE(likelihood.ok()) << likelihood.status();
  const double alpha = model.cluster_stats[0]->EmpiricalPriorTrue();
  return CombinePatternScoresReference(*grouping, *likelihood, alpha);
}

TEST(EndToEndByteIdentityTest, RunAllMatchesLegacyPipelineAtEveryThreadCount) {
  for (bool use_scopes : {false, true}) {
    Dataset dataset = MakeDataset(/*num_sources=*/8, /*num_triples=*/3000,
                                  /*num_domains=*/use_scopes ? 9 : 0,
                                  /*seed=*/31 + use_scopes);
    std::vector<std::vector<double>> per_thread_scores;
    std::vector<std::vector<double>> per_thread_elastic;
    for (size_t num_threads : {size_t{1}, size_t{2}, size_t{8}}) {
      EngineOptions options;
      options.model.use_scopes = use_scopes;
      options.num_threads = num_threads;
      FusionEngine engine(&dataset, options);
      ASSERT_TRUE(engine.Prepare(dataset.labeled_mask()).ok());
      auto runs = engine.RunAll(
          {{MethodKind::kPrecRecCorr}, {MethodKind::kElastic, 50.0, 2}});
      ASSERT_TRUE(runs.ok()) << runs.status();
      per_thread_scores.push_back((*runs)[0].scores);
      per_thread_elastic.push_back((*runs)[1].scores);

      const CorrelationModel* model = *engine.GetModel();
      std::vector<double> legacy = LegacyCorrScores(dataset, *model);
      ASSERT_EQ((*runs)[0].scores, legacy)
          << "threads=" << num_threads << " scopes=" << use_scopes;
    }
    // Identical across thread counts, for both the batched (precrec-corr)
    // and the per-pattern (elastic) scoring paths.
    for (size_t i = 1; i < per_thread_scores.size(); ++i) {
      ASSERT_EQ(per_thread_scores[i], per_thread_scores[0]);
      ASSERT_EQ(per_thread_elastic[i], per_thread_elastic[0]);
    }
  }
}

TEST(EndToEndByteIdentityTest, WideClusterScanPathIsThreadCountInvariant) {
  // 24 sources in one cluster exceed kSosTableMaxBits: every joint lookup
  // of the Get-based methods scans the pattern lists, from every worker.
  constexpr size_t kSources = 24;
  static_assert(kSources > kSosTableMaxBits);
  Dataset dataset = MakeDataset(kSources, /*num_triples=*/1000,
                                /*num_domains=*/0, /*seed=*/41);
  std::vector<std::vector<FusionRun>> runs;
  for (size_t num_threads : {size_t{1}, size_t{8}}) {
    EngineOptions options;
    options.num_threads = num_threads;
    FusionEngine engine(&dataset, options);
    ASSERT_TRUE(engine.Prepare(dataset.labeled_mask()).ok());
    ASSERT_EQ((*engine.GetModel())->clustering.clusters.size(), 1u);
    auto run = engine.RunAll(
        {{MethodKind::kElastic, 50.0, 2}, {MethodKind::kAggressive}});
    ASSERT_TRUE(run.ok()) << run.status();
    runs.push_back(std::move(*run));
  }
  for (size_t m = 0; m < runs[0].size(); ++m) {
    ASSERT_EQ(runs[1][m].scores, runs[0][m].scores) << runs[0][m].spec.Name();
  }
}

TEST(EndToEndByteIdentityTest, ScorePatternsPropagatesFirstError) {
  Dataset dataset = MakeDataset(4, 200, 0, 43);
  ModelOptions options;
  auto model =
      BuildCorrelationModelOf(dataset, dataset.labeled_mask(), options);
  ASSERT_TRUE(model.ok());
  auto grouping = BuildPatternGrouping(dataset, *model);
  ASSERT_TRUE(grouping.ok());
  std::atomic<size_t> calls{0};
  auto scorer = [&](size_t, const PatternKey&, double*, double*) -> Status {
    calls.fetch_add(1);
    return Status::Internal("boom");
  };
  auto result = ScorePatterns(grouping->distinct, /*num_threads=*/4, scorer);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  // Cancellation kicked in: nowhere near all patterns were scored... the
  // grouping is small, so just assert the call count never exceeded the
  // total pattern count (every worker stopped claiming after the error).
  EXPECT_LE(calls.load(), grouping->TotalDistinct());
}

}  // namespace
}  // namespace fuser
