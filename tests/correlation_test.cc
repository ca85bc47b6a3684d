// Tests for correlation factors, pairwise correlation discovery, and
// source clustering.
#include "core/correlation.h"

#include "core/clustering.h"
#include "gtest/gtest.h"
#include "support/correlation_factors.h"
#include "support/model_reference.h"
#include "synth/generator.h"
#include "synth/motivating_example.h"

namespace fuser {
namespace {

std::vector<SourceId> AllSources(const Dataset& d) {
  std::vector<SourceId> all(d.num_sources());
  for (SourceId s = 0; s < d.num_sources(); ++s) all[s] = s;
  return all;
}

TEST(CorrelationFactorsTest, SingletonsAndEmptyAreNeutral) {
  Dataset d = MakeMotivatingExample();
  auto stats =
      EmpiricalJointStats::Create(d, d.labeled_mask(), AllSources(d), {});
  ASSERT_TRUE(stats.ok());
  for (int i = 0; i < 5; ++i) {
    CorrelationFactors f = ComputeCorrelationFactors(**stats, Mask{1} << i);
    EXPECT_DOUBLE_EQ(f.on_true, 1.0);
    EXPECT_DOUBLE_EQ(f.on_false, 1.0);
  }
  CorrelationFactors empty = ComputeCorrelationFactors(**stats, 0);
  EXPECT_DOUBLE_EQ(empty.on_true, 1.0);
}

TEST(CorrelationFactorsTest, ReplicasHaveMaximalFactor) {
  // Two replicas with recall r: joint recall = r, so C = 1/r > 1.
  Dataset d;
  d.AddSource("a");
  d.AddSource("b");
  d.AddSource("c");
  for (int i = 0; i < 12; ++i) {
    TripleId t = d.AddTriple({"e" + std::to_string(i), "a", "v"});
    d.SetLabel(t, i < 6);
    if (i < 3 || (i >= 6 && i < 8)) {  // a,b replicate on 3 true, 2 false
      d.Provide(0, t);
      d.Provide(1, t);
    }
    if (i % 2 == 0) d.Provide(2, t);
  }
  ASSERT_TRUE(d.Finalize().ok());
  auto stats =
      EmpiricalJointStats::Create(d, d.labeled_mask(), AllSources(d), {});
  ASSERT_TRUE(stats.ok());
  CorrelationFactors ab = ComputeCorrelationFactors(**stats, 0b011);
  // r_a = r_b = r_ab = 0.5 -> C = 2.
  EXPECT_NEAR(ab.on_true, 2.0, 1e-9);
}

TEST(PairwiseCorrelationTest, DetectsInjectedStructure) {
  SyntheticConfig config =
      MakeIndependentConfig(6, 2000, 0.4, 0.7, 0.4, /*seed=*/17);
  config.groups_true = {{{0, 1}, 0.9}};   // strong positive on true
  config.groups_false = {{{2, 3}, 0.9}};  // strong positive on false
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  auto pairs = ComputePairwiseCorrelations(*d, d->labeled_mask(),
                                           AllSources(*d), {});
  ASSERT_TRUE(pairs.ok());
  double c01_true = 0.0;
  double c23_false = 0.0;
  double c45_true = 0.0;
  for (const PairwiseCorrelation& pc : *pairs) {
    if (pc.a == 0 && pc.b == 1) c01_true = pc.factors.on_true;
    if (pc.a == 2 && pc.b == 3) c23_false = pc.factors.on_false;
    if (pc.a == 4 && pc.b == 5) c45_true = pc.factors.on_true;
  }
  EXPECT_GT(c01_true, 1.3) << "injected true-correlation must be visible";
  EXPECT_GT(c23_false, 1.3) << "injected false-correlation must be visible";
  EXPECT_NEAR(c45_true, 1.0, 0.25) << "independent pair stays near 1";
}

TEST(PairwiseCorrelationTest, DetectsAntiCorrelation) {
  SyntheticConfig config =
      MakeIndependentConfig(4, 2000, 0.5, 0.7, 0.4, /*seed=*/23);
  // Sources 0 and 1 cover complementary halves of the true universe.
  config.true_partition_fractions = {0.5, 0.5};
  config.sources[0].true_partition = 0;
  config.sources[1].true_partition = 1;
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  auto pairs = ComputePairwiseCorrelations(*d, d->labeled_mask(),
                                           AllSources(*d), {});
  ASSERT_TRUE(pairs.ok());
  for (const PairwiseCorrelation& pc : *pairs) {
    if (pc.a == 0 && pc.b == 1) {
      EXPECT_NEAR(pc.factors.on_true, 0.0, 0.05)
          << "complementary sources never overlap on true triples";
    }
  }
}

TEST(PairwiseCorrelationTest, CountsPathIsBitIdenticalToBitsetReference) {
  // ComputePairwiseCorrelations runs ComputePairwiseCounts over the
  // training view and PairwiseCorrelationsFromCounts; the reference
  // AND-counts copied per-source class bitsets of the whole corpus.
  for (uint64_t seed : {3, 19, 77}) {
    SyntheticConfig config =
        MakeIndependentConfig(9, 1500, 0.4, 0.7, 0.4, seed);
    config.groups_true = {{{0, 1, 2}, 0.85}};
    config.groups_false = {{{3, 4}, 0.8}};
    config.labeled_true = 400;
    config.labeled_false = 600;
    auto d = GenerateSynthetic(config);
    ASSERT_TRUE(d.ok()) << d.status();
    DynamicBitset subset(d->num_triples());
    for (TripleId t = 0; t < d->num_triples(); t += 2) subset.Set(t);
    QualityOptions smoothed;
    smoothed.alpha = 0.3;
    smoothed.smoothing = 0.5;
    for (const DynamicBitset& train :
         std::vector<DynamicBitset>{d->labeled_mask(), subset}) {
      for (const std::vector<SourceId>& sources :
           {AllSources(*d), std::vector<SourceId>{7, 2, 5}}) {
        for (const QualityOptions& options : {QualityOptions{}, smoothed}) {
          auto got =
              ComputePairwiseCorrelations(*d, train, sources, options);
          auto want =
              ReferencePairwiseCorrelations(*d, train, sources, options);
          ASSERT_TRUE(got.ok()) << got.status();
          ASSERT_TRUE(want.ok()) << want.status();
          ASSERT_EQ(got->size(), want->size());
          for (size_t i = 0; i < got->size(); ++i) {
            const PairwiseCorrelation& g = (*got)[i];
            const PairwiseCorrelation& w = (*want)[i];
            EXPECT_EQ(g.a, w.a);
            EXPECT_EQ(g.b, w.b);
            EXPECT_EQ(g.factors.on_true, w.factors.on_true);
            EXPECT_EQ(g.factors.on_false, w.factors.on_false);
            EXPECT_EQ(g.support, w.support);
            EXPECT_EQ(g.joint_true_count, w.joint_true_count);
            EXPECT_EQ(g.joint_false_count, w.joint_false_count);
            EXPECT_EQ(g.indep_true_count, w.indep_true_count);
            EXPECT_EQ(g.indep_false_count, w.indep_false_count);
            EXPECT_EQ(g.estimated, w.estimated);
          }
        }
      }
    }
  }
}

TEST(PairwiseCorrelationTest, EmptyLabeledMaskYieldsNeutralFactors) {
  // No training evidence at all: every factor is the neutral 1.0 and
  // support is 0 (the contract downstream screens rely on).
  SyntheticConfig config =
      MakeIndependentConfig(4, 500, 0.4, 0.7, 0.4, /*seed=*/41);
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  DynamicBitset empty(d->num_triples());
  auto pairs =
      ComputePairwiseCorrelations(*d, empty, AllSources(*d), {});
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->size(), 6u);
  for (const PairwiseCorrelation& pc : *pairs) {
    EXPECT_DOUBLE_EQ(pc.factors.on_true, 1.0);
    EXPECT_DOUBLE_EQ(pc.factors.on_false, 1.0);
    EXPECT_EQ(pc.support, 0u);
    EXPECT_EQ(pc.joint_true_count, 0u);
    EXPECT_EQ(pc.joint_false_count, 0u);
  }
}

TEST(PairwiseCorrelationTest, SingleOrNoSourceYieldsNoPairs) {
  SyntheticConfig config =
      MakeIndependentConfig(3, 500, 0.4, 0.7, 0.4, /*seed=*/43);
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  auto one = ComputePairwiseCorrelations(*d, d->labeled_mask(), {0}, {});
  ASSERT_TRUE(one.ok());
  EXPECT_TRUE(one->empty());
  auto none = ComputePairwiseCorrelations(*d, d->labeled_mask(), {}, {});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(PairwiseCorrelationTest, DisjointScopesHaveZeroJointCounts) {
  // Sources on complementary partitions of both classes never overlap:
  // joint counts are zero and both factors collapse toward zero
  // (anti-correlation), never to a spurious positive value.
  SyntheticConfig config =
      MakeIndependentConfig(2, 2000, 0.5, 0.7, 0.4, /*seed=*/47);
  config.true_partition_fractions = {0.5, 0.5};
  config.false_partition_fractions = {0.5, 0.5};
  config.sources[0].true_partition = 0;
  config.sources[0].false_partition = 0;
  config.sources[1].true_partition = 1;
  config.sources[1].false_partition = 1;
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  auto pairs = ComputePairwiseCorrelations(*d, d->labeled_mask(),
                                           AllSources(*d), {});
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs->size(), 1u);
  EXPECT_EQ((*pairs)[0].joint_true_count, 0u);
  EXPECT_EQ((*pairs)[0].joint_false_count, 0u);
  EXPECT_LT((*pairs)[0].factors.on_true, 0.1);
  EXPECT_GT((*pairs)[0].support, 0u);
}

TEST(PairwiseCorrelationTest, ZeroRecallSourceGetsNeutralTrueFactor) {
  // A source that provides nothing has r = (0 + s) / den; with zero
  // smoothing r = 0 and the on_true factor for any pair involving it must
  // be the neutral 1.0 (zero denominator contract), not inf/NaN.
  SyntheticConfig config =
      MakeIndependentConfig(3, 1000, 0.4, 0.7, 0.4, /*seed=*/53);
  config.sources[2].recall = 0.0;
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  QualityOptions no_smoothing;
  no_smoothing.smoothing = 0.0;
  auto pairs = ComputePairwiseCorrelations(*d, d->labeled_mask(),
                                           AllSources(*d), no_smoothing);
  ASSERT_TRUE(pairs.ok());
  for (const PairwiseCorrelation& pc : *pairs) {
    if (pc.b == 2 || pc.a == 2) {
      EXPECT_DOUBLE_EQ(pc.factors.on_true, 1.0);
      EXPECT_EQ(pc.joint_true_count, 0u);
    }
  }
}

TEST(ClusteringTest, GroupsStronglyCorrelatedSources) {
  SyntheticConfig config =
      MakeIndependentConfig(8, 3000, 0.4, 0.7, 0.4, /*seed=*/29);
  config.groups_true = {{{0, 1, 2}, 0.9}, {{5, 6}, 0.9}};
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  ClusteringOptions options;
  options.correlation_threshold = 0.3;
  auto clustering =
      ClusterSourcesByCorrelation(*d, d->labeled_mask(), {}, options);
  ASSERT_TRUE(clustering.ok());
  // 0,1,2 together; 5,6 together; others singletons.
  EXPECT_EQ(clustering->cluster_of[0], clustering->cluster_of[1]);
  EXPECT_EQ(clustering->cluster_of[0], clustering->cluster_of[2]);
  EXPECT_EQ(clustering->cluster_of[5], clustering->cluster_of[6]);
  EXPECT_NE(clustering->cluster_of[0], clustering->cluster_of[5]);
  EXPECT_NE(clustering->cluster_of[3], clustering->cluster_of[4]);
}

TEST(ClusteringTest, RespectsMaxClusterSize) {
  SyntheticConfig config =
      MakeIndependentConfig(6, 2000, 0.4, 0.7, 0.4, /*seed=*/31);
  config.groups_true = {{{0, 1, 2, 3, 4, 5}, 0.95}};
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  ClusteringOptions options;
  options.correlation_threshold = 0.2;
  options.max_cluster_size = 3;
  auto clustering =
      ClusterSourcesByCorrelation(*d, d->labeled_mask(), {}, options);
  ASSERT_TRUE(clustering.ok());
  for (const auto& cluster : clustering->clusters) {
    EXPECT_LE(cluster.size(), 3u);
  }
}

TEST(ClusteringTest, PartitionIsConsistent) {
  SyntheticConfig config =
      MakeIndependentConfig(10, 1000, 0.4, 0.7, 0.4, /*seed=*/37);
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  auto clustering =
      ClusterSourcesByCorrelation(*d, d->labeled_mask(), {}, {});
  ASSERT_TRUE(clustering.ok());
  size_t total = 0;
  for (size_t c = 0; c < clustering->clusters.size(); ++c) {
    for (size_t i = 0; i < clustering->clusters[c].size(); ++i) {
      SourceId s = clustering->clusters[c][i];
      EXPECT_EQ(clustering->cluster_of[s], static_cast<int>(c));
      EXPECT_EQ(clustering->index_in_cluster[s], static_cast<int>(i));
      ++total;
    }
  }
  EXPECT_EQ(total, d->num_sources());
}

TEST(ClusteringTest, SingleClusterRejectsOver64Sources) {
  Dataset d;
  for (int s = 0; s < 70; ++s) d.AddSource("s" + std::to_string(s));
  TripleId t = d.AddTriple({"e", "a", "v"});
  d.Provide(0, t);
  ASSERT_TRUE(d.Finalize().ok());
  EXPECT_FALSE(SingleClusterOf(d.num_sources()).ok());
}

TEST(ClusteringTest, FromPartitionValidates) {
  EXPECT_TRUE(ClusteringFromPartition(4, {{0, 1}, {2, 3}}).ok());
  EXPECT_FALSE(ClusteringFromPartition(4, {{0, 1}, {2}}).ok())
      << "missing source 3";
  EXPECT_FALSE(ClusteringFromPartition(4, {{0, 1, 2, 3}, {3}}).ok())
      << "duplicate source";
  EXPECT_FALSE(ClusteringFromPartition(4, {{0, 1}, {}, {2, 3}}).ok())
      << "empty cluster";
  EXPECT_FALSE(ClusteringFromPartition(2, {{0, 5}}).ok()) << "out of range";
}

TEST(ClusteringTest, BadOptionsRejected) {
  Dataset d = MakeMotivatingExample();
  ClusteringOptions bad;
  bad.max_cluster_size = 0;
  EXPECT_FALSE(
      ClusterSourcesByCorrelation(d, d.labeled_mask(), {}, bad).ok());
  bad.max_cluster_size = 100;
  EXPECT_FALSE(
      ClusterSourcesByCorrelation(d, d.labeled_mask(), {}, bad).ok());
}

}  // namespace
}  // namespace fuser
