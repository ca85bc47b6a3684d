// Tests for the baselines: Union-K, 3-Estimates, Cosine, and LTM.
#include <cmath>

#include "baselines/cosine.h"
#include "baselines/ltm.h"
#include "baselines/three_estimates.h"
#include "baselines/union_k.h"
#include "gtest/gtest.h"
#include "stats/metrics.h"
#include "synth/generator.h"
#include "synth/motivating_example.h"

namespace fuser {
namespace {

TEST(UnionKTest, ScoresAreProviderFractions) {
  Dataset d = MakeMotivatingExample();
  auto scores = UnionKScores(d, {});
  ASSERT_TRUE(scores.ok());
  EXPECT_NEAR((*scores)[0], 4.0 / 5, 1e-12);  // t1: 4 providers
  EXPECT_NEAR((*scores)[2], 1.0 / 5, 1e-12);  // t3: 1 provider
}

TEST(UnionKTest, ThresholdImplementsCeilSemantics) {
  // Union-25 over 5 sources means ">= 2 providers" (ceil of 1.25).
  EXPECT_GE(2.0 / 5, UnionKThreshold(25));
  EXPECT_LT(1.0 / 5, UnionKThreshold(25));
  // Union-40 over 5 sources means ">= 2 providers" (2.0 exactly).
  EXPECT_GE(2.0 / 5, UnionKThreshold(40));
  // Union-75 over 5 sources means ">= 4 providers" (ceil of 3.75).
  EXPECT_GE(4.0 / 5, UnionKThreshold(75));
  EXPECT_LT(3.0 / 5, UnionKThreshold(75));
}

TEST(UnionKTest, RejectsBadPercent) {
  Dataset d = MakeMotivatingExample();
  UnionKOptions bad;
  bad.percent = 120;
  EXPECT_FALSE(UnionKScores(d, bad).ok());
}

TEST(UnionKTest, ScopeAwareDenominator) {
  Dataset d;
  SourceId wide = d.AddSource("wide");
  SourceId narrow = d.AddSource("narrow");
  TripleId a = d.AddTriple({"a", "x", "1"}, "d1");
  TripleId b = d.AddTriple({"b", "x", "1"}, "d2");
  d.Provide(wide, a);
  d.Provide(wide, b);
  d.Provide(narrow, a);
  ASSERT_TRUE(d.Finalize().ok());
  UnionKOptions scoped;
  scoped.use_scopes = true;
  auto scores = UnionKScores(d, scoped);
  ASSERT_TRUE(scores.ok());
  // b is in scope only for "wide": 1 of 1 providers.
  EXPECT_NEAR((*scores)[b], 1.0, 1e-12);
  UnionKOptions global;
  auto unscoped = UnionKScores(d, global);
  ASSERT_TRUE(unscoped.ok());
  EXPECT_NEAR((*unscoped)[b], 0.5, 1e-12);
}

/// A clean-majority setup: 4 good sources, 1 adversarial source; good
/// sources mostly provide true triples.
StatusOr<Dataset> MakeEasySynthetic(uint64_t seed) {
  SyntheticConfig config =
      MakeIndependentConfig(5, 800, 0.5, 0.85, 0.7, seed);
  config.sources[4].precision = 0.2;
  config.sources[4].recall = 0.3;
  return GenerateSynthetic(config);
}

TEST(ThreeEstimatesTest, ScoresInRangeAndBetterThanChance) {
  auto d = MakeEasySynthetic(41);
  ASSERT_TRUE(d.ok());
  auto scores = ThreeEstimatesScores(*d, {});
  ASSERT_TRUE(scores.ok());
  for (double s : *scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  ConfusionCounts counts =
      EvaluateDecisions(*d, *scores, d->labeled_mask(), 0.5);
  EXPECT_GT(2 * (counts.tp + counts.tn), counts.total());  // accuracy > 0.5
}

TEST(ThreeEstimatesTest, AssignsLowerErrorToBetterSources) {
  // Indirect check through scores: triples provided by the 4 good sources
  // should outrank triples provided only by the bad source.
  auto d = MakeEasySynthetic(43);
  ASSERT_TRUE(d.ok());
  auto scores = ThreeEstimatesScores(*d, {});
  ASSERT_TRUE(scores.ok());
  double sum_true = 0.0;
  size_t n_true = 0;
  double sum_false = 0.0;
  size_t n_false = 0;
  d->labeled_mask().ForEach([&](size_t t) {
    if (d->label(static_cast<TripleId>(t)) == Label::kTrue) {
      sum_true += (*scores)[t];
      ++n_true;
    } else {
      sum_false += (*scores)[t];
      ++n_false;
    }
  });
  EXPECT_GT(sum_true / n_true, sum_false / n_false);
}

TEST(ThreeEstimatesTest, RejectsBadIterations) {
  Dataset d = MakeMotivatingExample();
  ThreeEstimatesOptions bad;
  bad.iterations = 0;
  EXPECT_FALSE(ThreeEstimatesScores(d, bad).ok());
}

TEST(CosineTest, ScoresInRangeAndSeparateClasses) {
  auto d = MakeEasySynthetic(47);
  ASSERT_TRUE(d.ok());
  auto scores = CosineScores(*d, {});
  ASSERT_TRUE(scores.ok());
  for (double s : *scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  auto curves_input = *scores;
  ConfusionCounts counts =
      EvaluateDecisions(*d, curves_input, d->labeled_mask(), 0.5);
  EXPECT_GT(2 * (counts.tp + counts.tn), counts.total());  // accuracy > 0.5
}

TEST(CosineTest, DeterministicAcrossRuns) {
  auto d = MakeEasySynthetic(53);
  ASSERT_TRUE(d.ok());
  auto a = CosineScores(*d, {});
  auto b = CosineScores(*d, {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(LtmTest, DeterministicForSeed) {
  auto d = MakeEasySynthetic(59);
  ASSERT_TRUE(d.ok());
  LtmOptions options;
  options.burn_in = 10;
  options.samples = 10;
  auto a = LtmScores(*d, options);
  auto b = LtmScores(*d, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(LtmTest, RecoversTruthOnEasyData) {
  auto d = MakeEasySynthetic(61);
  ASSERT_TRUE(d.ok());
  LtmOptions options;
  options.burn_in = 30;
  options.samples = 30;
  auto scores = LtmScores(*d, options);
  ASSERT_TRUE(scores.ok());
  ConfusionCounts counts =
      EvaluateDecisions(*d, *scores, d->labeled_mask(), 0.5);
  EXPECT_GT(counts.F1(), 0.6);
}

TEST(LtmTest, ScoresAreSampleFrequencies) {
  auto d = MakeEasySynthetic(67);
  ASSERT_TRUE(d.ok());
  LtmOptions options;
  options.burn_in = 5;
  options.samples = 8;
  auto scores = LtmScores(*d, options);
  ASSERT_TRUE(scores.ok());
  for (double s : *scores) {
    // Multiples of 1/8 in [0,1].
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    EXPECT_NEAR(s * 8, std::round(s * 8), 1e-9);
  }
}

TEST(LtmTest, RejectsBadSchedule) {
  Dataset d = MakeMotivatingExample();
  LtmOptions bad;
  bad.samples = 0;
  EXPECT_FALSE(LtmScores(d, bad).ok());
  LtmOptions bad_beta;
  bad_beta.beta = 1.0;
  EXPECT_FALSE(LtmScores(d, bad_beta).ok());
}

}  // namespace
}  // namespace fuser
