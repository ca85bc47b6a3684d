// End-to-end reproduction of every number the paper publishes for the
// motivating example (Figure 1, Figure 3, Examples 2.2, 2.3, 3.3, 4.4, 4.7,
// 4.10, and the Section 2.3 overview claims).
#include <cmath>

#include "baselines/union_k.h"
#include "core/aggressive.h"
#include "core/correlation.h"
#include "core/elastic.h"
#include "core/engine.h"
#include "core/precrec.h"
#include "core/precrec_corr.h"
#include "core/quality.h"
#include "gtest/gtest.h"
#include "model/split.h"
#include "stats/metrics.h"
#include "support/correlation_factors.h"
#include "synth/motivating_example.h"

namespace fuser {
namespace {

constexpr Mask kS1 = 1 << 0;
constexpr Mask kS2 = 1 << 1;
constexpr Mask kS3 = 1 << 2;
constexpr Mask kS4 = 1 << 3;
constexpr Mask kS5 = 1 << 4;

class PaperExampleTest : public testing::Test {
 protected:
  PaperExampleTest() : dataset_(MakeMotivatingExample()) {}

  TripleId T(int i) const { return static_cast<TripleId>(i - 1); }

  Dataset dataset_;
};

TEST_F(PaperExampleTest, GridShape) {
  EXPECT_EQ(dataset_.num_sources(), 5u);
  EXPECT_EQ(dataset_.num_triples(), 10u);
  EXPECT_EQ(dataset_.num_true(), 6u);
  EXPECT_EQ(dataset_.num_labeled(), 10u);
  // Example 2.1: O1 = {t1, t2, t6, t7, t8, t9, t10}.
  EXPECT_EQ(dataset_.output_size(0), 7u);
  for (int i : {1, 2, 6, 7, 8, 9, 10}) {
    EXPECT_TRUE(dataset_.provides(0, T(i))) << "t" << i;
  }
  // "t3 is extracted by S3, but not by any other extractor."
  EXPECT_EQ(dataset_.providers(T(3)), std::vector<SourceId>{2});
}

TEST_F(PaperExampleTest, Figure1bSourceQuality) {
  auto quality =
      EstimateSourceQuality(dataset_, dataset_.labeled_mask(), {});
  ASSERT_TRUE(quality.ok());
  const double expected_p[5] = {0.57, 0.43, 0.80, 0.67, 0.67};
  const double expected_r[5] = {0.67, 0.50, 0.67, 0.67, 0.67};
  for (int s = 0; s < 5; ++s) {
    EXPECT_NEAR((*quality)[s].precision, expected_p[s], 0.005) << "S" << s + 1;
    EXPECT_NEAR((*quality)[s].recall, expected_r[s], 0.005) << "S" << s + 1;
  }
  // Section 3.2: derived false positive rates q1=0.5, q2=0.67, q3=0.167,
  // q4=q5=0.33 at alpha=0.5.
  const double expected_q[5] = {0.5, 2.0 / 3, 1.0 / 6, 1.0 / 3, 1.0 / 3};
  for (int s = 0; s < 5; ++s) {
    EXPECT_NEAR((*quality)[s].fpr, expected_q[s], 1e-9) << "S" << s + 1;
  }
}

TEST_F(PaperExampleTest, Figure1bJointQuality) {
  std::vector<SourceId> all = {0, 1, 2, 3, 4};
  auto stats = EmpiricalJointStats::Create(dataset_, dataset_.labeled_mask(),
                                           all, {});
  ASSERT_TRUE(stats.ok());
  // Example 2.3 / Figure 1b: joint precision and recall.
  JointQuality s145 = (*stats)->Get(kS1 | kS4 | kS5);
  EXPECT_NEAR(s145.precision, 0.6, 1e-9);
  EXPECT_NEAR(s145.recall, 0.5, 1e-9);
  JointQuality s13 = (*stats)->Get(kS1 | kS3);
  EXPECT_NEAR(s13.precision, 1.0, 1e-9);
  EXPECT_NEAR(s13.recall, 1.0 / 3, 1e-9);
  JointQuality s23 = (*stats)->Get(kS2 | kS3);
  EXPECT_NEAR(s23.precision, 2.0 / 3, 1e-9);
  EXPECT_NEAR(s23.recall, 1.0 / 3, 1e-9);
  JointQuality s124 = (*stats)->Get(kS1 | kS2 | kS4);
  EXPECT_NEAR(s124.precision, 1.0 / 3, 1e-9);
  EXPECT_NEAR(s124.recall, 1.0 / 6, 1e-9);
}

TEST_F(PaperExampleTest, Example23CorrelationDirections) {
  std::vector<SourceId> all = {0, 1, 2, 3, 4};
  auto stats = EmpiricalJointStats::Create(dataset_, dataset_.labeled_mask(),
                                           all, {});
  ASSERT_TRUE(stats.ok());
  // S1,S4,S5 joint recall 0.5 > r1*r4*r5 = 0.3: positive correlation.
  CorrelationFactors c145 =
      ComputeCorrelationFactors(**stats, kS1 | kS4 | kS5);
  EXPECT_GT(c145.on_true, 1.0);
  // S1,S3: joint recall 0.33 < r1*r3 = 0.45: negative correlation.
  CorrelationFactors c13 = ComputeCorrelationFactors(**stats, kS1 | kS3);
  EXPECT_LT(c13.on_true, 1.0);
  // Section 4.2: C45 = 0.67/(0.67*0.67) = 1.5 and C13 = 0.75.
  CorrelationFactors c45 = ComputeCorrelationFactors(**stats, kS4 | kS5);
  EXPECT_NEAR(c45.on_true, 1.5, 0.01);
  EXPECT_NEAR(c13.on_true, 0.75, 0.01);
  // "S2 and S3 are independent with respect to true triples (C23 = 1)."
  CorrelationFactors c23 = ComputeCorrelationFactors(**stats, kS2 | kS3);
  EXPECT_NEAR(c23.on_true, 1.0, 0.01);
  // The paper also states C!23 = 0.5, but that value is not derivable from
  // the Figure 1 grid with the paper's own Theorem 3.5 derivation:
  // q23 = #false provided by both / #true = 1/6, q2*q3 = (4/6)(1/6), giving
  // C!23 = 1.5 (a likely digit transposition in the paper). We assert the
  // self-consistent value.
  EXPECT_NEAR(c23.on_false, 1.5, 0.01);
}

TEST_F(PaperExampleTest, Figure1cUnionK) {
  struct Expected {
    double percent;
    double precision;
    double recall;
    double f1;
  };
  const Expected rows[3] = {
      {25, 0.56, 0.83, 0.67}, {50, 0.71, 0.83, 0.77}, {75, 0.60, 0.50, 0.55}};
  for (const Expected& row : rows) {
    UnionKOptions options;
    options.percent = row.percent;
    auto scores = UnionKScores(dataset_, options);
    ASSERT_TRUE(scores.ok());
    ConfusionCounts counts =
        EvaluateDecisions(dataset_, *scores, dataset_.labeled_mask(),
                          UnionKThreshold(row.percent));
    EXPECT_NEAR(counts.Precision(), row.precision, 0.005)
        << "union-" << row.percent;
    EXPECT_NEAR(counts.Recall(), row.recall, 0.005) << "union-" << row.percent;
    EXPECT_NEAR(counts.F1(), row.f1, 0.005) << "union-" << row.percent;
  }
}

TEST_F(PaperExampleTest, Example33PrecRecProbabilities) {
  std::vector<SourceQuality> quality = MakeExampleSourceQuality();
  auto scores = PrecRecScores(dataset_, quality, {});
  ASSERT_TRUE(scores.ok());
  // t2 (provided by S1, S2 only): mu = 0.1, Pr = 0.09.
  EXPECT_NEAR((*scores)[T(2)], 0.09, 0.005);
  // t8 (provided by S1, S2, S4, S5): mu = 1.6, Pr = 0.62 - the
  // independence assumption gets it wrong.
  EXPECT_NEAR((*scores)[T(8)], 0.62, 0.005);
  EXPECT_GT((*scores)[T(8)], 0.5);
}

TEST_F(PaperExampleTest, Section23PrecRecFMeasure) {
  // "With this model, we are able to improve the F-measure to .86
  // (precision=.75, recall=1)".
  std::vector<SourceQuality> quality = MakeExampleSourceQuality();
  auto scores = PrecRecScores(dataset_, quality, {});
  ASSERT_TRUE(scores.ok());
  ConfusionCounts counts =
      EvaluateDecisions(dataset_, *scores, dataset_.labeled_mask(), 0.5);
  EXPECT_NEAR(counts.Precision(), 0.75, 1e-9);
  EXPECT_NEAR(counts.Recall(), 1.0, 1e-9);
  EXPECT_NEAR(counts.F1(), 6.0 / 7.0, 1e-9);
}

TEST_F(PaperExampleTest, Example44ExactProbability) {
  CorrelationModel model = MakeExampleModel();
  const JointStatsProvider& stats = *model.cluster_stats[0];
  // Pr(Ot8 | t8) = r1245 - r12345 = 0.11.
  double pt = 0.0;
  double pf = 0.0;
  ASSERT_TRUE(TermSummationLikelihood(stats, kS1 | kS2 | kS4 | kS5, kS3, &pt,
                                      &pf)
                  .ok());
  EXPECT_NEAR(pt, 0.11, 1e-9);
  // Pr(Ot8 | !t8) = q1245 - q12345 = 0.1846 (the paper rounds to 0.185).
  EXPECT_NEAR(pf, 0.1846, 1e-3);
  // Pr(t8 | O) ~= 0.37.
  auto plan = MakePrecRecCorrPlan(model, {});
  ASSERT_TRUE(plan.ok());
  auto scores = ScorePlan(dataset_, model, *plan);
  ASSERT_TRUE(scores.ok());
  EXPECT_NEAR((*scores)[T(8)], 0.37, 0.01);
  EXPECT_LT((*scores)[T(8)], 0.5) << "correlations classify t8 as false";
}

TEST_F(PaperExampleTest, Figure3AggressiveFactors) {
  CorrelationModel model = MakeExampleModel();
  AggressiveFactors factors =
      ComputeAggressiveFactors(*model.cluster_stats[0]);
  const double expected_plus[5] = {1.0, 1.0, 0.75, 1.5, 1.5};
  const double expected_minus[5] = {2.0, 1.0, 1.0, 3.0, 3.0};
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(factors.c_plus[i], expected_plus[i], 0.03) << "C+_" << i + 1;
    EXPECT_NEAR(factors.c_minus[i], expected_minus[i], 0.03) << "C-_" << i + 1;
  }
}

TEST_F(PaperExampleTest, Example47AggressiveProbability) {
  CorrelationModel model = MakeExampleModel();
  auto scores = AggressiveScores(dataset_, model);
  ASSERT_TRUE(scores.ok());
  // mu_aggr ~= 0.3, Pr(t8) ~= 0.23.
  EXPECT_NEAR((*scores)[T(8)], 0.23, 0.01);
}

TEST_F(PaperExampleTest, Example410ElasticLevels) {
  CorrelationModel model = MakeExampleModel();
  const JointStatsProvider& stats = *model.cluster_stats[0];
  const PatternKey key{kS1 | kS2 | kS4 | kS5, kS3};
  // Level 0: mu = 0.6.
  auto level0 = MakeElasticPlan(model, /*level=*/0);
  ASSERT_TRUE(level0.ok());
  double r0 = 0.0;
  double q0 = 0.0;
  ASSERT_TRUE(level0->scorer(0, key, &r0, &q0).ok());
  EXPECT_NEAR(r0 / q0, 0.6, 0.015);
  // Level 1 reaches the exact solution: mu = 0.59.
  auto level1 = MakeElasticPlan(model, /*level=*/1);
  ASSERT_TRUE(level1.ok());
  double r1 = 0.0;
  double q1 = 0.0;
  ASSERT_TRUE(level1->scorer(0, key, &r1, &q1).ok());
  EXPECT_NEAR(r1 / q1, 0.59, 0.015);
  double pt = 0.0;
  double pf = 0.0;
  ASSERT_TRUE(TermSummationLikelihood(stats, key.providers, key.nonproviders,
                                      &pt, &pf)
                  .ok());
  EXPECT_NEAR(r1, pt, 1e-9) << "level |N| equals the exact numerator";
  EXPECT_NEAR(q1, pf, 1e-9) << "level |N| equals the exact denominator";
}

TEST_F(PaperExampleTest, Section23PrecRecCorrFMeasure) {
  // "Considering correlations, we can further improve the F-measure to 0.91
  // (precision=1, recall=0.83)". Joint statistics estimated from the data
  // itself, exact inference.
  EngineOptions options;
  FusionEngine engine(&dataset_, options);
  ASSERT_TRUE(engine.Prepare(dataset_.labeled_mask()).ok());
  auto eval = engine.RunAndEvaluate({MethodKind::kPrecRecCorr},
                                    dataset_.labeled_mask());
  ASSERT_TRUE(eval.ok());
  EXPECT_NEAR(eval->precision, 1.0, 1e-9);
  EXPECT_NEAR(eval->recall, 5.0 / 6.0, 1e-9);
  EXPECT_NEAR(eval->f1, 10.0 / 11.0, 1e-9);
}

TEST_F(PaperExampleTest, PrecRecCorrBeatsUnionAndPrecRecOnF1) {
  // The 18%-over-majority-voting claim of Section 2.3.
  EngineOptions options;
  FusionEngine engine(&dataset_, options);
  ASSERT_TRUE(engine.Prepare(dataset_.labeled_mask()).ok());
  auto corr = engine.RunAndEvaluate({MethodKind::kPrecRecCorr},
                                    dataset_.labeled_mask());
  MethodSpec majority{MethodKind::kUnion};
  majority.union_percent = 50.0;
  auto vote = engine.RunAndEvaluate(majority, dataset_.labeled_mask());
  ASSERT_TRUE(corr.ok());
  ASSERT_TRUE(vote.ok());
  EXPECT_GT(corr->f1, vote->f1);
  EXPECT_NEAR(corr->f1 / vote->f1, 1.18, 0.02);
}

}  // namespace
}  // namespace fuser
