// Unit tests for metrics and ranked curves.
#include "common/random.h"
#include "gtest/gtest.h"
#include "model/dataset.h"
#include "stats/curves.h"
#include "stats/metrics.h"

namespace fuser {
namespace {

/// Dataset with `labels.size()` triples, one source providing all of them.
Dataset MakeLabeledDataset(const std::vector<bool>& labels) {
  Dataset d;
  SourceId s = d.AddSource("src");
  for (size_t i = 0; i < labels.size(); ++i) {
    TripleId t = d.AddTriple({"e" + std::to_string(i), "a", "v"});
    d.Provide(s, t);
    d.SetLabel(t, labels[i]);
  }
  EXPECT_TRUE(d.Finalize().ok());
  return d;
}

TEST(ConfusionTest, CountsAndDerivedMetrics) {
  ConfusionCounts c{/*tp=*/3, /*fp=*/1, /*fn=*/2, /*tn=*/4};
  EXPECT_EQ(c.total(), 10u);
  EXPECT_DOUBLE_EQ(c.Precision(), 0.75);
  EXPECT_DOUBLE_EQ(c.Recall(), 0.6);
  EXPECT_NEAR(c.F1(), 2 * 0.75 * 0.6 / 1.35, 1e-12);
}

TEST(ConfusionTest, VacuousCases) {
  ConfusionCounts none{0, 0, 0, 5};
  EXPECT_DOUBLE_EQ(none.Precision(), 1.0);  // nothing returned
  ConfusionCounts no_pos{0, 2, 0, 3};
  EXPECT_DOUBLE_EQ(no_pos.Recall(), 1.0);  // no positives to find
}

TEST(EvaluateDecisionsTest, ThresholdIsInclusive) {
  Dataset d = MakeLabeledDataset({true, true, false, false});
  std::vector<double> scores = {0.5, 0.8, 0.5, 0.2};
  ConfusionCounts c = EvaluateDecisions(d, scores, d.labeled_mask(), 0.5);
  EXPECT_EQ(c.tp, 2u);  // 0.5 >= 0.5 accepted
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.fn, 0u);
  EXPECT_EQ(c.tn, 1u);
}

TEST(EvaluateDecisionsTest, RespectsEvalMask) {
  Dataset d = MakeLabeledDataset({true, true, false, false});
  std::vector<double> scores = {0.9, 0.1, 0.9, 0.1};
  DynamicBitset mask(4);
  mask.Set(0);
  mask.Set(3);
  ConfusionCounts c = EvaluateDecisions(d, scores, mask, 0.5);
  EXPECT_EQ(c.total(), 2u);
  EXPECT_EQ(c.tp, 1u);
  EXPECT_EQ(c.tn, 1u);
}

TEST(CurvesTest, PerfectRankingHasUnitAucs) {
  Dataset d = MakeLabeledDataset({true, true, false, false});
  std::vector<double> scores = {0.9, 0.8, 0.2, 0.1};
  auto curves = ComputeRankedCurves(d, scores, d.labeled_mask());
  ASSERT_TRUE(curves.ok());
  EXPECT_NEAR(curves->auc_roc, 1.0, 1e-12);
  EXPECT_NEAR(curves->auc_pr, 1.0, 1e-12);
}

TEST(CurvesTest, InvertedRankingHasZeroRocAuc) {
  Dataset d = MakeLabeledDataset({true, false});
  std::vector<double> scores = {0.1, 0.9};
  auto curves = ComputeRankedCurves(d, scores, d.labeled_mask());
  ASSERT_TRUE(curves.ok());
  EXPECT_NEAR(curves->auc_roc, 0.0, 1e-12);
}

TEST(CurvesTest, AllTiedScoresGiveChanceLevel) {
  Dataset d = MakeLabeledDataset({true, true, false, false});
  std::vector<double> scores = {0.5, 0.5, 0.5, 0.5};
  auto curves = ComputeRankedCurves(d, scores, d.labeled_mask());
  ASSERT_TRUE(curves.ok());
  // One group containing everything: ROC is the diagonal.
  EXPECT_NEAR(curves->auc_roc, 0.5, 1e-12);
  // AP equals the positive rate.
  EXPECT_NEAR(curves->auc_pr, 0.5, 1e-12);
}

TEST(CurvesTest, RandomScoresRocNearHalf) {
  std::vector<bool> labels;
  for (int i = 0; i < 2000; ++i) labels.push_back(i % 2 == 0);
  Dataset d = MakeLabeledDataset(labels);
  Rng rng(3);
  std::vector<double> scores(2000);
  for (auto& s : scores) s = rng.NextDouble();
  auto curves = ComputeRankedCurves(d, scores, d.labeled_mask());
  ASSERT_TRUE(curves.ok());
  EXPECT_NEAR(curves->auc_roc, 0.5, 0.05);
}

TEST(CurvesTest, NeedsBothClasses) {
  Dataset d = MakeLabeledDataset({true, true});
  std::vector<double> scores = {0.9, 0.8};
  EXPECT_FALSE(ComputeRankedCurves(d, scores, d.labeled_mask()).ok());
}

TEST(CurvesTest, CurvePointsAreMonotoneInRecall) {
  std::vector<bool> labels;
  for (int i = 0; i < 50; ++i) labels.push_back(i % 3 != 0);
  Dataset d = MakeLabeledDataset(labels);
  Rng rng(4);
  std::vector<double> scores(50);
  for (auto& s : scores) s = rng.NextDouble();
  auto curves = ComputeRankedCurves(d, scores, d.labeled_mask());
  ASSERT_TRUE(curves.ok());
  for (size_t i = 1; i < curves->pr.size(); ++i) {
    EXPECT_GE(curves->pr[i].x, curves->pr[i - 1].x);
  }
  for (size_t i = 1; i < curves->roc.size(); ++i) {
    EXPECT_GE(curves->roc[i].x, curves->roc[i - 1].x);
    EXPECT_GE(curves->roc[i].y, curves->roc[i - 1].y);
  }
  // ROC ends at (1, 1).
  EXPECT_NEAR(curves->roc.back().x, 1.0, 1e-12);
  EXPECT_NEAR(curves->roc.back().y, 1.0, 1e-12);
}

}  // namespace
}  // namespace fuser
