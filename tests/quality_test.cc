// Unit tests for source-quality estimation (Section 3.2) and the Theorem
// 3.5 false-positive-rate derivation.
#include "core/quality.h"
#include "gtest/gtest.h"
#include "support/paper_math.h"
#include "synth/motivating_example.h"

namespace fuser {
namespace {

TEST(FprDerivationTest, MatchesWorkedExample) {
  // Section 3.2: p1 = 0.57, r1 = 0.67, alpha = 0.5 -> q1 = 0.5.
  EXPECT_NEAR(DeriveFalsePositiveRate(4.0 / 7, 2.0 / 3, 0.5), 0.5, 1e-12);
}

TEST(FprDerivationTest, ClampsToUnitInterval) {
  // Tiny precision with large recall pushes q past 1; it must clamp.
  EXPECT_DOUBLE_EQ(DeriveFalsePositiveRate(0.01, 0.9, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(DeriveFalsePositiveRate(0.9, 0.0, 0.5), 0.0);
}

TEST(FprDerivationTest, ValidityCondition) {
  // Theorem 3.5: valid iff alpha <= p / (p + r - p r).
  EXPECT_TRUE(FprDerivationValid(0.5, 0.5, 0.5));   // bound = 2/3
  EXPECT_FALSE(FprDerivationValid(0.1, 0.9, 0.5));  // bound ~ 0.109
  EXPECT_TRUE(FprDerivationValid(0.1, 0.9, 0.1));
}

TEST(FprDerivationTest, GoodSourceWhenPrecisionAboveAlpha) {
  // Theorem 3.5 second clause: p > alpha implies q < r.
  for (double p : {0.55, 0.7, 0.9}) {
    for (double r : {0.1, 0.5, 0.9}) {
      double q = DeriveFalsePositiveRate(p, r, 0.5);
      EXPECT_LT(q, r) << "p=" << p << " r=" << r;
    }
  }
}

TEST(EstimateQualityTest, CountsOnExample) {
  Dataset d = MakeMotivatingExample();
  auto quality = EstimateSourceQuality(d, d.labeled_mask(), {});
  ASSERT_TRUE(quality.ok());
  EXPECT_EQ((*quality)[0].provided_labeled, 7u);
  EXPECT_EQ((*quality)[0].provided_true, 4u);
  EXPECT_EQ((*quality)[0].scope_true, 6u);
  EXPECT_TRUE((*quality)[2].IsGood());  // S3: r = 0.67 > q = 0.167
}

TEST(EstimateQualityTest, SmoothingShrinksTowardHalf) {
  Dataset d = MakeMotivatingExample();
  QualityOptions smooth;
  smooth.smoothing = 5.0;
  auto raw = EstimateSourceQuality(d, d.labeled_mask(), {});
  auto smoothed = EstimateSourceQuality(d, d.labeled_mask(), smooth);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(smoothed.ok());
  // S3's precision of 0.8 must shrink toward 0.5.
  EXPECT_LT((*smoothed)[2].precision, (*raw)[2].precision);
  EXPECT_GT((*smoothed)[2].precision, 0.5);
}

TEST(EstimateQualityTest, TrainMaskRestrictsCounts) {
  Dataset d = MakeMotivatingExample();
  // Train only on t1..t5 (ids 0..4): 3 true (t1, t3, t4), 2 false.
  DynamicBitset train(d.num_triples());
  for (int t = 0; t < 5; ++t) train.Set(t);
  auto quality = EstimateSourceQuality(d, train, {});
  ASSERT_TRUE(quality.ok());
  // S1 provides t1, t2 within the window: 1 true of 2 provided.
  EXPECT_EQ((*quality)[0].provided_labeled, 2u);
  EXPECT_EQ((*quality)[0].provided_true, 1u);
  EXPECT_NEAR((*quality)[0].precision, 0.5, 1e-12);
  EXPECT_NEAR((*quality)[0].recall, 1.0 / 3, 1e-12);
}

TEST(EstimateQualityTest, SourceWithNoLabeledTriplesGetsPrior) {
  Dataset d;
  SourceId s0 = d.AddSource("labeled-src");
  SourceId s1 = d.AddSource("unlabeled-src");
  TripleId t0 = d.AddTriple({"e1", "a", "v"});
  TripleId t1 = d.AddTriple({"e2", "a", "v"});
  d.Provide(s0, t0);
  d.Provide(s1, t1);
  d.SetLabel(t0, true);
  ASSERT_TRUE(d.Finalize().ok());
  auto quality = EstimateSourceQuality(d, d.labeled_mask(), {});
  ASSERT_TRUE(quality.ok());
  EXPECT_NEAR((*quality)[s1].precision, 0.5, 1e-12);  // prior fallback
  EXPECT_NEAR((*quality)[s1].recall, 0.0, 1e-12);
  EXPECT_NEAR((*quality)[s1].fpr, 0.0, 1e-12);
}

TEST(EstimateQualityTest, ScopeAwareRecallUsesDomainDenominator) {
  Dataset d;
  SourceId s0 = d.AddSource("wide");
  SourceId s1 = d.AddSource("narrow");
  // Domain d1: 2 true triples; domain d2: 2 true triples.
  TripleId a = d.AddTriple({"a", "x", "1"}, "d1");
  TripleId b = d.AddTriple({"b", "x", "1"}, "d1");
  TripleId c = d.AddTriple({"c", "x", "1"}, "d2");
  TripleId e = d.AddTriple({"e", "x", "1"}, "d2");
  for (TripleId t : {a, b, c, e}) d.SetLabel(t, true);
  d.Provide(s0, a);
  d.Provide(s0, c);
  d.Provide(s1, a);
  d.Provide(s1, b);
  ASSERT_TRUE(d.Finalize().ok());

  QualityOptions no_scopes;
  auto q_global = EstimateSourceQuality(d, d.labeled_mask(), no_scopes);
  ASSERT_TRUE(q_global.ok());
  QualityOptions scopes;
  scopes.use_scopes = true;
  auto q_scoped = EstimateSourceQuality(d, d.labeled_mask(), scopes);
  ASSERT_TRUE(q_scoped.ok());

  // narrow provides 2 of 4 true globally, but 2 of 2 within its domain.
  EXPECT_NEAR((*q_global)[s1].recall, 0.5, 1e-12);
  EXPECT_NEAR((*q_scoped)[s1].recall, 1.0, 1e-12);
  // wide covers both domains; scope makes no difference.
  EXPECT_NEAR((*q_scoped)[s0].recall, (*q_global)[s0].recall, 1e-12);
}

TEST(EstimateQualityTest, RejectsBadArguments) {
  Dataset d = MakeMotivatingExample();
  QualityOptions bad_alpha;
  bad_alpha.alpha = 0.0;
  EXPECT_FALSE(EstimateSourceQuality(d, d.labeled_mask(), bad_alpha).ok());
  QualityOptions bad_smoothing;
  bad_smoothing.smoothing = -1.0;
  EXPECT_FALSE(
      EstimateSourceQuality(d, d.labeled_mask(), bad_smoothing).ok());
  DynamicBitset wrong_size(3);
  EXPECT_FALSE(EstimateSourceQuality(d, wrong_size, {}).ok());
}

// Property sweep: derived q stays in [0,1] and the validity condition
// predicts when no clamping was needed.
class FprSweepTest
    : public testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(FprSweepTest, DerivedFprInRangeAndConsistent) {
  auto [p, r, alpha] = GetParam();
  double q = DeriveFalsePositiveRate(p, r, alpha);
  EXPECT_GE(q, 0.0);
  EXPECT_LE(q, 1.0);
  if (FprDerivationValid(p, r, alpha)) {
    // Unclamped: q = alpha/(1-alpha) * (1-p)/p * r exactly.
    EXPECT_NEAR(q, alpha / (1 - alpha) * (1 - p) / p * r, 1e-9);
  }
  if (p > alpha) {
    EXPECT_LT(q, r + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FprSweepTest,
    testing::Combine(testing::Values(0.1, 0.3, 0.5, 0.7, 0.9),
                     testing::Values(0.05, 0.25, 0.5, 0.75, 0.95),
                     testing::Values(0.2, 0.5, 0.8)));

}  // namespace
}  // namespace fuser
