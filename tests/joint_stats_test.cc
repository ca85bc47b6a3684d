// Unit tests for joint statistics: empirical counting against brute-force
// counts on both lookup paths (sum-over-supersets tables and pattern
// scans), scope handling, smoothing, the exact pattern likelihood, and the
// explicit provider.
#include "core/joint_stats.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "support/likelihood_oracle.h"
#include "support/paper_math.h"
#include "synth/generator.h"
#include "synth/motivating_example.h"

namespace fuser {
namespace {

std::vector<SourceId> AllSources(const Dataset& d) {
  std::vector<SourceId> all(d.num_sources());
  for (SourceId s = 0; s < d.num_sources(); ++s) all[s] = s;
  return all;
}

TEST(EmpiricalJointStatsTest, SingletonMatchesSourceQuality) {
  Dataset d = MakeMotivatingExample();
  auto stats =
      EmpiricalJointStats::Create(d, d.labeled_mask(), AllSources(d), {});
  ASSERT_TRUE(stats.ok());
  auto quality = EstimateSourceQuality(d, d.labeled_mask(), {});
  ASSERT_TRUE(quality.ok());
  for (int i = 0; i < 5; ++i) {
    JointQuality joint = (*stats)->Get(Mask{1} << i);
    EXPECT_NEAR(joint.precision, (*quality)[i].precision, 1e-12);
    EXPECT_NEAR(joint.recall, (*quality)[i].recall, 1e-12);
    EXPECT_NEAR(joint.fpr, (*quality)[i].fpr, 1e-12);
  }
}

TEST(EmpiricalJointStatsTest, EmptySubsetConvention) {
  Dataset d = MakeMotivatingExample();
  auto stats =
      EmpiricalJointStats::Create(d, d.labeled_mask(), AllSources(d), {});
  ASSERT_TRUE(stats.ok());
  JointQuality empty = (*stats)->Get(0);
  EXPECT_DOUBLE_EQ(empty.recall, 1.0);
  EXPECT_DOUBLE_EQ(empty.fpr, 1.0);
}

TEST(EmpiricalJointStatsTest, SupersetCountsAreMonotone) {
  Dataset d = MakeMotivatingExample();
  auto stats =
      EmpiricalJointStats::Create(d, d.labeled_mask(), AllSources(d), {});
  ASSERT_TRUE(stats.ok());
  for (Mask m = 1; m < 32; ++m) {
    for (int b = 0; b < 5; ++b) {
      if (HasBit(m, b)) continue;
      Mask bigger = WithBit(m, b);
      EXPECT_LE(CountTrueSuperset(**stats, bigger),
                CountTrueSuperset(**stats, m));
      EXPECT_LE(CountFalseSuperset(**stats, bigger),
                CountFalseSuperset(**stats, m));
    }
  }
  EXPECT_EQ(CountTrueSuperset(**stats, 0), (*stats)->total_true());
  EXPECT_EQ(CountFalseSuperset(**stats, 0), (*stats)->total_false());
}

/// Asserts CountTrueSuperset, CountFalseSuperset and Get of `stats` equal
/// to brute-force counts over `train_mask` for `subsets`.
void ExpectSupersetCountsMatch(const EmpiricalJointStats& stats,
                               const Dataset& d,
                               const DynamicBitset& train_mask,
                               const JointStatsOptions& options,
                               const std::vector<Mask>& subsets,
                               const std::string& what) {
  const BruteForceLikelihood oracle(d, train_mask, AllSources(d), options);
  const double alpha = options.alpha;
  for (Mask m : subsets) {
    const BruteForceLikelihood::SupersetCounts want = oracle.Superset(m);
    ASSERT_EQ(CountTrueSuperset(stats, m), want.num_true) << what << " " << m;
    ASSERT_EQ(CountFalseSuperset(stats, m), want.num_false) << what << " " << m;
    if (m == 0) continue;  // Get(0) is the r = q = 1 convention
    const double nt = static_cast<double>(want.num_true);
    const double nf = static_cast<double>(want.num_false);
    const double den = static_cast<double>(want.den_true);
    const JointQuality got = stats.Get(m);
    EXPECT_DOUBLE_EQ(got.precision, nt + nf > 0.0 ? nt / (nt + nf) : alpha)
        << what << " " << m;
    EXPECT_DOUBLE_EQ(got.recall, den > 0.0 ? nt / den : 0.0)
        << what << " " << m;
    EXPECT_DOUBLE_EQ(
        got.fpr,
        den > 0.0 ? std::clamp(alpha / (1.0 - alpha) * nf / den, 0.0, 1.0)
                  : 0.0)
        << what << " " << m;
  }
}

TEST(EmpiricalJointStatsTest, SupersetCountsMatchBruteForceOnBothPaths) {
  // 20 sources read the sum-over-supersets tables; 21 and 24 scan the
  // pattern lists. Both must count exactly what the Dataset holds, before
  // and after streamed pattern deltas.
  for (size_t k : {size_t{kSosTableMaxBits}, size_t{21}, size_t{24}}) {
    SyntheticConfig config =
        MakeIndependentConfig(k, 600, 0.4, 0.7, 0.4, /*seed=*/11 + k);
    config.num_domains = 5;
    config.groups_true = {{{0, 1, 2}, 0.8}};
    auto d = GenerateSynthetic(config);
    ASSERT_TRUE(d.ok()) << d.status();
    DynamicBitset before(d->num_triples());
    DynamicBitset after(d->num_triples());
    for (TripleId t = 0; t < d->num_triples(); ++t) {
      if (t % 2 == 0) before.Set(t);
      if (t % 3 != 0) after.Set(t);
    }
    // Every subset of at most two sources, the full set, and random ones.
    std::vector<Mask> subsets = {0, FullMask(static_cast<int>(k))};
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = i; j < k; ++j) {
        subsets.push_back((Mask{1} << i) | (Mask{1} << j));
      }
    }
    Rng rng(k);
    for (int i = 0; i < 200; ++i) {
      subsets.push_back(rng.NextUint64() & FullMask(static_cast<int>(k)));
    }
    for (bool use_scopes : {false, true}) {
      const std::string what =
          "k=" + std::to_string(k) + " scopes=" + std::to_string(use_scopes);
      JointStatsOptions options;
      options.use_scopes = use_scopes;
      auto stats =
          EmpiricalJointStats::Create(*d, before, AllSources(*d), options);
      ASSERT_TRUE(stats.ok()) << stats.status();
      ExpectSupersetCountsMatch(**stats, *d, before, options, subsets,
                                what + " before");
      std::vector<JointPatternDelta> deltas;
      for (TripleId t = 0; t < d->num_triples(); ++t) {
        if (d->label(t) == Label::kUnknown ||
            before.Test(t) == after.Test(t)) {
          continue;
        }
        const TripleObservation obs =
            ObserveTriple(*d, AllSources(*d), use_scopes, t);
        deltas.push_back({obs.providers, obs.scope,
                          d->label(t) == Label::kTrue,
                          after.Test(t) ? 1 : -1});
      }
      ASSERT_FALSE(deltas.empty());
      ASSERT_TRUE((*stats)->ApplyPatternDeltas(deltas).ok());
      ExpectSupersetCountsMatch(**stats, *d, after, options, subsets,
                                what + " after");
    }
  }
}

TEST(EmpiricalJointStatsTest, ExactLikelihoodMatchesManualCount) {
  Dataset d = MakeMotivatingExample();
  auto stats =
      EmpiricalJointStats::Create(d, d.labeled_mask(), AllSources(d), {});
  ASSERT_TRUE(stats.ok());
  // Pattern {S3 only}: exactly t3 among true triples, nothing among false.
  double pt = 0.0;
  double pf = 0.0;
  ASSERT_TRUE(
      (*stats)->DirectPatternLikelihood(0b00100, 0b11011, false, &pt, &pf).ok());
  EXPECT_NEAR(pt, 1.0 / 6, 1e-12);
  EXPECT_NEAR(pf, 0.0, 1e-12);
  // Pattern {S1,S2,S4,S5}: t1 among true; t8, t9 among false.
  ASSERT_TRUE(
      (*stats)->DirectPatternLikelihood(0b11011, 0b00100, false, &pt, &pf).ok());
  EXPECT_NEAR(pt, 1.0 / 6, 1e-12);
  EXPECT_NEAR(pf, 2.0 / 6, 1e-12);
}

TEST(EmpiricalJointStatsTest, ExactLikelihoodRequiresNoSmoothing) {
  Dataset d = MakeMotivatingExample();
  JointStatsOptions smooth;
  smooth.smoothing = 1.0;
  auto stats = EmpiricalJointStats::Create(d, d.labeled_mask(),
                                           AllSources(d), smooth);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE((*stats)->SupportsDirectLikelihood());
  double pt = 0.0;
  double pf = 0.0;
  for (bool calibrated : {false, true}) {
    EXPECT_FALSE(
        (*stats)->DirectPatternLikelihood(1, 2, calibrated, &pt, &pf).ok());
  }
}

TEST(EmpiricalJointStatsTest, ExactLikelihoodRejectsOverlap) {
  Dataset d = MakeMotivatingExample();
  auto stats =
      EmpiricalJointStats::Create(d, d.labeled_mask(), AllSources(d), {});
  ASSERT_TRUE(stats.ok());
  double pt = 0.0;
  double pf = 0.0;
  for (bool calibrated : {false, true}) {
    EXPECT_FALSE((*stats)
                     ->DirectPatternLikelihood(0b011, 0b001, calibrated, &pt,
                                               &pf)
                     .ok());
  }
}

TEST(EmpiricalJointStatsTest, RejectsBadArguments) {
  Dataset d = MakeMotivatingExample();
  EXPECT_FALSE(
      EmpiricalJointStats::Create(d, d.labeled_mask(), {}, {}).ok());
  JointStatsOptions bad;
  bad.alpha = 1.5;
  EXPECT_FALSE(EmpiricalJointStats::Create(d, d.labeled_mask(),
                                           AllSources(d), bad)
                   .ok());
}

TEST(EmpiricalJointStatsTest, SmoothingKeepsRatesPositive) {
  Dataset d = MakeMotivatingExample();
  JointStatsOptions smooth;
  smooth.smoothing = 0.5;
  auto stats = EmpiricalJointStats::Create(d, d.labeled_mask(),
                                           AllSources(d), smooth);
  ASSERT_TRUE(stats.ok());
  // No triple is provided by all five sources; smoothing keeps the joint
  // recall strictly positive.
  JointQuality full = (*stats)->Get(0b11111);
  EXPECT_GT(full.recall, 0.0);
  EXPECT_GT(full.fpr, 0.0);
}

TEST(EmpiricalJointStatsTest, ScopeRestrictedDenominator) {
  // Two domains; source "narrow" only covers d1, so the joint recall of
  // {wide, narrow} must be relative to d1's true triples.
  Dataset d;
  SourceId wide = d.AddSource("wide");
  SourceId narrow = d.AddSource("narrow");
  TripleId a = d.AddTriple({"a", "x", "1"}, "d1");
  TripleId b = d.AddTriple({"b", "x", "1"}, "d1");
  TripleId c = d.AddTriple({"c", "x", "1"}, "d2");
  for (TripleId t : {a, b, c}) d.SetLabel(t, true);
  d.Provide(wide, a);
  d.Provide(wide, c);
  d.Provide(narrow, a);
  d.Provide(narrow, b);
  ASSERT_TRUE(d.Finalize().ok());

  JointStatsOptions scoped;
  scoped.use_scopes = true;
  auto stats =
      EmpiricalJointStats::Create(d, d.labeled_mask(), {wide, narrow},
                                  scoped);
  ASSERT_TRUE(stats.ok());
  // Both provide a; scope of the pair covers d1 only (2 true triples).
  JointQuality pair = (*stats)->Get(0b11);
  EXPECT_NEAR(pair.recall, 0.5, 1e-12);

  JointStatsOptions unscoped;
  auto stats2 = EmpiricalJointStats::Create(d, d.labeled_mask(),
                                            {wide, narrow}, unscoped);
  ASSERT_TRUE(stats2.ok());
  EXPECT_NEAR((*stats2)->Get(0b11).recall, 1.0 / 3, 1e-12);
}

TEST(ExplicitJointStatsTest, ReturnsSetValuesAndFallsBack) {
  std::vector<JointQuality> singles = {{0.8, 0.5, 0.1}, {0.7, 0.4, 0.2}};
  ExplicitJointStats stats(singles, 0.5);
  EXPECT_NEAR(stats.Get(0b01).recall, 0.5, 1e-12);
  EXPECT_NEAR(stats.Get(0b10).fpr, 0.2, 1e-12);
  // Fallback: independence.
  JointQuality pair = stats.Get(0b11);
  EXPECT_NEAR(pair.recall, 0.2, 1e-12);
  EXPECT_NEAR(pair.fpr, 0.02, 1e-12);
  // Override.
  stats.SetJoint(0b11, {0.9, 0.4, 0.01});
  EXPECT_NEAR(stats.Get(0b11).recall, 0.4, 1e-12);
  // Empty set convention.
  EXPECT_DOUBLE_EQ(stats.Get(0).recall, 1.0);
  EXPECT_DOUBLE_EQ(stats.Get(0).fpr, 1.0);
}

}  // namespace
}  // namespace fuser
