// Tests for the inference algorithms: PrecRec monotonicity (Proposition
// 3.2), exact PrecRecCorr (term summation vs direct counting vs brute-force
// world enumeration), Corollaries 4.3/4.6 (independence reductions),
// elastic convergence, and Proposition 4.8 degeneracies.
#include <cmath>

#include "core/aggressive.h"
#include "core/correlation_model.h"
#include "core/elastic.h"
#include "core/pattern_pipeline.h"
#include "core/precrec.h"
#include "core/precrec_corr.h"
#include "gtest/gtest.h"
#include "support/pattern_oracles.h"
#include "synth/generator.h"
#include "synth/motivating_example.h"

namespace fuser {
namespace {

std::vector<SourceId> AllSources(const Dataset& d) {
  std::vector<SourceId> all(d.num_sources());
  for (SourceId s = 0; s < d.num_sources(); ++s) all[s] = s;
  return all;
}

/// precrec-corr's and elastic's scores: the method's plan run over a
/// locally built grouping.
StatusOr<std::vector<double>> CorrScores(const Dataset& d,
                                         const CorrelationModel& model,
                                         const PrecRecCorrOptions& options) {
  FUSER_ASSIGN_OR_RETURN(PatternScoringPlan plan,
                         MakePrecRecCorrPlan(model, options));
  return ScorePlan(d, model, plan);
}

/// The literal inclusion-exclusion sum's scores (MakeTermSummationPlan).
StatusOr<std::vector<double>> TermSummationScores(
    const Dataset& d, const CorrelationModel& model) {
  return ScorePlan(d, model, MakeTermSummationPlan(model));
}

StatusOr<std::vector<double>> ElasticPlanScores(const Dataset& d,
                                                const CorrelationModel& model,
                                                int level,
                                                size_t num_threads = 1) {
  FUSER_ASSIGN_OR_RETURN(PatternScoringPlan plan,
                         MakeElasticPlan(model, level));
  return ScorePlan(d, model, plan, /*grouping=*/nullptr, num_threads);
}

/// Builds a single-cluster empirical model over all sources.
CorrelationModel MakeEmpiricalModel(const Dataset& d, double smoothing = 0.0,
                                    bool use_scopes = false) {
  CorrelationModel model;
  model.alpha = 0.5;
  model.use_scopes = use_scopes;
  const QualityOptions options{0.5, smoothing, use_scopes};
  auto quality = EstimateSourceQuality(d, d.labeled_mask(), options);
  model.source_quality = std::move(*quality);
  auto clustering = SingleClusterOf(d.num_sources());
  model.clustering = std::move(*clustering);
  auto stats = EmpiricalJointStats::Create(d, d.labeled_mask(),
                                           AllSources(d), options);
  model.cluster_stats.push_back(std::move(*stats));
  return model;
}

// ---------- PrecRec ----------

TEST(PrecRecTest, Proposition32GoodSourceMonotonicity) {
  // Adding a good source that provides t must raise Pr(t); one that does
  // not provide t must lower it. (And the reverse for a bad source.)
  auto score_with_extra = [](bool good, bool provides) {
    Dataset d;
    SourceId base = d.AddSource("base");
    SourceId extra = d.AddSource("extra");
    TripleId t = d.AddTriple({"e", "a", "v"});
    TripleId other = d.AddTriple({"e2", "a", "v"});
    d.Provide(base, t);
    d.Provide(base, other);
    if (provides) d.Provide(extra, t);
    d.Provide(extra, other);
    EXPECT_TRUE(d.Finalize().ok());
    std::vector<SourceQuality> quality(2);
    quality[0] = {0.8, 0.6, 0.2};
    // Good: r > q. Bad: r < q.
    quality[1] = good ? SourceQuality{0.8, 0.7, 0.1}
                      : SourceQuality{0.3, 0.1, 0.7};
    auto scores = PrecRecScores(d, quality, {});
    EXPECT_TRUE(scores.ok());
    return (*scores)[t];
  };
  auto baseline = []() {
    Dataset d;
    SourceId base = d.AddSource("base");
    TripleId t = d.AddTriple({"e", "a", "v"});
    d.Provide(base, t);
    EXPECT_TRUE(d.Finalize().ok());
    std::vector<SourceQuality> quality = {{0.8, 0.6, 0.2}};
    auto scores = PrecRecScores(d, quality, {});
    EXPECT_TRUE(scores.ok());
    return (*scores)[t];
  }();

  EXPECT_GT(score_with_extra(/*good=*/true, /*provides=*/true), baseline);
  EXPECT_LT(score_with_extra(/*good=*/true, /*provides=*/false), baseline);
  EXPECT_LT(score_with_extra(/*good=*/false, /*provides=*/true), baseline);
  EXPECT_GT(score_with_extra(/*good=*/false, /*provides=*/false), baseline);
}

TEST(PrecRecTest, ScoresAreValidProbabilities) {
  Dataset d = MakeMotivatingExample();
  auto scores = PrecRecScores(d, MakeExampleSourceQuality(), {});
  ASSERT_TRUE(scores.ok());
  for (double s : *scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(PrecRecTest, AlphaShiftsScoresMonotonically) {
  Dataset d = MakeMotivatingExample();
  std::vector<SourceQuality> quality = MakeExampleSourceQuality();
  QualityOptions low{0.2, 0.0, false};
  QualityOptions high{0.8, 0.0, false};
  auto lo = PrecRecScores(d, quality, low);
  auto hi = PrecRecScores(d, quality, high);
  ASSERT_TRUE(lo.ok());
  ASSERT_TRUE(hi.ok());
  for (TripleId t = 0; t < d.num_triples(); ++t) {
    EXPECT_LT((*lo)[t], (*hi)[t]) << "t" << t;
  }
}

TEST(PrecRecTest, RejectsBadInput) {
  Dataset d = MakeMotivatingExample();
  std::vector<SourceQuality> too_few(2);
  EXPECT_FALSE(PrecRecScores(d, too_few, {}).ok());
  QualityOptions bad_alpha{1.0, 0.0, false};
  EXPECT_FALSE(
      PrecRecScores(d, MakeExampleSourceQuality(), bad_alpha).ok());
}

// ---------- Exact PrecRecCorr ----------

TEST(PrecRecCorrTest, DirectAndTermSummationAgree) {
  Dataset d = MakeMotivatingExample();
  CorrelationModel model = MakeEmpiricalModel(d);
  PrecRecCorrOptions direct;
  direct.calibrated_likelihood = false;  // compare the paper-literal paths
  auto a = CorrScores(d, model, direct);
  auto b = TermSummationScores(d, model);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (TripleId t = 0; t < d.num_triples(); ++t) {
    EXPECT_NEAR((*a)[t], (*b)[t], 1e-9) << "t" << t;
  }
}

TEST(PrecRecCorrTest, DirectAndTermSummationAgreeOnSynthetic) {
  SyntheticConfig config =
      MakeIndependentConfig(6, 300, 0.35, 0.6, 0.35, /*seed=*/3);
  config.groups_true = {{{0, 1, 2}, 0.8}};
  config.groups_false = {{{3, 4}, 0.7}};
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  CorrelationModel model = MakeEmpiricalModel(*d);
  PrecRecCorrOptions direct;
  direct.calibrated_likelihood = false;  // compare the paper-literal paths
  auto a = CorrScores(*d, model, direct);
  auto b = TermSummationScores(*d, model);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (TripleId t = 0; t < d->num_triples(); ++t) {
    EXPECT_NEAR((*a)[t], (*b)[t], 1e-7) << "t" << t;
  }
}

TEST(PrecRecCorrTest, Corollary43IndependentEqualsPrecRec) {
  // With explicit joint statistics that factor exactly (independence), the
  // exact solution must coincide with Theorem 3.1.
  Dataset d = MakeMotivatingExample();
  std::vector<SourceQuality> quality = MakeExampleSourceQuality();
  std::vector<JointQuality> singles(5);
  for (int i = 0; i < 5; ++i) {
    singles[i] = {quality[i].precision, quality[i].recall, quality[i].fpr};
  }
  CorrelationModel model;
  model.alpha = 0.5;
  model.source_quality = quality;
  model.clustering = *SingleClusterOf(d.num_sources());
  // ExplicitJointStats falls back to products for unset subsets ==
  // independence everywhere.
  model.cluster_stats.push_back(
      std::make_unique<ExplicitJointStats>(singles, 0.5));

  auto corr = CorrScores(d, model, {});
  auto indep = PrecRecScores(d, quality, {});
  ASSERT_TRUE(corr.ok());
  ASSERT_TRUE(indep.ok());
  for (TripleId t = 0; t < d.num_triples(); ++t) {
    EXPECT_NEAR((*corr)[t], (*indep)[t], 1e-9) << "t" << t;
  }
}

TEST(PrecRecCorrTest, BruteForceWorldEnumeration) {
  // For a tiny explicit model, Pr(Ot|t) computed by inclusion-exclusion
  // must match direct enumeration over all provider worlds consistent with
  // the observation, when the joint stats come from a true distribution.
  // Build a 3-source empirical distribution from the example data.
  Dataset d = MakeMotivatingExample();
  std::vector<SourceId> cluster = {0, 1, 2};
  auto stats = EmpiricalJointStats::Create(d, d.labeled_mask(), cluster, {});
  ASSERT_TRUE(stats.ok());
  // Brute force: P(pattern == P on P|N | true) by scanning triples.
  auto brute = [&](Mask p_mask, Mask n_mask, bool want_true) {
    size_t hits = 0;
    size_t total = 0;
    d.labeled_mask().ForEach([&](size_t t) {
      bool is_true = d.label(static_cast<TripleId>(t)) == Label::kTrue;
      if (is_true != want_true) return;
      ++total;
      Mask prov = 0;
      for (int i = 0; i < 3; ++i) {
        if (d.provides(cluster[i], static_cast<TripleId>(t))) {
          prov = WithBit(prov, i);
        }
      }
      if ((prov & p_mask) == p_mask && (prov & n_mask) == 0) ++hits;
    });
    return static_cast<double>(hits) / static_cast<double>(total);
  };
  for (Mask p_mask = 1; p_mask < 8; ++p_mask) {
    Mask n_mask = 0b111 & ~p_mask;
    double pt = 0.0;
    double pf = 0.0;
    ASSERT_TRUE(
        TermSummationLikelihood(**stats, p_mask, n_mask, &pt, &pf).ok());
    EXPECT_NEAR(pt, brute(p_mask, n_mask, true), 1e-9) << "P=" << p_mask;
    // q-side: alpha-odds-scaled false-world frequency (alpha = 0.5 makes
    // the scale 6 false / 6 true, i.e. counts over total_true).
    double expected_pf =
        brute(p_mask, n_mask, false) * 4.0 / 6.0;  // 4 false, denom 6 true
    EXPECT_NEAR(pf, expected_pf, 1e-9) << "P=" << p_mask;
  }
}

TEST(PrecRecCorrTest, ScoresAreValidProbabilities) {
  Dataset d = MakeMotivatingExample();
  CorrelationModel model = MakeEmpiricalModel(d);
  auto scores = CorrScores(d, model, {});
  ASSERT_TRUE(scores.ok());
  for (double s : *scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(PrecRecCorrTest, MultiClusterFactorization) {
  // Splitting independent sources into separate clusters must not change
  // the result relative to one big cluster.
  SyntheticConfig config =
      MakeIndependentConfig(6, 400, 0.4, 0.7, 0.4, /*seed=*/21);
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());

  CorrelationModel one = MakeEmpiricalModel(*d);
  auto single_scores = CorrScores(*d, one, {});
  ASSERT_TRUE(single_scores.ok());

  CorrelationModel split;
  split.alpha = 0.5;
  split.source_quality = one.source_quality;
  auto clustering =
      ClusteringFromPartition(6, {{0, 1}, {2, 3}, {4, 5}});
  ASSERT_TRUE(clustering.ok());
  split.clustering = std::move(*clustering);
  for (const auto& cluster : split.clustering.clusters) {
    auto stats =
        EmpiricalJointStats::Create(*d, d->labeled_mask(), cluster, {});
    ASSERT_TRUE(stats.ok());
    split.cluster_stats.push_back(std::move(*stats));
  }
  auto split_scores = CorrScores(*d, split, {});
  ASSERT_TRUE(split_scores.ok());

  // Results differ slightly because the big cluster sees empirical
  // correlations that the split model assumes away; on independent data
  // they must be close on average, and both orderings should agree for the
  // overwhelming majority of triples.
  double diff = 0.0;
  for (TripleId t = 0; t < d->num_triples(); ++t) {
    diff += std::fabs((*single_scores)[t] - (*split_scores)[t]);
  }
  diff /= static_cast<double>(d->num_triples());
  EXPECT_LT(diff, 0.2);
}

TEST(PrecRecCorrTest, TermSummationGuardsExponentialBlowup) {
  // Smoothed statistics take term summation; every triple has one provider
  // and kMaxTermSummationNonproviders + 1 in-scope non-providers.
  constexpr int kSources = kMaxTermSummationNonproviders + 2;
  Dataset d;
  for (int s = 0; s < kSources; ++s) d.AddSource("s" + std::to_string(s));
  for (int i = 0; i < 2 * kSources; ++i) {
    TripleId t = d.AddTriple({"e" + std::to_string(i), "a", "v"});
    d.SetLabel(t, i % 2 == 0);
    d.Provide(static_cast<SourceId>(i % kSources), t);
  }
  ASSERT_TRUE(d.Finalize().ok());
  CorrelationModel model = MakeEmpiricalModel(d, /*smoothing=*/1.0);
  ASSERT_FALSE(model.cluster_stats[0]->SupportsDirectLikelihood());
  const Status refused = CorrScores(d, model, {}).status();
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.message().find("too many non-providers"),
            std::string::npos)
      << refused;
}

// ---------- Aggressive ----------

TEST(AggressiveTest, Corollary46IndependentEqualsPrecRec) {
  Dataset d = MakeMotivatingExample();
  std::vector<SourceQuality> quality = MakeExampleSourceQuality();
  std::vector<JointQuality> singles(5);
  for (int i = 0; i < 5; ++i) {
    singles[i] = {quality[i].precision, quality[i].recall, quality[i].fpr};
  }
  CorrelationModel model;
  model.alpha = 0.5;
  model.source_quality = quality;
  model.clustering = *SingleClusterOf(d.num_sources());
  model.cluster_stats.push_back(
      std::make_unique<ExplicitJointStats>(singles, 0.5));

  auto aggressive = AggressiveScores(d, model);
  auto indep = PrecRecScores(d, quality, {});
  ASSERT_TRUE(aggressive.ok());
  ASSERT_TRUE(indep.ok());
  for (TripleId t = 0; t < d.num_triples(); ++t) {
    EXPECT_NEAR((*aggressive)[t], (*indep)[t], 1e-9) << "t" << t;
  }
}

TEST(AggressiveTest, Proposition48ReplicasCollapseToPrior) {
  // All sources are exact replicas: C+_i r_i = r_full/(r_rest) ... = 1 for
  // every source, so every provided triple gets probability alpha.
  Dataset d;
  for (int s = 0; s < 3; ++s) d.AddSource("replica-" + std::to_string(s));
  for (int i = 0; i < 10; ++i) {
    TripleId t = d.AddTriple({"e" + std::to_string(i), "a", "v"});
    d.SetLabel(t, i < 5);
    for (SourceId s = 0; s < 3; ++s) d.Provide(s, t);
  }
  ASSERT_TRUE(d.Finalize().ok());
  CorrelationModel model = MakeEmpiricalModel(d);
  auto scores = AggressiveScores(d, model);
  ASSERT_TRUE(scores.ok());
  for (TripleId t = 0; t < d.num_triples(); ++t) {
    EXPECT_NEAR((*scores)[t], 0.5, 1e-6)
        << "replicated sources must collapse to the prior";
  }
}

// ---------- Elastic ----------

TEST(ElasticTest, ConvergesToExactAtFullLevel) {
  Dataset d = MakeMotivatingExample();
  CorrelationModel model = MakeEmpiricalModel(d);
  auto elastic = ElasticPlanScores(d, model, /*level=*/5);  // >= any |N|
  auto exact = TermSummationScores(d, model);
  ASSERT_TRUE(elastic.ok());
  ASSERT_TRUE(exact.ok());
  for (TripleId t = 0; t < d.num_triples(); ++t) {
    EXPECT_NEAR((*elastic)[t], (*exact)[t], 1e-9) << "t" << t;
  }
}

TEST(ElasticTest, ErrorShrinksWithLevelOnAverage) {
  SyntheticConfig config =
      MakeIndependentConfig(7, 500, 0.35, 0.6, 0.35, /*seed=*/9);
  config.groups_true = {{{0, 1, 2, 3}, 0.8}};
  config.groups_false = {{{1, 2}, 0.7}};
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  CorrelationModel model = MakeEmpiricalModel(*d);
  auto exact = TermSummationScores(*d, model);
  ASSERT_TRUE(exact.ok());
  auto mean_abs_error = [&](int level) {
    auto scores = ElasticPlanScores(*d, model, level);
    EXPECT_TRUE(scores.ok());
    double err = 0.0;
    for (TripleId t = 0; t < d->num_triples(); ++t) {
      err += std::fabs((*scores)[t] - (*exact)[t]);
    }
    return err / static_cast<double>(d->num_triples());
  };
  double e0 = mean_abs_error(0);
  double e3 = mean_abs_error(3);
  double e7 = mean_abs_error(7);
  EXPECT_LE(e3, e0 + 1e-9);
  EXPECT_NEAR(e7, 0.0, 1e-9);  // level >= |N| is exact
}

TEST(ElasticTest, RejectsNegativeLevel) {
  Dataset d = MakeMotivatingExample();
  CorrelationModel model = MakeEmpiricalModel(d);
  EXPECT_FALSE(ElasticPlanScores(d, model, /*level=*/-1).ok());
}

TEST(ElasticTest, ThreadedScoringMatchesSerial) {
  SyntheticConfig config =
      MakeIndependentConfig(8, 600, 0.4, 0.6, 0.3, /*seed=*/31);
  config.groups_true = {{{0, 1, 2}, 0.7}};
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  CorrelationModel model = MakeEmpiricalModel(*d);
  auto a = ElasticPlanScores(*d, model, /*level=*/2, /*num_threads=*/1);
  auto b = ElasticPlanScores(*d, model, /*level=*/2, /*num_threads=*/4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (TripleId t = 0; t < d->num_triples(); ++t) {
    EXPECT_DOUBLE_EQ((*a)[t], (*b)[t]);
  }
}

}  // namespace
}  // namespace fuser
