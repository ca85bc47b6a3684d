// Parameterized property sweeps across the inference stack:
// posterior-theory invariants, union-threshold arithmetic, elastic
// convergence across seeds and correlation strengths, and cross-method
// sanity on generated workloads.
#include <cmath>
#include <tuple>

#include "baselines/union_k.h"
#include "common/math_util.h"
#include "core/elastic.h"
#include "core/engine.h"
#include "core/precrec.h"
#include "gtest/gtest.h"
#include "model/split.h"
#include "stats/metrics.h"
#include "support/pattern_oracles.h"
#include "synth/generator.h"

namespace fuser {
namespace {

// ---------- Union-K threshold arithmetic (ceil semantics) ----------

class UnionThresholdTest
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UnionThresholdTest, MatchesCeilArithmetic) {
  auto [percent, num_sources] = GetParam();
  // "at least K% of the sources" == ceil(K/100 * n) providers, except that
  // exact multiples need no rounding up.
  double needed = percent / 100.0 * num_sources;
  int min_providers = static_cast<int>(std::ceil(needed - 1e-12));
  for (int providers = 0; providers <= num_sources; ++providers) {
    double score = static_cast<double>(providers) / num_sources;
    bool accepted = score >= UnionKThreshold(percent);
    EXPECT_EQ(accepted, providers >= min_providers)
        << "k=" << percent << " n=" << num_sources
        << " providers=" << providers;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UnionThresholdTest,
    testing::Combine(testing::Values(10, 25, 40, 50, 75, 100),
                     testing::Values(3, 5, 7, 10)));

// ---------- Posterior invariants over quality sweeps ----------

class PosteriorSweepTest
    : public testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(PosteriorSweepTest, ProviderContributionMonotoneInRecall) {
  auto [q, alpha] = GetParam();
  // With fixed fpr q, a provider's contribution log(r/q) grows with r, so
  // the posterior of a provided triple grows with the source's recall.
  double prev = -1.0;
  for (double r : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    SourceQuality quality{0.8, r, q};
    double posterior = PosteriorFromLogMu(
        SourceLogContribution(quality, /*provides=*/true), alpha);
    EXPECT_GT(posterior, prev) << "r=" << r;
    prev = posterior;
  }
}

TEST_P(PosteriorSweepTest, SilenceContributionMonotoneInRecall) {
  auto [q, alpha] = GetParam();
  // A silent high-recall source is stronger evidence of falsehood.
  double prev = 2.0;
  for (double r : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    SourceQuality quality{0.8, r, q};
    double posterior = PosteriorFromLogMu(
        SourceLogContribution(quality, /*provides=*/false), alpha);
    EXPECT_LT(posterior, prev) << "r=" << r;
    prev = posterior;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PosteriorSweepTest,
    testing::Combine(testing::Values(0.05, 0.2, 0.4),
                     testing::Values(0.25, 0.5, 0.75)));

// ---------- Elastic convergence across seeds & correlation strengths ----

class ElasticConvergenceTest
    : public testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(ElasticConvergenceTest, FullLevelEqualsTermSummation) {
  auto [seed, rho] = GetParam();
  SyntheticConfig config =
      MakeIndependentConfig(6, 400, 0.4, 0.65, 0.4, seed);
  if (rho > 0.0) {
    config.groups_true = {{{0, 1, 2}, rho}};
    config.groups_false = {{{3, 4}, rho}};
  }
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());

  CorrelationModel model;
  model.alpha = 0.5;
  auto quality = EstimateSourceQuality(*d, d->labeled_mask(), {});
  ASSERT_TRUE(quality.ok());
  model.source_quality = std::move(*quality);
  model.clustering = *SingleClusterOf(d->num_sources());
  std::vector<SourceId> all(d->num_sources());
  for (SourceId s = 0; s < d->num_sources(); ++s) all[s] = s;
  auto stats = EmpiricalJointStats::Create(*d, d->labeled_mask(), all, {});
  ASSERT_TRUE(stats.ok());
  model.cluster_stats.push_back(std::move(*stats));

  auto elastic_plan = MakeElasticPlan(model, /*level=*/6);
  ASSERT_TRUE(elastic_plan.ok());
  auto elastic = ScorePlan(*d, model, *elastic_plan);
  auto exact = ScorePlan(*d, model, MakeTermSummationPlan(model));
  ASSERT_TRUE(elastic.ok());
  ASSERT_TRUE(exact.ok());
  for (TripleId t = 0; t < d->num_triples(); ++t) {
    EXPECT_NEAR((*elastic)[t], (*exact)[t], 1e-7)
        << "seed=" << seed << " rho=" << rho << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ElasticConvergenceTest,
    testing::Combine(testing::Values(1u, 2u, 3u),
                     testing::Values(0.0, 0.5, 0.9)));

// ---------- Cross-method sanity over workload sweeps ----------

class WorkloadSweepTest
    : public testing::TestWithParam<std::tuple<double, double, uint64_t>> {
};

TEST_P(WorkloadSweepTest, AllMethodsProduceValidRankableScores) {
  auto [precision, recall, seed] = GetParam();
  SyntheticConfig config =
      MakeIndependentConfig(5, 600, 0.35, precision, recall, seed);
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  EngineOptions options;
  options.ltm.burn_in = 10;
  options.ltm.samples = 10;
  FusionEngine engine(&*d, options);
  ASSERT_TRUE(engine.Prepare(d->labeled_mask()).ok());
  for (const char* method :
       {"union-50", "3estimates", "cosine", "ltm", "precrec",
        "precrec-corr", "aggressive", "elastic-2"}) {
    auto spec = ParseMethodSpec(method);
    auto run = engine.Run(*spec);
    ASSERT_TRUE(run.ok()) << method;
    for (double s : run->scores) {
      EXPECT_TRUE(std::isfinite(s)) << method;
      EXPECT_GE(s, 0.0) << method;
      EXPECT_LE(s, 1.0) << method;
    }
    auto eval = engine.Evaluate(*run, d->labeled_mask());
    ASSERT_TRUE(eval.ok()) << method;
  }
}

TEST_P(WorkloadSweepTest, PrecRecBetterThanChanceOnGoodSources) {
  auto [precision, recall, seed] = GetParam();
  if (precision <= 0.5) {
    GTEST_SKIP() << "sources below alpha are legitimately 'bad'";
  }
  SyntheticConfig config =
      MakeIndependentConfig(5, 600, 0.35, precision, recall, seed);
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  FusionEngine engine(&*d, {});
  ASSERT_TRUE(engine.Prepare(d->labeled_mask()).ok());
  auto eval =
      engine.RunAndEvaluate({MethodKind::kPrecRec}, d->labeled_mask());
  ASSERT_TRUE(eval.ok());
  EXPECT_GT(eval->auc_roc, 0.55)
      << "p=" << precision << " r=" << recall << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadSweepTest,
    testing::Combine(testing::Values(0.4, 0.65, 0.9),
                     testing::Values(0.15, 0.45), testing::Values(11u, 12u)));

// ---------- Permutation invariance ----------

TEST(PermutationTest, SourceOrderDoesNotChangeScores) {
  SyntheticConfig config =
      MakeIndependentConfig(5, 400, 0.4, 0.7, 0.4, /*seed=*/55);
  config.groups_true = {{{0, 1}, 0.8}};
  auto original = GenerateSynthetic(config);
  ASSERT_TRUE(original.ok());

  // Rebuild the same dataset with sources added in reverse order.
  Dataset permuted;
  const size_t n = original->num_sources();
  for (size_t s = 0; s < n; ++s) {
    permuted.AddSource(original->source_name(
        static_cast<SourceId>(n - 1 - s)));
  }
  for (TripleId t = 0; t < original->num_triples(); ++t) {
    TripleId nt = permuted.AddTriple(original->triple(t));
    if (original->label(t) != Label::kUnknown) {
      permuted.SetLabel(nt, original->label(t) == Label::kTrue);
    }
    for (SourceId s : original->providers(t)) {
      permuted.Provide(static_cast<SourceId>(n - 1 - s), nt);
    }
  }
  ASSERT_TRUE(permuted.Finalize().ok());

  FusionEngine engine_a(&*original, {});
  FusionEngine engine_b(&permuted, {});
  ASSERT_TRUE(engine_a.Prepare(original->labeled_mask()).ok());
  ASSERT_TRUE(engine_b.Prepare(permuted.labeled_mask()).ok());
  for (const char* method : {"precrec", "precrec-corr", "aggressive"}) {
    auto spec = ParseMethodSpec(method);
    auto run_a = engine_a.Run(*spec);
    auto run_b = engine_b.Run(*spec);
    ASSERT_TRUE(run_a.ok());
    ASSERT_TRUE(run_b.ok());
    for (TripleId t = 0; t < original->num_triples(); ++t) {
      TripleId bt = permuted.FindTriple(original->triple(t));
      ASSERT_NE(bt, kInvalidTriple);
      EXPECT_NEAR(run_a->scores[t], run_b->scores[bt], 1e-9) << method;
    }
  }
}

}  // namespace
}  // namespace fuser
