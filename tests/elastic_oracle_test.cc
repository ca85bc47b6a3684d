// Elastic's plan (MakeElasticPlan), which computes each cluster's
// aggressive factors and clamped rates once, against the reference that
// recomputes them on every call (tests/support/elastic_oracle.h). The plan's
// scorer must be byte-identical to it on every pattern, at levels 0, 1, 2, 3
// and |N|: on the paper's Example 4.10 cluster, and on seeded
// EmpiricalJointStats clusters of up to 12 sources with scopes on and off.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/bit_util.h"
#include "common/random.h"
#include "core/correlation_model.h"
#include "core/elastic.h"
#include "core/pattern_pipeline.h"
#include "gtest/gtest.h"
#include "support/elastic_oracle.h"
#include "support/model_reference.h"
#include "synth/generator.h"
#include "synth/motivating_example.h"

namespace fuser {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Every disjoint (providers, nonproviders) pair over k sources (3^k).
std::vector<PatternKey> AllKeys(int k) {
  std::vector<PatternKey> keys;
  const Mask full = FullMask(k);
  for (Mask prov = 0; prov <= full; ++prov) {
    ForEachSubmask(full & ~prov,
                   [&](Mask nonprov) { keys.push_back({prov, nonprov}); });
  }
  return keys;
}

/// `count` seeded disjoint pairs over k sources.
std::vector<PatternKey> RandomKeys(int k, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<PatternKey> keys(count);
  for (PatternKey& key : keys) {
    for (int i = 0; i < k; ++i) {
      switch (rng.NextBounded(3)) {
        case 0:
          key.providers = WithBit(key.providers, i);
          break;
        case 1:
          key.nonproviders = WithBit(key.nonproviders, i);
          break;
        default:
          break;
      }
    }
  }
  return keys;
}

/// Asserts the plan's scorer byte-identical to the reference for every key
/// of cluster `c` of `model`, at levels 0, 1, 2, 3 and |N|.
void ExpectPlanMatchesReference(const CorrelationModel& model, size_t c,
                                const std::vector<PatternKey>& keys) {
  const JointStatsProvider& stats = *model.cluster_stats[c];
  const int k = stats.num_sources();
  std::vector<PatternScoringPlan> plans;
  for (int level = 0; level <= std::max(k, 3); ++level) {
    auto plan = MakeElasticPlan(model, level);
    ASSERT_TRUE(plan.ok()) << plan.status();
    plans.push_back(*std::move(plan));
  }
  for (const PatternKey& key : keys) {
    const int n = PopCount(key.nonproviders);
    for (int level : {0, 1, 2, 3, n}) {
      double got_true = 0.0;
      double got_false = 0.0;
      ASSERT_TRUE(plans[static_cast<size_t>(level)]
                      .scorer(c, key, &got_true, &got_false)
                      .ok());
      double want_true = 0.0;
      double want_false = 0.0;
      ASSERT_TRUE(ReferenceElasticLikelihood(stats, key.providers,
                                             key.nonproviders, level,
                                             &want_true, &want_false)
                      .ok());
      ASSERT_EQ(Bits(got_true), Bits(want_true))
          << "cluster " << c << " P=" << key.providers
          << " N=" << key.nonproviders << " level " << level;
      ASSERT_EQ(Bits(got_false), Bits(want_false))
          << "cluster " << c << " P=" << key.providers
          << " N=" << key.nonproviders << " level " << level;
    }
  }
}

TEST(ElasticOracleTest, Example410EveryPattern) {
  const CorrelationModel model = MakeExampleModel();
  ASSERT_EQ(model.cluster_stats.size(), 1u);
  ExpectPlanMatchesReference(model, 0, AllKeys(5));
}

struct SeededCase {
  int num_sources;
  bool use_scopes;
  bool enable_clustering;
  double smoothing;
};

TEST(ElasticOracleTest, SeededClustersEveryPattern) {
  const SeededCase cases[] = {
      {2, false, false, 0.0}, {4, true, false, 0.0},  {6, false, false, 0.0},
      {6, true, false, 1.0},  {9, true, false, 0.0},  {12, false, false, 0.0},
      {12, true, false, 0.0}, {12, true, true, 0.0},
  };
  for (const SeededCase& tc : cases) {
    const std::string what = "k=" + std::to_string(tc.num_sources) +
                             (tc.use_scopes ? " scopes" : " no scopes") +
                             (tc.enable_clustering ? " clustered" : "") +
                             " smoothing=" + std::to_string(tc.smoothing);
    SCOPED_TRACE(what);
    SyntheticConfig config = MakeIndependentConfig(
        static_cast<size_t>(tc.num_sources), /*num_triples=*/1500,
        /*fraction_true=*/0.4, /*precision=*/0.7, /*recall=*/0.45,
        /*seed=*/100 + static_cast<uint64_t>(tc.num_sources));
    config.groups_true = {{{0, 1}, 0.85}};
    if (tc.num_sources >= 4) config.groups_false = {{{2, 3}, 0.8}};
    if (tc.use_scopes) config.num_domains = 8;
    auto dataset = GenerateSynthetic(config);
    ASSERT_TRUE(dataset.ok()) << dataset.status();

    ModelOptions options;
    options.use_scopes = tc.use_scopes;
    options.enable_clustering = tc.enable_clustering;
    options.smoothing = tc.smoothing;
    auto model = BuildCorrelationModelOf(*dataset, dataset->labeled_mask(),
                                         options);
    ASSERT_TRUE(model.ok()) << model.status();
    auto grouping = BuildPatternGrouping(*dataset, *model);
    ASSERT_TRUE(grouping.ok()) << grouping.status();

    for (size_t c = 0; c < model->cluster_stats.size(); ++c) {
      const int k = model->cluster_stats[c]->num_sources();
      // Small clusters: every pattern; larger ones: every pattern the
      // dataset shows plus a seeded sample of the rest.
      std::vector<PatternKey> keys =
          k <= 6 ? AllKeys(k) : RandomKeys(k, 400, 7 + c);
      keys.insert(keys.end(), grouping->distinct[c].begin(),
                  grouping->distinct[c].end());
      ExpectPlanMatchesReference(*model, c, keys);
    }
  }
}

TEST(ElasticOracleTest, PlanRejectsInvalidPatterns) {
  const CorrelationModel model = MakeExampleModel();
  auto plan = MakeElasticPlan(model, /*level=*/2);
  ASSERT_TRUE(plan.ok());
  double given_true = 0.0;
  double given_false = 0.0;
  EXPECT_FALSE(plan->scorer(0, PatternKey{0b11, 0b10}, &given_true,
                            &given_false)
                   .ok());
  EXPECT_FALSE(plan->scorer(0, PatternKey{0b1, Mask{1} << 5}, &given_true,
                            &given_false)
                   .ok());
  EXPECT_FALSE(MakeElasticPlan(model, /*level=*/-1).ok());
}

}  // namespace
}  // namespace fuser
