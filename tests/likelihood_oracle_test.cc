// The direct pattern likelihood against a brute-force oracle
// (tests/support/likelihood_oracle.h) that counts exact (providers, scope)
// matches over the training triples straight from the Dataset. Both forms
// (literal and calibrated) of both direct paths — the per-query
// DirectPatternLikelihood and the batched ScoreAllPatterns — must be
// byte-identical to it on the paper's Fig. 1 example and on the Fig. 6
// synthetic datasets (bench_paper's configurations and seeds), with scopes
// on and off, and after streamed ApplyPatternDeltas. Where the paper's
// inclusion-exclusion sum and the literal direct form compute the same
// quantity (no scopes, no clamped q), TermSummationLikelihood must agree
// with them to 1e-12.
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "core/joint_stats.h"
#include "core/precrec_corr.h"
#include "gtest/gtest.h"
#include "support/likelihood_oracle.h"
#include "support/paper_math.h"
#include "synth/generator.h"
#include "synth/motivating_example.h"

namespace fuser {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<SourceId> AllSources(const Dataset& d) {
  std::vector<SourceId> all(d.num_sources());
  for (SourceId s = 0; s < d.num_sources(); ++s) all[s] = s;
  return all;
}

/// Every disjoint (providers, nonproviders) pair over k sources.
std::vector<PatternQuery> AllQueries(int k) {
  std::vector<PatternQuery> queries;
  const Mask full = FullMask(k);
  for (Mask prov = 0; prov <= full; ++prov) {
    ForEachSubmask(full & ~prov,
                   [&](Mask nonprov) { queries.push_back({prov, nonprov}); });
  }
  return queries;
}

/// Asserts both direct paths of `stats` byte-identical to the oracle over
/// `train_mask`, for every query and both forms.
void ExpectDirectMatchesOracle(const EmpiricalJointStats& stats,
                               const Dataset& d,
                               const DynamicBitset& train_mask,
                               const std::vector<SourceId>& cluster,
                               const JointStatsOptions& options,
                               const std::string& what) {
  const std::vector<PatternQuery> queries =
      AllQueries(static_cast<int>(cluster.size()));
  const BruteForceLikelihood oracle(d, train_mask, cluster, options);
  for (bool calibrated : {false, true}) {
    SCOPED_TRACE(what + (calibrated ? " calibrated" : " literal"));
    std::vector<std::pair<double, double>> batched;
    ASSERT_TRUE(stats.ScoreAllPatterns(queries, calibrated, &batched).ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      const PatternQuery& q = queries[i];
      const auto [want_true, want_false] =
          oracle.Likelihood(q.providers, q.nonproviders, calibrated);
      double pt = 0.0;
      double pf = 0.0;
      ASSERT_TRUE(stats
                      .DirectPatternLikelihood(q.providers, q.nonproviders,
                                               calibrated, &pt, &pf)
                      .ok());
      ASSERT_EQ(Bits(pt), Bits(want_true))
          << "P=" << q.providers << " N=" << q.nonproviders;
      ASSERT_EQ(Bits(pf), Bits(want_false))
          << "P=" << q.providers << " N=" << q.nonproviders;
      ASSERT_EQ(Bits(batched[i].first), Bits(want_true)) << "query " << i;
      ASSERT_EQ(Bits(batched[i].second), Bits(want_false)) << "query " << i;
    }
  }
}

/// The Fig. 6 sweep points of bench_paper: {fraction_true, precision,
/// recall}, each generated at seeds 1000 + rep * 7919 for rep < 10.
struct Fig6Point {
  double fraction_true;
  double precision;
  double recall;
};

std::vector<Fig6Point> Fig6Points() {
  std::vector<Fig6Point> points;
  for (double r : {0.025, 0.075, 0.125, 0.175, 0.225}) {
    points.push_back({0.25, 0.1, r});  // 6a
  }
  for (double r : {0.075, 0.225, 0.375, 0.525, 0.675}) {
    points.push_back({0.5, 0.75, r});  // 6b
  }
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    points.push_back({0.25, p, 0.25});  // 6c
  }
  return points;
}

Dataset MakeFig6Dataset(const Fig6Point& point, int rep, size_t num_domains) {
  SyntheticConfig config = MakeIndependentConfig(
      5, 1000, point.fraction_true, point.precision, point.recall,
      1000 + static_cast<uint64_t>(rep) * 7919);
  config.num_domains = num_domains;
  auto dataset = GenerateSynthetic(config);
  EXPECT_TRUE(dataset.ok()) << dataset.status();
  return std::move(*dataset);
}

TEST(LikelihoodOracleTest, Figure1ExampleMatchesOracle) {
  Dataset d = MakeMotivatingExample();
  const std::vector<SourceId> cluster = AllSources(d);
  for (bool use_scopes : {false, true}) {
    JointStatsOptions options;
    options.use_scopes = use_scopes;
    auto stats =
        EmpiricalJointStats::Create(d, d.labeled_mask(), cluster, options);
    ASSERT_TRUE(stats.ok()) << stats.status();
    ExpectDirectMatchesOracle(**stats, d, d.labeled_mask(), cluster, options,
                              use_scopes ? "fig1 scopes" : "fig1");
  }
}

TEST(LikelihoodOracleTest, Figure6DatasetsMatchOracle) {
  // bench_paper's Fig. 6 datasets have no domains, so scopes cover every
  // source; the four-domain copies make the scope conditioning bite.
  for (const Fig6Point& point : Fig6Points()) {
    for (int rep = 0; rep < 10; ++rep) {
      for (size_t num_domains : {size_t{0}, size_t{4}}) {
        Dataset d = MakeFig6Dataset(point, rep, num_domains);
        const std::vector<SourceId> cluster = AllSources(d);
        for (bool use_scopes : {false, true}) {
          JointStatsOptions options;
          options.use_scopes = use_scopes;
          auto stats = EmpiricalJointStats::Create(d, d.labeled_mask(),
                                                   cluster, options);
          ASSERT_TRUE(stats.ok()) << stats.status();
          ExpectDirectMatchesOracle(
              **stats, d, d.labeled_mask(), cluster, options,
              "p=" + std::to_string(point.precision) +
                  " r=" + std::to_string(point.recall) +
                  " rep=" + std::to_string(rep) +
                  " domains=" + std::to_string(num_domains) +
                  " scopes=" + std::to_string(use_scopes));
        }
      }
    }
  }
}

TEST(LikelihoodOracleTest, MatchesOracleAfterPatternDeltas) {
  // Train on the even triples, then stream the switch to the triples not
  // divisible by three: removals, additions and unchanged triples mixed.
  for (size_t num_domains : {size_t{0}, size_t{4}}) {
    Dataset d = MakeFig6Dataset(Fig6Points()[7], /*rep=*/3, num_domains);
    const std::vector<SourceId> cluster = AllSources(d);
    DynamicBitset before(d.num_triples());
    DynamicBitset after(d.num_triples());
    for (TripleId t = 0; t < d.num_triples(); ++t) {
      if (t % 2 == 0) before.Set(t);
      if (t % 3 != 0) after.Set(t);
    }
    for (bool use_scopes : {false, true}) {
      JointStatsOptions options;
      options.use_scopes = use_scopes;
      auto stats = EmpiricalJointStats::Create(d, before, cluster, options);
      ASSERT_TRUE(stats.ok()) << stats.status();
      std::vector<JointPatternDelta> deltas;
      for (TripleId t = 0; t < d.num_triples(); ++t) {
        if (d.label(t) == Label::kUnknown || before.Test(t) == after.Test(t)) {
          continue;
        }
        const TripleObservation obs =
            ObserveTriple(d, cluster, use_scopes, t);
        deltas.push_back({obs.providers, obs.scope,
                          d.label(t) == Label::kTrue,
                          after.Test(t) ? 1 : -1});
      }
      ASSERT_FALSE(deltas.empty());
      ASSERT_TRUE((*stats)->ApplyPatternDeltas(deltas).ok());
      ExpectDirectMatchesOracle(**stats, d, after, cluster, options,
                                "deltas domains=" +
                                    std::to_string(num_domains) +
                                    " scopes=" + std::to_string(use_scopes));
    }
  }
}

TEST(LikelihoodOracleTest, TermSummationMatchesLiteralFormOnSmallClusters) {
  // Without scopes every joint parameter shares the true-count denominator,
  // so the inclusion-exclusion sum telescopes to the literal direct form —
  // as long as no q = alpha/(1-alpha) * n_false(S) / n_true is clamped to
  // 1 (EmpiricalJointStats::Get clamps; the direct form cannot).
  std::vector<Dataset> datasets;
  datasets.push_back(MakeMotivatingExample());
  for (const Fig6Point& point : Fig6Points()) {
    for (int rep = 0; rep < 10; ++rep) {
      datasets.push_back(MakeFig6Dataset(point, rep, /*num_domains=*/0));
    }
  }
  {
    SyntheticConfig config =
        MakeIndependentConfig(10, 2000, 0.5, 0.8, 0.3, /*seed=*/17);
    config.groups_true = {{{0, 1, 2, 3}, 0.8}};
    config.groups_false = {{{5, 6}, 0.7}};
    auto wide = GenerateSynthetic(config);
    ASSERT_TRUE(wide.ok()) << wide.status();
    datasets.push_back(std::move(*wide));
  }
  size_t checked = 0;
  for (const Dataset& d : datasets) {
    const std::vector<SourceId> cluster = AllSources(d);
    ASSERT_LE(cluster.size(), 10u);
    JointStatsOptions options;
    auto stats =
        EmpiricalJointStats::Create(d, d.labeled_mask(), cluster, options);
    ASSERT_TRUE(stats.ok()) << stats.status();
    const double odds = options.alpha / (1.0 - options.alpha);
    bool clamped = false;
    for (SourceId s = 0; s < cluster.size(); ++s) {
      clamped |= odds * static_cast<double>(
                            CountFalseSuperset(**stats, Mask{1} << s)) >
                 static_cast<double>((*stats)->total_true());
    }
    if (clamped) continue;
    ++checked;
    const BruteForceLikelihood oracle(d, d.labeled_mask(), cluster, options);
    for (const PatternQuery& q :
         AllQueries(static_cast<int>(cluster.size()))) {
      const auto [want_true, want_false] =
          oracle.Likelihood(q.providers, q.nonproviders, /*calibrated=*/false);
      double pt = 0.0;
      double pf = 0.0;
      ASSERT_TRUE(TermSummationLikelihood(**stats, q.providers,
                                          q.nonproviders, &pt, &pf)
                      .ok());
      ASSERT_NEAR(pt, want_true, 1e-12)
          << "P=" << q.providers << " N=" << q.nonproviders;
      ASSERT_NEAR(pf, want_false, 1e-12)
          << "P=" << q.providers << " N=" << q.nonproviders;
    }
  }
  // Every Fig. 6a dataset and the Fig. 6c p = 0.1 ones (precision 0.1,
  // 25% true) clamp a singleton q; the example, the other 90 Fig. 6
  // datasets and the 10-source cluster do not.
  EXPECT_EQ(checked, 92u);
}

}  // namespace
}  // namespace fuser
