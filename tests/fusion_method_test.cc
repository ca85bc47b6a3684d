// Tests for the method table: its rows and flags, name parsing, the
// out-of-range kind, the shared pattern pipeline, and RunAll sharing one
// grouping across methods.
#include "core/fusion_method.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <string>

#include "gtest/gtest.h"
#include "core/elastic.h"
#include "core/engine.h"
#include "core/pattern_pipeline.h"
#include "shard/sharded_engine.h"
#include "synth/generator.h"
#include "synth/motivating_example.h"

namespace fuser {
namespace {

TEST(MethodTableTest, EnumeratesAllEightMethods) {
  const Span<MethodInfo> methods = AllMethods();
  ASSERT_EQ(methods.size(), 8u);
  std::set<std::string> ids;
  for (size_t i = 0; i < methods.size(); ++i) {
    // Row i is kind i, so FindMethod indexes the table directly.
    EXPECT_EQ(static_cast<size_t>(methods[i].kind), i);
    EXPECT_EQ(FindMethod(methods[i].kind), &methods[i]);
    ids.insert(methods[i].id);
    // Every kind's default spec prints a name that parses back to it.
    MethodSpec spec;
    spec.kind = methods[i].kind;
    auto parsed = ParseMethodSpec(spec.Name());
    ASSERT_TRUE(parsed.ok()) << spec.Name();
    EXPECT_EQ(parsed->kind, methods[i].kind) << spec.Name();
  }
  EXPECT_EQ(ids.size(), methods.size());  // ids are unique
  EXPECT_EQ(FindMethod(static_cast<MethodKind>(99)), nullptr);
  EXPECT_EQ(FindMethod(static_cast<MethodKind>(-1)), nullptr);
}

TEST(MethodTableTest, ParseSpecNameRoundTrip) {
  // Every canonical name parses, and the parsed spec prints back the same
  // canonical name.
  for (const char* name :
       {"union-25", "union-50", "union-75", "3estimates", "cosine", "ltm",
        "precrec", "precrec-corr", "aggressive", "elastic-0", "elastic-3",
        "elastic-12"}) {
    auto spec = ParseMethodSpec(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_EQ(spec->Name(), name);
    // Round-trip again through the parsed name.
    auto reparsed = ParseMethodSpec(spec->Name());
    ASSERT_TRUE(reparsed.ok()) << name;
    EXPECT_EQ(reparsed->Name(), spec->Name());
  }
  // Aliases normalize to their canonical spelling.
  EXPECT_EQ(ParseMethodSpec("majority")->Name(), "union-50");
  EXPECT_EQ(ParseMethodSpec("3-estimates")->Name(), "3estimates");
  EXPECT_EQ(ParseMethodSpec("precreccorr")->Name(), "precrec-corr");
  // Malformed names of a parameterized family fail with a specific error...
  EXPECT_EQ(ParseMethodSpec("union-150").status().message(),
            "bad union percentage in: union-150");
  EXPECT_EQ(ParseMethodSpec("elastic-x").status().message(),
            "bad elastic level in: elastic-x");
  EXPECT_EQ(ParseMethodSpec("union-150").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseMethodSpec("elastic-x").status().code(),
            StatusCode::kInvalidArgument);
  // Levels beyond int range must be rejected, not wrapped.
  EXPECT_EQ(ParseMethodSpec("elastic-4294967296").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseMethodSpec("elastic--1").status().code(),
            StatusCode::kInvalidArgument);
  // NaN parses as a double but is not a percentage.
  EXPECT_EQ(ParseMethodSpec("union-nan").status().code(),
            StatusCode::kInvalidArgument);
  // ...and unknown names fail with "unknown method", the bare family ids
  // of the parameterized methods included.
  for (const char* name : {"wat", "union", "elastic"}) {
    auto unknown = ParseMethodSpec(name);
    EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(unknown.status().message(), std::string("unknown method: ") +
                                              name);
  }
}

TEST(MethodTableTest, ValidateMethodSpecChecksOnlyTheKindsFields) {
  MethodSpec spec;
  spec.kind = MethodKind::kUnion;
  for (double percent : {0.0, 37.5, 100.0}) {
    spec.union_percent = percent;
    EXPECT_TRUE(ValidateMethodSpec(spec).ok()) << percent;
  }
  for (double percent : {-1.0, 150.0, std::nan("")}) {
    spec.union_percent = percent;
    EXPECT_EQ(ValidateMethodSpec(spec).code(), StatusCode::kInvalidArgument)
        << percent;
  }
  spec.kind = MethodKind::kElastic;
  spec.elastic_level = 0;
  EXPECT_TRUE(ValidateMethodSpec(spec).ok());
  spec.elastic_level = -1;
  EXPECT_EQ(ValidateMethodSpec(spec).code(), StatusCode::kInvalidArgument);
  // A precrec spec ignores the union and elastic fields.
  spec.kind = MethodKind::kPrecRec;
  spec.union_percent = 150.0;
  EXPECT_TRUE(ValidateMethodSpec(spec).ok());
  spec.kind = static_cast<MethodKind>(99);
  EXPECT_EQ(ValidateMethodSpec(spec).code(), StatusCode::kInvalidArgument);
}

TEST(MethodTableTest, CapabilityFlags) {
  struct Row {
    const char* id;
    const char* usage;
    bool needs_model, pattern_based, supports_threads, shardable;
  };
  // In MethodKind order.
  const Row expected[] = {
      {"union", "union-K", false, false, false, true},
      {"3estimates", "3estimates", false, false, false, false},
      {"cosine", "cosine", false, false, false, false},
      {"ltm", "ltm", false, false, false, false},
      {"precrec", "precrec", false, false, true, true},
      {"precrec-corr", "precrec-corr", true, true, true, true},
      {"aggressive", "aggressive", true, false, true, true},
      {"elastic", "elastic-L", true, true, true, true},
  };
  const Span<MethodInfo> methods = AllMethods();
  ASSERT_EQ(methods.size(), std::size(expected));
  for (size_t i = 0; i < methods.size(); ++i) {
    const MethodInfo& method = methods[i];
    const Row& want = expected[i];
    EXPECT_STREQ(method.id, want.id);
    EXPECT_STREQ(method.usage, want.usage);
    EXPECT_EQ(method.needs_model, want.needs_model) << want.id;
    EXPECT_EQ(method.pattern_based, want.pattern_based) << want.id;
    EXPECT_EQ(method.supports_threads, want.supports_threads) << want.id;
    EXPECT_EQ(method.shardable, want.shardable) << want.id;
    // A pattern-based method needs the model its plan scores with.
    EXPECT_TRUE(!method.pattern_based || method.needs_model) << want.id;
  }
}

TEST(MethodTableTest, UnionThresholdTracksPercent) {
  MethodSpec spec = *ParseMethodSpec("union-25");
  EngineOptions options;
  EXPECT_LT(DefaultThreshold(spec, options), 0.25);
  EXPECT_GT(DefaultThreshold(spec, options), 0.2);
  // Non-voting methods use the engine-wide decision threshold.
  options.decision_threshold = 0.7;
  spec.kind = MethodKind::kPrecRec;
  EXPECT_DOUBLE_EQ(DefaultThreshold(spec, options), 0.7);
}

TEST(MethodTableTest, OutOfRangeKindIsUnimplemented) {
  MethodSpec bad;
  bad.kind = static_cast<MethodKind>(99);
  EXPECT_EQ(bad.Name(), "unknown");

  Dataset d = MakeMotivatingExample();
  FusionEngine engine(&d, {});
  ASSERT_TRUE(engine.Prepare(d.labeled_mask()).ok());
  EXPECT_EQ(engine.Run(bad).status().code(), StatusCode::kUnimplemented);
  // RunAll rejects the lineup up front, before scoring the good spec.
  EXPECT_EQ(engine.RunAll({*ParseMethodSpec("precrec-corr"), bad})
                .status()
                .code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(engine.pattern_grouping_builds(), 0u);
  EXPECT_EQ(engine.PublishSnapshot({bad}).status().code(),
            StatusCode::kUnimplemented);
  // An in-range kind with an invalid parameter is InvalidArgument: a NaN
  // percentage would otherwise vote with a NaN threshold and save a
  // serving entry no decoder loads.
  MethodSpec nan_union;
  nan_union.kind = MethodKind::kUnion;
  nan_union.union_percent = std::nan("");
  EXPECT_EQ(engine.Run(nan_union).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.PublishSnapshot({nan_union}).status().code(),
            StatusCode::kInvalidArgument);

  SyntheticConfig config =
      MakeIndependentConfig(6, 600, 0.4, 0.7, 0.4, /*seed=*/83);
  config.num_domains = 6;
  auto sharded_data = GenerateSynthetic(config);
  ASSERT_TRUE(sharded_data.ok());
  auto sharded = ShardedFusionEngine::Create(*sharded_data, ShardingOptions{2},
                                             EngineOptions{});
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_TRUE((*sharded)->Prepare(sharded_data->labeled_mask()).ok());
  EXPECT_EQ((*sharded)->Run(bad).status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ((*sharded)->PublishSnapshot({bad}).status().code(),
            StatusCode::kUnimplemented);
}

TEST(PatternPipelineTest, GroupingMatchesDatasetAndModel) {
  Dataset d = MakeMotivatingExample();
  FusionEngine engine(&d, {});
  ASSERT_TRUE(engine.Prepare(d.labeled_mask()).ok());
  auto grouping = engine.GetPatternGrouping();
  ASSERT_TRUE(grouping.ok());
  ASSERT_EQ((*grouping)->num_clusters(), 1u);
  EXPECT_EQ((*grouping)->num_triples, d.num_triples());
  EXPECT_GT((*grouping)->TotalDistinct(), 0u);
  EXPECT_LE((*grouping)->TotalDistinct(), d.num_triples());
  // Every triple points at a valid distinct pattern.
  for (size_t t = 0; t < d.num_triples(); ++t) {
    EXPECT_LT((*grouping)->pattern_id(0, t), (*grouping)->distinct[0].size());
  }
  // Patterns are distinct: no (providers, nonproviders) pair repeats.
  const auto& distinct = (*grouping)->distinct[0];
  for (size_t i = 0; i < distinct.size(); ++i) {
    for (size_t j = i + 1; j < distinct.size(); ++j) {
      EXPECT_FALSE(distinct[i] == distinct[j]);
    }
  }
}

TEST(PatternPipelineTest, RejectsGroupingFromDifferentModel) {
  // A grouping built under one scope setting must not silently score
  // against a model with another: the fingerprint check turns structural
  // mismatch into an error.
  SyntheticConfig config =
      MakeIndependentConfig(5, 800, 0.4, 0.7, 0.4, /*seed=*/61);
  config.num_domains = 4;
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());

  EngineOptions scoped_options;
  scoped_options.model.use_scopes = true;
  FusionEngine plain(&*d, {});
  FusionEngine scoped(&*d, scoped_options);
  ASSERT_TRUE(plain.Prepare(d->labeled_mask()).ok());
  ASSERT_TRUE(scoped.Prepare(d->labeled_mask()).ok());
  auto plain_grouping = plain.GetPatternGrouping();
  auto scoped_model = scoped.GetModel();
  ASSERT_TRUE(plain_grouping.ok());
  ASSERT_TRUE(scoped_model.ok());

  auto plan = MakePrecRecCorrPlan(**scoped_model, PrecRecCorrOptions{});
  ASSERT_TRUE(plan.ok());
  auto mismatched = ScorePlan(*d, **scoped_model, *plan, *plain_grouping);
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  // The matching grouping is accepted.
  auto matched =
      ScorePlan(*d, **scoped_model, *plan, *scoped.GetPatternGrouping());
  EXPECT_TRUE(matched.ok()) << matched.status();
}

TEST(PatternPipelineTest, ExplicitGroupingMatchesLocalBuild) {
  // Methods must score identically whether they build the grouping
  // themselves or receive the engine's cached one.
  SyntheticConfig config =
      MakeIndependentConfig(6, 1200, 0.4, 0.7, 0.4, /*seed=*/97);
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());
  FusionEngine engine(&*d, {});
  ASSERT_TRUE(engine.Prepare(d->labeled_mask()).ok());
  auto model = engine.GetModel();
  ASSERT_TRUE(model.ok());
  auto grouping = engine.GetPatternGrouping();
  ASSERT_TRUE(grouping.ok());

  auto corr_plan = MakePrecRecCorrPlan(**model, PrecRecCorrOptions{});
  ASSERT_TRUE(corr_plan.ok());
  auto with_cache = ScorePlan(*d, **model, *corr_plan, *grouping);
  auto without_cache = ScorePlan(*d, **model, *corr_plan);
  ASSERT_TRUE(with_cache.ok());
  ASSERT_TRUE(without_cache.ok());
  EXPECT_EQ(*with_cache, *without_cache);

  auto elastic_plan = MakeElasticPlan(**model, /*level=*/3);
  ASSERT_TRUE(elastic_plan.ok());
  auto elastic_cached = ScorePlan(*d, **model, *elastic_plan, *grouping);
  auto elastic_local = ScorePlan(*d, **model, *elastic_plan);
  ASSERT_TRUE(elastic_cached.ok());
  ASSERT_TRUE(elastic_local.ok());
  EXPECT_EQ(*elastic_cached, *elastic_local);
}

TEST(RunAllTest, MatchesIndividualRunsAndBuildsGroupingOnce) {
  SyntheticConfig config =
      MakeIndependentConfig(6, 1500, 0.4, 0.7, 0.4, /*seed=*/131);
  auto d = GenerateSynthetic(config);
  ASSERT_TRUE(d.ok());

  std::vector<MethodSpec> specs = {*ParseMethodSpec("precrec"),
                                   *ParseMethodSpec("precrec-corr"),
                                   *ParseMethodSpec("elastic-3")};

  FusionEngine all_engine(&*d, {});
  ASSERT_TRUE(all_engine.Prepare(d->labeled_mask()).ok());
  EXPECT_EQ(all_engine.pattern_grouping_builds(), 0u);
  auto runs = all_engine.RunAll(specs);
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs->size(), specs.size());
  // One grouping pass serves both pattern-based methods of the lineup.
  EXPECT_EQ(all_engine.pattern_grouping_builds(), 1u);

  FusionEngine one_engine(&*d, {});
  ASSERT_TRUE(one_engine.Prepare(d->labeled_mask()).ok());
  for (size_t i = 0; i < specs.size(); ++i) {
    auto run = one_engine.Run(specs[i]);
    ASSERT_TRUE(run.ok()) << specs[i].Name();
    // Byte-identical scores: the shared pipeline must not perturb results.
    ASSERT_EQ(run->scores.size(), (*runs)[i].scores.size());
    for (size_t t = 0; t < run->scores.size(); ++t) {
      EXPECT_EQ(run->scores[t], (*runs)[i].scores[t])
          << specs[i].Name() << " triple " << t;
    }
    EXPECT_EQ(run->threshold, (*runs)[i].threshold);
  }
  EXPECT_EQ(one_engine.pattern_grouping_builds(), 1u);
}

TEST(RunAllTest, FullLineupSharesOneGrouping) {
  Dataset d = MakeMotivatingExample();
  FusionEngine engine(&d, {});
  ASSERT_TRUE(engine.Prepare(d.labeled_mask()).ok());
  std::vector<MethodSpec> specs;
  for (const char* name : {"union-25", "union-50", "union-75", "3estimates",
                           "cosine", "ltm", "precrec", "precrec-corr",
                           "aggressive", "elastic-2"}) {
    auto spec = ParseMethodSpec(name);
    ASSERT_TRUE(spec.ok()) << name;
    specs.push_back(*spec);
  }
  auto runs = engine.RunAll(specs);
  ASSERT_TRUE(runs.ok()) << runs.status();
  ASSERT_EQ(runs->size(), specs.size());
  EXPECT_EQ(engine.pattern_grouping_builds(), 1u);
  for (size_t i = 0; i < runs->size(); ++i) {
    EXPECT_EQ((*runs)[i].spec.Name(), specs[i].Name());
    EXPECT_EQ((*runs)[i].scores.size(), d.num_triples());
  }
}

TEST(RunAllTest, RequiresPrepare) {
  Dataset d = MakeMotivatingExample();
  FusionEngine engine(&d, {});
  EXPECT_EQ(engine.RunAll({{MethodKind::kPrecRec}}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(RunAllTest, PrepareInvalidatesCachedGrouping) {
  Dataset d = MakeMotivatingExample();
  FusionEngine engine(&d, {});
  ASSERT_TRUE(engine.Prepare(d.labeled_mask()).ok());
  ASSERT_TRUE(engine.Run(*ParseMethodSpec("precrec-corr")).ok());
  EXPECT_EQ(engine.pattern_grouping_builds(), 1u);
  // Re-preparing drops the model and the grouping; the next pattern-based
  // run rebuilds it.
  ASSERT_TRUE(engine.Prepare(d.labeled_mask()).ok());
  ASSERT_TRUE(engine.Run(*ParseMethodSpec("elastic-2")).ok());
  EXPECT_EQ(engine.pattern_grouping_builds(), 2u);
}

}  // namespace
}  // namespace fuser
