// Tests for the pluggable method layer: MethodRegistry enumeration,
// registry-driven name parsing, capability flags, the shared pattern
// pipeline, and RunAll sharing one grouping across methods.
#include "core/fusion_method.h"

#include <algorithm>
#include <set>
#include <string>

#include "gtest/gtest.h"
#include "core/elastic.h"
#include "core/engine.h"
#include "core/pattern_pipeline.h"
#include "synth/generator.h"
#include "synth/motivating_example.h"

namespace fuser {
namespace {

TEST(MethodRegistryTest, EnumeratesAllEightMethods) {
  MethodRegistry& registry = MethodRegistry::Global();
  EXPECT_EQ(registry.size(), 8u);

  std::set<std::string> ids;
  for (const FusionMethod* method : registry.All()) {
    ids.insert(method->id());
  }
  EXPECT_EQ(ids, (std::set<std::string>{"union", "3estimates", "cosine",
                                        "ltm", "precrec", "precrec-corr",
                                        "aggressive", "elastic"}));

  for (MethodKind kind :
       {MethodKind::kUnion, MethodKind::kThreeEstimates, MethodKind::kCosine,
        MethodKind::kLtm, MethodKind::kPrecRec, MethodKind::kPrecRecCorr,
        MethodKind::kAggressive, MethodKind::kElastic}) {
    const FusionMethod* method = registry.Find(kind);
    ASSERT_NE(method, nullptr);
    EXPECT_EQ(method->kind(), kind);
    EXPECT_EQ(registry.Find(std::string(method->id())), method);
  }
  EXPECT_EQ(registry.Find("no-such-method"), nullptr);
}

TEST(MethodRegistryTest, RejectsDuplicateRegistration) {
  // A second method with an already-registered kind/id must be refused.
  class DuplicateElastic : public FusionMethod {
   public:
    MethodKind kind() const override { return MethodKind::kElastic; }
    const char* id() const override { return "elastic"; }
    std::optional<StatusOr<MethodSpec>> TryParse(
        const std::string&) const override {
      return std::nullopt;
    }
    StatusOr<std::vector<double>> Score(const MethodContext&,
                                        const MethodSpec&) const override {
      return Status::Unimplemented("duplicate");
    }
  };
  Status s = MethodRegistry::Global().Register(
      std::make_unique<DuplicateElastic>());
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(MethodRegistry::Global().size(), 8u);
}

TEST(MethodRegistryTest, ParseSpecNameRoundTrip) {
  // Every canonical name parses, and the parsed spec prints back the same
  // canonical name through the registry.
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
  // Malformed names of a claimed family fail with a specific error...
  EXPECT_EQ(ParseMethodSpec("union-150").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseMethodSpec("elastic-x").status().code(),
            StatusCode::kInvalidArgument);
  // Levels beyond int range must be rejected, not wrapped.
  EXPECT_EQ(ParseMethodSpec("elastic-4294967296").status().code(),
            StatusCode::kInvalidArgument);
  // NaN parses as a double but is not a percentage.
  EXPECT_EQ(ParseMethodSpec("union-nan").status().code(),
            StatusCode::kInvalidArgument);
  // ...and unknown names fail with "unknown method".
  auto unknown = ParseMethodSpec("wat");
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("unknown method"),
            std::string::npos);
}

TEST(MethodRegistryTest, CapabilityFlags) {
  MethodRegistry& registry = MethodRegistry::Global();
  // Correlated methods need the model; pattern-based ones share the
  // pipeline and parallelize.
  for (MethodKind kind : {MethodKind::kPrecRecCorr, MethodKind::kAggressive,
                          MethodKind::kElastic}) {
    EXPECT_TRUE(registry.Find(kind)->needs_model());
  }
  for (MethodKind kind : {MethodKind::kUnion, MethodKind::kThreeEstimates,
                          MethodKind::kCosine, MethodKind::kLtm,
                          MethodKind::kPrecRec}) {
    EXPECT_FALSE(registry.Find(kind)->needs_model());
    EXPECT_FALSE(registry.Find(kind)->pattern_based());
  }
  for (MethodKind kind : {MethodKind::kPrecRecCorr, MethodKind::kElastic}) {
    EXPECT_TRUE(registry.Find(kind)->pattern_based());
    EXPECT_TRUE(registry.Find(kind)->supports_threads());
  }
  EXPECT_FALSE(registry.Find(MethodKind::kAggressive)->pattern_based());
}

TEST(MethodRegistryTest, UnionThresholdTracksPercent) {
  MethodSpec spec = *ParseMethodSpec("union-25");
  const FusionMethod* method = MethodRegistry::Global().Find(spec.kind);
  ASSERT_NE(method, nullptr);
  EngineOptions options;
  EXPECT_LT(method->DefaultThreshold(spec, options), 0.25);
  EXPECT_GT(method->DefaultThreshold(spec, options), 0.2);
  // Non-voting methods use the engine-wide decision threshold.
  options.decision_threshold = 0.7;
  EXPECT_DOUBLE_EQ(MethodRegistry::Global()
                       .Find(MethodKind::kPrecRec)
                       ->DefaultThreshold(spec, options),
                   0.7);
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
  for (size_t idx : (*grouping)->pattern_of[0]) {
    EXPECT_LT(idx, (*grouping)->distinct[0].size());
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
