#include "core/fusion_method.h"

#include <iterator>
#include <limits>
#include <string>

#include "baselines/union_k.h"
#include "common/string_util.h"
#include "core/aggressive.h"
#include "core/elastic.h"
#include "core/precrec.h"

namespace fuser {

namespace {

constexpr MethodInfo kMethods[] = {
    // kind, id, usage, needs_model, pattern_based, supports_threads,
    // shardable
    {MethodKind::kUnion, "union", "union-K", false, false, false, true},
    {MethodKind::kThreeEstimates, "3estimates", "3estimates", false, false,
     false, false},
    {MethodKind::kCosine, "cosine", "cosine", false, false, false, false},
    {MethodKind::kLtm, "ltm", "ltm", false, false, false, false},
    {MethodKind::kPrecRec, "precrec", "precrec", false, false, true, true},
    {MethodKind::kPrecRecCorr, "precrec-corr", "precrec-corr", true, true,
     true, true},
    {MethodKind::kAggressive, "aggressive", "aggressive", true, false, true,
     true},
    {MethodKind::kElastic, "elastic", "elastic-L", true, true, true, true},
};
static_assert(std::size(kMethods) ==
                  static_cast<size_t>(MethodKind::kElastic) + 1,
              "one table row per MethodKind");

}  // namespace

Span<MethodInfo> AllMethods() {
  return Span<MethodInfo>(kMethods, std::size(kMethods));
}

const MethodInfo* FindMethod(MethodKind kind) {
  const size_t index = static_cast<size_t>(kind);
  return index < std::size(kMethods) ? &kMethods[index] : nullptr;
}

Status ValidateEngineOptions(const EngineOptions& options) {
  FUSER_RETURN_IF_ERROR(ValidateQualityOptions(options.model));
  const bool scopes = options.model.use_scopes;
  if (options.three_estimates.use_scopes != scopes ||
      options.cosine.use_scopes != scopes || options.ltm.use_scopes != scopes) {
    return Status::InvalidArgument(
        "baseline use_scopes must equal model.use_scopes");
  }
  const double threshold = options.decision_threshold;
  if (!(threshold >= 0.0 && threshold <= 1.0)) {
    return Status::InvalidArgument("decision_threshold must be in [0,1]");
  }
  return Status::OK();
}

Status ValidateMethodSpec(const MethodSpec& spec) {
  if (FindMethod(spec.kind) == nullptr) {
    return Status::InvalidArgument("method kind out of range");
  }
  // The inverted comparison also rejects NaN, which would pass
  // percent < 0.0 || percent > 100.0 and poison the threshold.
  if (spec.kind == MethodKind::kUnion &&
      !(spec.union_percent >= 0.0 && spec.union_percent <= 100.0)) {
    return Status::InvalidArgument("percent must be in [0, 100]");
  }
  if (spec.kind == MethodKind::kElastic && spec.elastic_level < 0) {
    return Status::InvalidArgument("level must be >= 0");
  }
  return Status::OK();
}

std::string MethodSpec::Name() const {
  switch (kind) {
    case MethodKind::kUnion:
      return StrFormat("union-%g", union_percent);
    case MethodKind::kElastic:
      return StrFormat("elastic-%d", elastic_level);
    default: {
      const MethodInfo* method = FindMethod(kind);
      return method != nullptr ? method->id : "unknown";
    }
  }
}

StatusOr<MethodSpec> ParseMethodSpec(const std::string& name) {
  MethodSpec spec;
  if (name == "majority") {
    spec.kind = MethodKind::kUnion;
    spec.union_percent = 50.0;
    return spec;
  }
  if (StartsWith(name, "union-")) {
    spec.kind = MethodKind::kUnion;
    if (!ParseDouble(name.substr(6), &spec.union_percent) ||
        !ValidateMethodSpec(spec).ok()) {
      return Status::InvalidArgument("bad union percentage in: " + name);
    }
    return spec;
  }
  if (StartsWith(name, "elastic-")) {
    size_t level = 0;
    if (!ParseSizeT(name.substr(8), &level) ||
        level > static_cast<size_t>(std::numeric_limits<int>::max())) {
      return Status::InvalidArgument("bad elastic level in: " + name);
    }
    spec.kind = MethodKind::kElastic;
    spec.elastic_level = static_cast<int>(level);
    return spec;
  }
  std::string id = name;
  if (name == "3-estimates") id = "3estimates";
  if (name == "precreccorr") id = "precrec-corr";
  // Union-K and elastic-L only parse with their parameter (above).
  for (const MethodInfo& method : AllMethods()) {
    if (method.kind != MethodKind::kUnion &&
        method.kind != MethodKind::kElastic && id == method.id) {
      spec.kind = method.kind;
      return spec;
    }
  }
  return Status::InvalidArgument("unknown method: " + name);
}

double DefaultThreshold(const MethodSpec& spec, const EngineOptions& options) {
  return spec.kind == MethodKind::kUnion
             ? UnionKThreshold(spec.union_percent)
             : options.decision_threshold;
}

StatusOr<std::vector<double>> ScoreMethod(const MethodContext& context,
                                          const MethodSpec& spec) {
  const Dataset& dataset = *context.dataset;
  const EngineOptions& options = *context.options;
  switch (spec.kind) {
    case MethodKind::kUnion: {
      UnionKOptions union_options;
      union_options.percent = spec.union_percent;
      union_options.use_scopes = options.model.use_scopes;
      return UnionKScores(dataset, union_options);
    }
    case MethodKind::kThreeEstimates:
      return ThreeEstimatesScores(dataset, options.three_estimates);
    case MethodKind::kCosine:
      return CosineScores(dataset, options.cosine);
    case MethodKind::kLtm:
      return LtmScores(dataset, options.ltm);
    case MethodKind::kPrecRec:
      return PrecRecScores(dataset, *context.quality, options.model,
                           context.num_threads, context.pool);
    case MethodKind::kAggressive:
      return AggressiveScores(dataset, *context.model, context.num_threads,
                              context.pool);
    case MethodKind::kPrecRecCorr:
    case MethodKind::kElastic:
      return Status::Unimplemented(
          "pattern-based methods score through MakeScoringPlan");
  }
  return Status::Unimplemented("method kind not registered");
}

StatusOr<PatternScoringPlan> MakeScoringPlan(const MethodContext& context,
                                             const MethodSpec& spec) {
  switch (spec.kind) {
    case MethodKind::kPrecRecCorr:
      return MakePrecRecCorrPlan(*context.model, context.options->corr);
    case MethodKind::kElastic:
      return MakeElasticPlan(*context.model, spec.elastic_level);
    default:
      return Status::Unimplemented("method has no pattern scoring plan");
  }
}

}  // namespace fuser
