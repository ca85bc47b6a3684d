#include "core/fusion_method.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "baselines/method_adapters.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/aggressive.h"
#include "core/elastic.h"
#include "core/precrec.h"

namespace fuser {

namespace {

class PrecRecMethod : public FusionMethod {
 public:
  MethodKind kind() const override { return MethodKind::kPrecRec; }
  const char* id() const override { return "precrec"; }
  bool supports_threads() const override { return true; }
  bool shardable() const override { return true; }

  std::optional<StatusOr<MethodSpec>> TryParse(
      const std::string& name) const override {
    if (name != "precrec") {
      return std::nullopt;
    }
    MethodSpec spec;
    spec.kind = kind();
    return spec;
  }

  StatusOr<std::vector<double>> Score(const MethodContext& context,
                                      const MethodSpec& spec) const override {
    (void)spec;
    PrecRecOptions options;
    options.alpha = context.options->model.alpha;
    options.use_scopes = context.options->model.use_scopes;
    return PrecRecScores(*context.dataset, *context.quality, options,
                         context.num_threads, context.pool);
  }
};

class PrecRecCorrMethod : public FusionMethod {
 public:
  MethodKind kind() const override { return MethodKind::kPrecRecCorr; }
  const char* id() const override { return "precrec-corr"; }
  bool needs_model() const override { return true; }
  bool pattern_based() const override { return true; }
  bool supports_threads() const override { return true; }
  bool shardable() const override { return true; }

  StatusOr<PatternScoringPlan> MakeScoringPlan(
      const MethodContext& context, const MethodSpec& spec) const override {
    (void)spec;
    return MakePrecRecCorrPlan(*context.model, context.options->corr);
  }

  std::optional<StatusOr<MethodSpec>> TryParse(
      const std::string& name) const override {
    if (name != "precrec-corr" && name != "precreccorr") {
      return std::nullopt;
    }
    MethodSpec spec;
    spec.kind = kind();
    return spec;
  }
};

class AggressiveMethod : public FusionMethod {
 public:
  MethodKind kind() const override { return MethodKind::kAggressive; }
  const char* id() const override { return "aggressive"; }
  bool needs_model() const override { return true; }
  bool supports_threads() const override { return true; }
  bool shardable() const override { return true; }

  std::optional<StatusOr<MethodSpec>> TryParse(
      const std::string& name) const override {
    if (name != "aggressive") {
      return std::nullopt;
    }
    MethodSpec spec;
    spec.kind = kind();
    return spec;
  }

  StatusOr<std::vector<double>> Score(const MethodContext& context,
                                      const MethodSpec& spec) const override {
    (void)spec;
    return AggressiveScores(*context.dataset, *context.model,
                            context.num_threads, context.pool);
  }
};

class ElasticMethod : public FusionMethod {
 public:
  MethodKind kind() const override { return MethodKind::kElastic; }
  const char* id() const override { return "elastic"; }
  const char* usage() const override { return "elastic-L"; }
  bool needs_model() const override { return true; }
  bool pattern_based() const override { return true; }
  bool supports_threads() const override { return true; }
  bool shardable() const override { return true; }

  StatusOr<PatternScoringPlan> MakeScoringPlan(
      const MethodContext& context, const MethodSpec& spec) const override {
    return MakeElasticPlan(*context.model, spec.elastic_level);
  }

  std::optional<StatusOr<MethodSpec>> TryParse(
      const std::string& name) const override {
    if (!StartsWith(name, "elastic-")) {
      return std::nullopt;
    }
    size_t level = 0;
    if (!ParseSizeT(name.substr(8), &level) ||
        level > static_cast<size_t>(std::numeric_limits<int>::max())) {
      return StatusOr<MethodSpec>(
          Status::InvalidArgument("bad elastic level in: " + name));
    }
    MethodSpec spec;
    spec.kind = kind();
    spec.elastic_level = static_cast<int>(level);
    return spec;
  }

  std::string SpecName(const MethodSpec& spec) const override {
    return StrFormat("elastic-%d", spec.elastic_level);
  }
};

Status RegisterCoreFusionMethods(MethodRegistry* registry) {
  FUSER_RETURN_IF_ERROR(registry->Register(std::make_unique<PrecRecMethod>()));
  FUSER_RETURN_IF_ERROR(
      registry->Register(std::make_unique<PrecRecCorrMethod>()));
  FUSER_RETURN_IF_ERROR(
      registry->Register(std::make_unique<AggressiveMethod>()));
  FUSER_RETURN_IF_ERROR(registry->Register(std::make_unique<ElasticMethod>()));
  return Status::OK();
}

}  // namespace

Status ValidateEngineOptions(const EngineOptions& options) {
  const double alpha = options.model.alpha;
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return Status::InvalidArgument("alpha must be in (0,1)");
  }
  const double smoothing = options.model.smoothing;
  if (!std::isfinite(smoothing) || smoothing < 0.0) {
    return Status::InvalidArgument("smoothing must be finite and >= 0");
  }
  const double threshold = options.decision_threshold;
  if (!(threshold >= 0.0 && threshold <= 1.0)) {
    return Status::InvalidArgument("decision_threshold must be in [0,1]");
  }
  return Status::OK();
}

std::string MethodSpec::Name() const {
  const FusionMethod* method = MethodRegistry::Global().Find(kind);
  return method != nullptr ? method->SpecName(*this) : "unknown";
}

StatusOr<MethodSpec> ParseMethodSpec(const std::string& name) {
  return MethodRegistry::Global().ParseSpec(name);
}

MethodRegistry& MethodRegistry::Global() {
  static MethodRegistry* registry = [] {
    auto* r = new MethodRegistry();
    // Registration order fixes name-resolution and enumeration order:
    // baselines first, then the paper's methods (the Fig. 4 lineup).
    Status s = RegisterBaselineFusionMethods(r);
    FUSER_CHECK(s.ok()) << s;
    s = RegisterCoreFusionMethods(r);
    FUSER_CHECK(s.ok()) << s;
    return r;
  }();
  return *registry;
}

Status MethodRegistry::Register(std::unique_ptr<FusionMethod> method) {
  FUSER_CHECK(method != nullptr);
  for (const auto& existing : methods_) {
    if (existing->kind() == method->kind() ||
        std::string(existing->id()) == method->id()) {
      return Status::AlreadyExists(std::string("method already registered: ") +
                                   method->id());
    }
  }
  methods_.push_back(std::move(method));
  return Status::OK();
}

const FusionMethod* MethodRegistry::Find(MethodKind kind) const {
  for (const auto& method : methods_) {
    if (method->kind() == kind) return method.get();
  }
  return nullptr;
}

const FusionMethod* MethodRegistry::Find(const std::string& id) const {
  for (const auto& method : methods_) {
    if (id == method->id()) return method.get();
  }
  return nullptr;
}

StatusOr<MethodSpec> MethodRegistry::ParseSpec(const std::string& name) const {
  for (const auto& method : methods_) {
    std::optional<StatusOr<MethodSpec>> parsed = method->TryParse(name);
    if (parsed.has_value()) {
      return std::move(*parsed);
    }
  }
  return Status::InvalidArgument("unknown method: " + name);
}

std::vector<const FusionMethod*> MethodRegistry::All() const {
  std::vector<const FusionMethod*> methods;
  methods.reserve(methods_.size());
  for (const auto& method : methods_) {
    methods.push_back(method.get());
  }
  return methods;
}

}  // namespace fuser
