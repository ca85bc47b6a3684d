#include "core/snapshot.h"

#include <utility>

namespace fuser {

const MethodServing* FusionSnapshot::FindServing(
    const std::string& name) const {
  auto it = serving.find(name);
  return it != serving.end() ? it->second.get() : nullptr;
}

StatusOr<std::shared_ptr<const MethodServing>> BuildMethodServing(
    const MethodContext& context, const MethodSpec& spec) {
  const MethodInfo* method = FindMethod(spec.kind);
  if (method != nullptr && method->pattern_based) {
    FUSER_ASSIGN_OR_RETURN(PatternScoringPlan plan,
                           MakeScoringPlan(context, spec));
    FUSER_ASSIGN_OR_RETURN(
        std::vector<std::vector<PatternLikelihood>> likelihood,
        ScorePatterns(context.grouping->distinct, context.num_threads,
                      plan.scorer, plan.batch, context.pool));
    PatternPosteriorTable table =
        BuildPatternPosteriorTable(likelihood, plan.alpha);
    return MakePatternServing(spec, std::move(plan), std::move(table));
  }
  auto serving = std::make_shared<MethodServing>();
  serving->spec = spec;
  FUSER_ASSIGN_OR_RETURN(serving->dense, ScoreMethod(context, spec));
  return std::shared_ptr<const MethodServing>(std::move(serving));
}

std::shared_ptr<const MethodServing> MakePatternServing(
    const MethodSpec& spec, PatternScoringPlan plan,
    PatternPosteriorTable table) {
  auto serving = std::make_shared<MethodServing>();
  serving->spec = spec;
  serving->pattern_based = true;
  serving->table = std::move(table);
  serving->adhoc_scorer = std::move(plan.scorer);
  return serving;
}

}  // namespace fuser
