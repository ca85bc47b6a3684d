#include "core/snapshot.h"

#include <utility>

namespace fuser {

const MethodServing* FusionSnapshot::FindServing(
    const std::string& name) const {
  auto it = serving.find(name);
  return it != serving.end() ? it->second.get() : nullptr;
}

StatusOr<ScoredPatterns> ScorePatternTable(
    const MethodContext& context, const MethodSpec& spec,
    const std::vector<std::vector<PatternKey>>& keys) {
  ScoredPatterns scored;
  FUSER_ASSIGN_OR_RETURN(scored.plan, MakeScoringPlan(context, spec));
  FUSER_ASSIGN_OR_RETURN(
      std::vector<std::vector<PatternLikelihood>> likelihood,
      ScorePatterns(keys, context.num_threads, scored.plan.scorer,
                    scored.plan.batch, context.pool));
  scored.table = BuildPatternPosteriorTable(likelihood, scored.plan.alpha);
  return scored;
}

StatusOr<std::shared_ptr<const MethodServing>> BuildMethodServing(
    const MethodContext& context, const MethodSpec& spec) {
  const MethodInfo* method = FindMethod(spec.kind);
  if (method != nullptr && method->pattern_based) {
    FUSER_ASSIGN_OR_RETURN(
        ScoredPatterns scored,
        ScorePatternTable(context, spec, context.grouping->distinct));
    return MakePatternServing(spec, std::move(scored.plan),
                              std::move(scored.table));
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
