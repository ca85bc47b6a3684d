// The method table: the paper's closed family of eight fusion methods.
//
// The paper evaluates a fixed family side by side (Fig. 4): voting and
// iterative baselines, independence-based precision/recall fusion
// (Theorem 3.1), exact correlated fusion (Theorem 4.2), the aggressive
// approximation (Definition 4.5), and the elastic tuning knob
// (Algorithm 1). MethodKind names them, one MethodInfo row per kind holds
// their names and capability flags, and two free functions run them:
// ScoreMethod for the six methods that score triples directly and
// MakeScoringPlan for the two pattern-based ones.
//
// The capability flags tell the engine what shared inputs a method needs:
// the correlation model (built once per Prepare) and, for pattern-based
// methods, the distinct-pattern grouping (built once and shared by every
// such method, see core/pattern_pipeline.h).
#ifndef FUSER_CORE_FUSION_METHOD_H_
#define FUSER_CORE_FUSION_METHOD_H_

#include <string>
#include <vector>

#include "baselines/cosine.h"
#include "baselines/ltm.h"
#include "baselines/three_estimates.h"
#include "common/span.h"
#include "common/status.h"
#include "core/correlation_model.h"
#include "core/pattern_pipeline.h"
#include "core/precrec_corr.h"
#include "core/quality.h"
#include "model/dataset.h"

namespace fuser {

class ThreadPool;

enum class MethodKind {
  kUnion,           // Union-K voting (K = union_percent)
  kThreeEstimates,  // Galland et al. baseline
  kCosine,          // Galland et al. baseline
  kLtm,             // Latent Truth Model (Zhao et al.)
  kPrecRec,         // Theorem 3.1 (independence)
  kPrecRecCorr,     // Theorem 4.2 (exact)
  kAggressive,      // Definition 4.5
  kElastic,         // Algorithm 1 at elastic_level
};

struct MethodSpec {
  MethodKind kind = MethodKind::kPrecRecCorr;
  double union_percent = 50.0;
  int elastic_level = 3;

  /// Canonical name, e.g. "union-25", "precrec", "elastic-3"; "unknown"
  /// for a kind outside the enum.
  std::string Name() const;
};

/// Parses names like "union-25", "majority", "3estimates", "cosine", "ltm",
/// "precrec", "precrec-corr", "aggressive", "elastic-2" (the inverse of
/// MethodSpec::Name, plus the aliases "majority", "3-estimates" and
/// "precreccorr").
StatusOr<MethodSpec> ParseMethodSpec(const std::string& name);

struct EngineOptions {
  ModelOptions model;
  /// Accept a triple when score >= decision_threshold (paper: 0.5).
  double decision_threshold = 0.5;
  /// Worker threads for methods that parallelize; 0 = one per hardware
  /// thread (see ResolveNumThreads).
  size_t num_threads = 0;
  ThreeEstimatesOptions three_estimates;
  CosineOptions cosine;
  LtmOptions ltm;
  PrecRecCorrOptions corr;
};

/// Rejects options no engine may run under: alpha outside (0, 1), a
/// negative or non-finite smoothing, or a decision threshold outside
/// [0, 1]. FusionEngine::Prepare and the snapshot decoder both apply it,
/// so an engine never saves a file it cannot load.
Status ValidateEngineOptions(const EngineOptions& options);

/// Everything a method may need to score a dataset. The engine populates
/// the shared fields once and reuses them across methods: `model` is set
/// iff the method's row sets needs_model, `grouping` iff it sets
/// pattern_based.
struct MethodContext {
  const Dataset* dataset = nullptr;
  const EngineOptions* options = nullptr;
  /// Per-source quality estimated by FusionEngine::Prepare.
  const std::vector<SourceQuality>* quality = nullptr;
  const CorrelationModel* model = nullptr;
  const PatternGrouping* grouping = nullptr;
  /// Resolved worker count (never 0).
  size_t num_threads = 1;
  /// The engine's persistent worker pool (null when num_threads == 1 or
  /// the method runs outside an engine). Methods pass it to ParallelFor /
  /// ScorePatterns so repeated Run calls reuse warm threads.
  ThreadPool* pool = nullptr;
};

/// One row of the method table: a method's names and the shared inputs
/// the engine must build before running it.
struct MethodInfo {
  MethodKind kind;
  /// Stable family id, e.g. "union", "precrec-corr", "elastic".
  const char* id;
  /// Name pattern for usage strings, e.g. "union-K", "elastic-L".
  const char* usage;
  /// Consumes the correlation model (Section 4 methods).
  bool needs_model;
  /// Scores distinct observation patterns: the method is exactly its
  /// PatternScoringPlan (MakeScoringPlan). Run gathers the plan's
  /// per-pattern posterior table, and a FusionSnapshot keeps that table to
  /// serve point queries, ad-hoc observations included. Implies
  /// needs_model.
  bool pattern_based;
  /// Parallelizes across MethodContext::num_threads workers; every other
  /// method receives num_threads = 1.
  bool supports_threads;
  /// Each triple's score depends only on its own observation pattern and
  /// globally-mergeable parameters, so per-shard runs stitch to the exact
  /// unsharded scores. The iterative baselines (cosine, 3-estimates, LTM)
  /// couple all triples and are not.
  bool shardable;
};

/// Every method's row, in MethodKind order (baselines first, then the
/// paper's methods: the Fig. 4 lineup).
Span<MethodInfo> AllMethods();

/// The row of `kind`, or null for a kind outside the enum.
const MethodInfo* FindMethod(MethodKind kind);

/// Rejects a spec no method can run: a kind outside the enum, a union
/// percentage outside [0, 100] (NaN included), or a negative elastic level.
/// Fields the kind does not use are not checked. ParseMethodSpec, the
/// engine and the snapshot decoder all apply it.
Status ValidateMethodSpec(const MethodSpec& spec);

/// Decision threshold for `spec`: union-K votes with its percentage-derived
/// UnionKThreshold, every other method uses options.decision_threshold.
double DefaultThreshold(const MethodSpec& spec, const EngineOptions& options);

/// Scores every triple of context.dataset with a value in [0, 1]; for every
/// method that is not pattern_based.
StatusOr<std::vector<double>> ScoreMethod(const MethodContext& context,
                                          const MethodSpec& spec);

/// The pattern-scoring plan of a pattern_based method. The returned
/// closures capture context.model by pointer: callers (the engine's
/// snapshot publisher) must keep the model alive for the plan's lifetime.
StatusOr<PatternScoringPlan> MakeScoringPlan(const MethodContext& context,
                                             const MethodSpec& spec);

}  // namespace fuser

#endif  // FUSER_CORE_FUSION_METHOD_H_
