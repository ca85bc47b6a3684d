// FusionMethod: the pluggable method layer.
//
// The paper's contribution is a *family* of fusion methods — voting and
// iterative baselines, independence-based precision/recall fusion
// (Theorem 3.1), exact correlated fusion (Theorem 4.2), the aggressive
// approximation (Definition 4.5), and the elastic tuning knob
// (Algorithm 1) — evaluated side by side. Each method implements the
// FusionMethod interface and registers itself in the MethodRegistry; the
// engine resolves a MethodSpec through the registry instead of switching
// over an enum, so new methods plug in without touching the engine.
//
// Capability flags tell the engine what shared inputs a method needs: the
// correlation model (built once per Prepare) and, for pattern-based
// methods, the distinct-pattern grouping (built once and shared by every
// such method, see core/pattern_pipeline.h). A pattern-based method is
// exactly its PatternScoringPlan: it has no Score of its own.
#ifndef FUSER_CORE_FUSION_METHOD_H_
#define FUSER_CORE_FUSION_METHOD_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/cosine.h"
#include "baselines/ltm.h"
#include "baselines/three_estimates.h"
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

  /// Canonical name, e.g. "union-25", "precrec", "elastic-3"; resolved
  /// through the MethodRegistry.
  std::string Name() const;
};

/// Parses names like "union-25", "majority", "3estimates", "cosine", "ltm",
/// "precrec", "precrec-corr", "aggressive", "elastic-2". Registry-driven:
/// every registered method gets a chance to claim the name.
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
/// iff the method declares needs_model(), `grouping` iff it is
/// pattern_based().
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

/// One fusion method. Implementations are stateless: all inputs arrive via
/// the MethodContext and the MethodSpec, so a single registered instance
/// serves every engine and thread.
class FusionMethod {
 public:
  virtual ~FusionMethod() = default;

  virtual MethodKind kind() const = 0;

  /// Stable family id, e.g. "union", "precrec-corr", "elastic".
  virtual const char* id() const = 0;

  /// Human-readable name pattern for usage strings, e.g. "union-K",
  /// "elastic-L". Defaults to id().
  virtual const char* usage() const { return id(); }

  // -- Capability flags -----------------------------------------------------

  /// The method consumes the correlation model (Section 4 methods).
  virtual bool needs_model() const { return false; }

  /// The method scores distinct observation patterns: it is exactly its
  /// PatternScoringPlan (MakeScoringPlan — per-pattern likelihoods plus
  /// the combine prior). The engine shares its cached PatternGrouping with
  /// the plan, Run gathers the plan's per-pattern posterior table, and a
  /// FusionSnapshot keeps that table to serve point queries — including
  /// ad-hoc observations the dataset has never seen — with the exact
  /// arithmetic of a full Run. Such a method does not implement Score.
  /// Implies needs_model().
  virtual bool pattern_based() const { return false; }

  /// The method parallelizes across MethodContext::num_threads workers.
  /// The engine resolves the configured thread count only for methods that
  /// declare this; others receive num_threads = 1.
  virtual bool supports_threads() const { return false; }

  /// Each triple's score depends only on its own observation pattern and
  /// globally-mergeable parameters (quality / correlation model), so a
  /// domain-partitioned run per shard stitches to the exact unsharded
  /// scores. Iterative methods whose fixed point couples all triples
  /// (cosine, 3-estimates, LTM) must leave this false.
  virtual bool shardable() const { return false; }

  /// Decision threshold for `spec` (paper default: options.decision_threshold;
  /// union-K votes with its own percentage-derived threshold).
  virtual double DefaultThreshold(const MethodSpec& spec,
                                  const EngineOptions& options) const {
    (void)spec;
    return options.decision_threshold;
  }

  // -- Naming ---------------------------------------------------------------

  /// Claims and parses `name`: nullopt when the name does not belong to
  /// this method, an error Status when it does but is malformed (e.g.
  /// "union-150"), a MethodSpec otherwise.
  virtual std::optional<StatusOr<MethodSpec>> TryParse(
      const std::string& name) const = 0;

  /// Canonical name of `spec` (inverse of TryParse). Defaults to id().
  virtual std::string SpecName(const MethodSpec& spec) const {
    (void)spec;
    return id();
  }

  // -- Execution ------------------------------------------------------------

  /// Scores every triple of context.dataset with a value in [0, 1]. Every
  /// method that is not pattern_based() implements it.
  virtual StatusOr<std::vector<double>> Score(const MethodContext& context,
                                              const MethodSpec& spec) const {
    (void)context;
    (void)spec;
    return Status::Unimplemented(
        "pattern-based methods score through MakeScoringPlan");
  }

  /// The pattern-scoring plan for (context, spec); implemented exactly
  /// when pattern_based(). The returned closures capture context.model by
  /// pointer — callers (the engine's snapshot publisher) must keep the
  /// model alive for the plan's lifetime.
  virtual StatusOr<PatternScoringPlan> MakeScoringPlan(
      const MethodContext& context, const MethodSpec& spec) const {
    (void)context;
    (void)spec;
    return Status::Unimplemented("method has no pattern scoring plan");
  }
};

/// Name-keyed registry of fusion methods. The global instance is populated
/// with the paper's eight methods on first use; additional methods may be
/// registered at startup (registration is not thread-safe — do it before
/// concurrent use).
class MethodRegistry {
 public:
  /// The process-wide registry, with all built-in methods registered.
  static MethodRegistry& Global();

  /// Registers a method. Fails with AlreadyExists when its kind or id
  /// collides with a registered method.
  Status Register(std::unique_ptr<FusionMethod> method);

  /// Looks up by enum kind; nullptr when absent.
  const FusionMethod* Find(MethodKind kind) const;

  /// Looks up by family id (e.g. "elastic"); nullptr when absent.
  const FusionMethod* Find(const std::string& id) const;

  /// Parses a method name by offering it to every registered method in
  /// registration order.
  StatusOr<MethodSpec> ParseSpec(const std::string& name) const;

  /// All registered methods, in registration order.
  std::vector<const FusionMethod*> All() const;

  size_t size() const { return methods_.size(); }

 private:
  MethodRegistry() = default;

  std::vector<std::unique_ptr<FusionMethod>> methods_;
};

}  // namespace fuser

#endif  // FUSER_CORE_FUSION_METHOD_H_
