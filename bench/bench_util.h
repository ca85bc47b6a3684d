// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary prints the paper-style table(s) for its figure on
// stdout first, then runs google-benchmark timings for the relevant code
// paths. Absolute numbers differ from the paper (different hardware and
// simulated datasets); the *shape* - who wins, by roughly what factor,
// where crossovers fall - is the reproduction target.
#ifndef FUSER_BENCH_BENCH_UTIL_H_
#define FUSER_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/engine.h"
#include "model/dataset.h"
#include "model/split.h"
#include "stats/curves.h"

namespace fuser {
namespace bench {

/// The method lineup of Figure 4 (plus cosine, which the paper mentions as
/// applicable).
inline std::vector<std::string> PaperMethodLineup() {
  return {"union-25", "union-50", "union-75", "3estimates", "cosine",
          "ltm",      "precrec",  "precrec-corr"};
}

struct MethodResult {
  std::string name;
  EvalSummary eval;
};

/// Runs `methods` (by name) on `dataset` with quality estimated from the
/// full gold standard, mirroring the paper's evaluation setup. Uses
/// FusionEngine::RunAll so the whole lineup shares one correlation model
/// and one distinct-pattern grouping.
inline std::vector<MethodResult> RunMethods(
    const Dataset& dataset, const std::vector<std::string>& methods,
    EngineOptions options = {}) {
  FusionEngine engine(&dataset, options);
  Status prepared = engine.Prepare(dataset.labeled_mask());
  FUSER_CHECK(prepared.ok()) << prepared;
  std::vector<MethodSpec> specs;
  for (const std::string& name : methods) {
    auto spec = ParseMethodSpec(name);
    FUSER_CHECK(spec.ok()) << spec.status();
    specs.push_back(*spec);
  }
  auto runs = engine.RunAll(specs);
  FUSER_CHECK(runs.ok()) << runs.status();
  std::vector<MethodResult> results;
  for (size_t i = 0; i < runs->size(); ++i) {
    auto eval = engine.Evaluate((*runs)[i], dataset.labeled_mask());
    FUSER_CHECK(eval.ok()) << methods[i] << ": " << eval.status();
    results.push_back({methods[i], *eval});
  }
  return results;
}

inline void PrintResultsTable(const std::string& title,
                              const std::vector<MethodResult>& results) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-14s %9s %9s %9s %9s %9s %10s\n", "method", "precision",
              "recall", "F1", "AUC-PR", "AUC-ROC", "time(s)");
  for (const MethodResult& r : results) {
    std::printf("%-14s %9.3f %9.3f %9.3f %9.3f %9.3f %10.4f\n",
                r.name.c_str(), r.eval.precision, r.eval.recall, r.eval.f1,
                r.eval.auc_pr, r.eval.auc_roc, r.eval.seconds);
  }
}

/// Prints a curve as a compact series (x y pairs), subsampled to at most
/// `max_points` points.
inline void PrintCurve(const std::string& label,
                       const std::vector<CurvePoint>& curve,
                       size_t max_points = 12) {
  std::printf("%s:", label.c_str());
  size_t step = curve.size() > max_points ? curve.size() / max_points : 1;
  for (size_t i = 0; i < curve.size(); i += step) {
    std::printf(" (%.2f,%.2f)", curve[i].x, curve[i].y);
  }
  if (!curve.empty()) {
    std::printf(" (%.2f,%.2f)", curve.back().x, curve.back().y);
  }
  std::printf("\n");
}

/// Prints PR and ROC curves for the given methods (Figure 4's plots).
inline void PrintCurvesForMethods(const Dataset& dataset,
                                  const std::vector<std::string>& methods,
                                  EngineOptions options = {}) {
  FusionEngine engine(&dataset, options);
  Status prepared = engine.Prepare(dataset.labeled_mask());
  FUSER_CHECK(prepared.ok()) << prepared;
  for (const std::string& name : methods) {
    auto spec = ParseMethodSpec(name);
    FUSER_CHECK(spec.ok()) << spec.status();
    auto run = engine.Run(*spec);
    FUSER_CHECK(run.ok()) << run.status();
    auto curves =
        ComputeRankedCurves(dataset, run->scores, dataset.labeled_mask());
    FUSER_CHECK(curves.ok()) << curves.status();
    PrintCurve("  PR  " + name, curves->pr);
    PrintCurve("  ROC " + name, curves->roc);
  }
}

}  // namespace bench
}  // namespace fuser

#endif  // FUSER_BENCH_BENCH_UTIL_H_
