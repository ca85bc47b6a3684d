// Snapshot persistence benchmark: warm-starting an engine from a saved
// snapshot vs. the cold path (Prepare + model + grouping + serving-state
// publish) it replaces, on a synthetic dataset, default ~100k triples.
//
// Prints a single JSON object (bench_util.h) so CI and
// scripts/check_bench.py can track the speedup:
//
//   ./bench_persist [num_triples] [reps]
//
// The acceptance bar for the persistence subsystem is a >= 10x speedup of
// WarmStart over the cold Prepare it replaces, with byte-identical scores
// (RunAll over the method lineup and FusionService point queries) — the
// run aborts if identity is violated.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/engine.h"
#include "persist/snapshot_io.h"
#include "serving/fusion_service.h"
#include "synth/generator.h"

namespace fuser {
namespace {

/// The deterministic method lineup scored for the identity gate. LTM is
/// excluded only because Gibbs sampling at 100k triples would dominate the
/// bench runtime; tests/persist_test.cc covers it at small scale.
std::vector<MethodSpec> Lineup() {
  std::vector<MethodSpec> specs;
  for (const char* name : {"union-50", "3estimates", "cosine", "precrec",
                           "precrec-corr", "aggressive", "elastic-3"}) {
    auto spec = ParseMethodSpec(name);
    FUSER_CHECK(spec.ok()) << spec.status();
    specs.push_back(*spec);
  }
  return specs;
}

int Main(int argc, char** argv) {
  // Universe size; triples nobody provides are dropped, so the realized
  // dataset is ~80% of this (125k keeps it at ~100k provided triples).
  size_t num_triples = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 125000;
  int reps = argc > 2 ? static_cast<int>(std::strtol(argv[2], nullptr, 10)) : 3;
  if (reps < 1) reps = 1;

  SyntheticConfig config = MakeIndependentConfig(
      /*num_sources=*/10, num_triples, /*fraction_true=*/0.4,
      /*precision=*/0.7, /*recall=*/0.45, /*seed=*/101);
  config.groups_true = {{{0, 1, 2}, 0.85}};
  config.groups_false = {{{3, 4, 5}, 0.8}};
  auto dataset_or = GenerateSynthetic(config);
  FUSER_CHECK(dataset_or.ok()) << dataset_or.status();
  Dataset ds = std::move(*dataset_or);

  EngineOptions options;
  // The serving state worth persisting: the pattern-serving methods the
  // PR 4 point-query layer answers from.
  std::vector<MethodSpec> serving_specs;
  serving_specs.push_back(*ParseMethodSpec("precrec-corr"));
  serving_specs.push_back(*ParseMethodSpec("elastic-3"));

  // Cold path: everything a restarted process must rebuild from the raw
  // dataset before it can serve a single query.
  double cold_seconds = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    FusionEngine cold(static_cast<const Dataset*>(&ds), options);
    FUSER_CHECK(cold.Prepare(ds.labeled_mask()).ok());
    auto published = cold.PublishSnapshot(serving_specs);
    FUSER_CHECK(published.ok()) << published.status();
    const double seconds = timer.ElapsedSeconds();
    if (rep == 0 || seconds < cold_seconds) cold_seconds = seconds;
  }

  // The reference engine whose state gets persisted.
  FusionEngine original(static_cast<const Dataset*>(&ds), options);
  FUSER_CHECK(original.Prepare(ds.labeled_mask()).ok());
  FUSER_CHECK(original.PublishSnapshot(serving_specs).ok());

  const std::string path = "bench_persist.tmp.snap";
  WallTimer save_timer;
  Status saved = original.SaveSnapshot(path);
  const double save_seconds = save_timer.ElapsedSeconds();
  FUSER_CHECK(saved.ok()) << saved;

  size_t file_bytes = 0;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    file_bytes = static_cast<size_t>(std::ftell(f));
    std::fclose(f);
  }

  // Warm path: adopt the saved state over the already-loaded dataset —
  // the direct replacement for the cold Prepare above.
  double warm_seconds = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    FusionEngine warm(static_cast<const Dataset*>(&ds), options);
    Status warmed = warm.WarmStart(path);
    const double seconds = timer.ElapsedSeconds();
    FUSER_CHECK(warmed.ok()) << warmed;
    if (rep == 0 || seconds < warm_seconds) warm_seconds = seconds;
  }

  // Full restart: LoadSnapshot also re-materializes the dataset itself
  // (reported separately; the cold path gets its dataset for free).
  WallTimer load_timer;
  auto loaded = LoadSnapshot(path);
  const double load_seconds = load_timer.ElapsedSeconds();
  FUSER_CHECK(loaded.ok()) << loaded.status();

  // Identity gate: the warm-started engine (over the re-materialized
  // dataset, the worst case) must reproduce the original scores exactly.
  FusionEngine warm(loaded->dataset.get(), options);
  Status warmed = warm.WarmStart(*loaded);
  FUSER_CHECK(warmed.ok()) << warmed;
  auto original_runs = original.RunAll(Lineup());
  auto warm_runs = warm.RunAll(Lineup());
  FUSER_CHECK(original_runs.ok()) << original_runs.status();
  FUSER_CHECK(warm_runs.ok()) << warm_runs.status();
  bool identical = true;
  for (size_t i = 0; i < original_runs->size(); ++i) {
    if ((*original_runs)[i].scores != (*warm_runs)[i].scores) {
      identical = false;
    }
  }
  // Point queries straight off the restored serving state.
  FusionService original_service(&original);
  FusionService warm_service(&warm);
  auto original_snap = original_service.Acquire();
  auto warm_snap = warm_service.Acquire();
  FUSER_CHECK(original_snap.ok() && warm_snap.ok());
  for (const MethodSpec& spec : serving_specs) {
    for (TripleId t = 0; t < ds.num_triples();
         t += 1 + ds.num_triples() / 1024) {
      auto a = original_service.Score(**original_snap, spec, t);
      auto b = warm_service.Score(**warm_snap, spec, t);
      FUSER_CHECK(a.ok() && b.ok());
      if (*a != *b) identical = false;
    }
    AdHocObservation obs;
    obs.providers = {0, 2, 5};
    auto a = original_service.ScoreObservation(**original_snap, spec, obs);
    auto b = warm_service.ScoreObservation(**warm_snap, spec, obs);
    FUSER_CHECK(a.ok() && b.ok());
    if (*a != *b) identical = false;
  }

  std::remove(path.c_str());

  const double speedup =
      warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0;
  bench::JsonLine("persist")
      .Int("num_triples", ds.num_triples())
      .Int("num_sources", ds.num_sources())
      .Int("file_bytes", file_bytes)
      .Num("cold_prepare_seconds", cold_seconds)
      .Num("save_seconds", save_seconds)
      .Num("warm_start_seconds", warm_seconds)
      .Num("load_snapshot_seconds", load_seconds)
      .Num("warmstart_speedup", speedup, 2)
      .Bool("scores_identical", identical)
      .Print();
  FUSER_CHECK(identical) << "warm-started scores diverged from original";
  return 0;
}

}  // namespace
}  // namespace fuser

int main(int argc, char** argv) { return fuser::Main(argc, argv); }
