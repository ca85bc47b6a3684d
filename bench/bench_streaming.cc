// Streaming ingestion benchmark: micro-batch FusionEngine::Update vs. the
// full-rebuild baseline (fresh Prepare + model + grouping after every
// batch) on a synthetic dataset, default 100k triples.
//
// Prints a single JSON object (bench_util.h) so CI and scripts can track
// the speedup:
//
//   ./bench_streaming [num_triples] [num_batches] [stream_fraction]
//
// The acceptance bar for the streaming subsystem is a >= 5x speedup of the
// incremental path and byte-identical scores against a fresh engine.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/engine.h"
#include "synth/generator.h"
#include "synth/stream_replay.h"

namespace fuser {
namespace {

int Main(int argc, char** argv) {
  // Universe size; triples nobody provides are dropped, so the realized
  // dataset is ~80% of this (125k keeps it at ~100k provided triples).
  size_t num_triples = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 125000;
  size_t num_batches = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20;
  double stream_fraction = argc > 3 ? std::strtod(argv[3], nullptr) : 0.1;

  SyntheticConfig config = MakeIndependentConfig(
      /*num_sources=*/10, num_triples, /*fraction_true=*/0.4,
      /*precision=*/0.7, /*recall=*/0.45, /*seed=*/101);
  config.groups_true = {{{0, 1, 2}, 0.85}};
  config.groups_false = {{{3, 4, 5}, 0.8}};
  auto final_or = GenerateSynthetic(config);
  FUSER_CHECK(final_or.ok()) << final_or.status();
  const Dataset& final = *final_or;

  const TripleId total = static_cast<TripleId>(final.num_triples());
  const TripleId prefix = static_cast<TripleId>(
      static_cast<double>(total) * (1.0 - stream_fraction));
  auto prefix_or = PrefixDataset(final, prefix);
  FUSER_CHECK(prefix_or.ok()) << prefix_or.status();
  Dataset ds = std::move(*prefix_or);

  EngineOptions options;
  FusionEngine streaming(&ds, options);
  Status prepared = streaming.Prepare(ds.labeled_mask());
  FUSER_CHECK(prepared.ok()) << prepared;
  // Warm the shared inputs so Update maintains live state (the serving
  // scenario: the engine answers queries between batches).
  FUSER_CHECK(streaming.GetPatternGrouping().ok());

  const TripleId step =
      std::max<TripleId>(1, (total - prefix + static_cast<TripleId>(
                                                  num_batches) - 1) /
                                static_cast<TripleId>(num_batches));
  double incremental_seconds = 0.0;
  double rebuild_seconds = 0.0;
  size_t observations_streamed = 0;
  size_t batches_run = 0;
  for (TripleId lo = prefix; lo < total; lo += step) {
    const TripleId hi = std::min<TripleId>(lo + step, total);
    ObservationBatch batch = BatchForRange(final, lo, hi);
    observations_streamed += batch.observations.size();

    WallTimer inc_timer;
    Status updated = streaming.Update(batch);
    incremental_seconds += inc_timer.ElapsedSeconds();
    FUSER_CHECK(updated.ok()) << updated;

    // Full-rebuild baseline: what absorbing the same batch costs when the
    // only tool is Prepare-from-scratch (quality + model + grouping).
    WallTimer full_timer;
    FusionEngine fresh(static_cast<const Dataset*>(&ds), options);
    Status fresh_prepared = fresh.Prepare(streaming.train_mask());
    FUSER_CHECK(fresh_prepared.ok()) << fresh_prepared;
    FUSER_CHECK(fresh.GetPatternGrouping().ok());
    rebuild_seconds += full_timer.ElapsedSeconds();
    ++batches_run;
  }

  // Sanity: the incremental engine's scores must be byte-identical to the
  // rebuilt ones.
  FusionEngine verify(static_cast<const Dataset*>(&ds), options);
  FUSER_CHECK(verify.Prepare(streaming.train_mask()).ok());
  auto streamed_run = streaming.Run({MethodKind::kPrecRecCorr});
  auto rebuilt_run = verify.Run({MethodKind::kPrecRecCorr});
  FUSER_CHECK(streamed_run.ok()) << streamed_run.status();
  FUSER_CHECK(rebuilt_run.ok()) << rebuilt_run.status();
  bool identical = streamed_run->scores == rebuilt_run->scores;

  const double speedup = incremental_seconds > 0.0
                             ? rebuild_seconds / incremental_seconds
                             : 0.0;
  const double throughput =
      incremental_seconds > 0.0
          ? static_cast<double>(observations_streamed) / incremental_seconds
          : 0.0;
  bench::JsonLine("streaming")
      .Int("num_triples", total)
      .Int("streamed_triples", total - prefix)
      .Int("num_batches", batches_run)
      .Int("observations_streamed", observations_streamed)
      .Num("incremental_seconds", incremental_seconds)
      .Num("rebuild_seconds", rebuild_seconds)
      .Num("speedup", speedup, 2)
      .Num("throughput_obs_per_sec", throughput, 0)
      .Int("grouping_builds", streaming.pattern_grouping_builds())
      .Int("full_invalidations", streaming.full_invalidations())
      .Bool("scores_identical", identical)
      .Print();
  FUSER_CHECK(identical) << "incremental scores diverged from rebuild";
  return 0;
}

}  // namespace
}  // namespace fuser

int main(int argc, char** argv) { return fuser::Main(argc, argv); }
