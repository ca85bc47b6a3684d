// Sharded scale-out benchmark: streaming ingest + query scaling at K = 1,
// 2, 4, 8 shards on a scoped synthetic corpus (12 sources, 96 entity
// domains, ~440k provided triples at the default universe size).
//
// The update stream is domain-localized — each micro-batch touches domains
// owned by a single shard at every measured K (buckets are formed by the
// shard hash at K = 8, and hash % 4, % 2, % 1 are determined by
// hash % 8) — so a K-shard router re-estimates quality over ~M/K triples
// per batch where the single-shard engine re-walks all M. That work
// reduction, not parallelism, is the scaling claim: the curve holds at
// num_threads = 1 on a single core.
//
// It also times PublishSnapshot({precrec-corr, elastic-2}) right after a
// streamed batch, at each K: the one cluster's patterns are scored once
// per model however many shards hold them, so publish_ratio_4 =
// publish_seconds_1 / publish_seconds_4 stays near 1 where scoring every
// shard's patterns separately would put it near 1/4.
//
// Prints one JSON line (bench_util.h) so scripts/check_bench.py can gate
// ingest_speedup_4, publish_ratio_4 and scores_identical:
//
//   ./bench_sharding [num_triples] [stream_fraction] [batches_per_bucket]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/engine.h"
#include "shard/partition.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_service.h"
#include "synth/generator.h"
#include "synth/stream_replay.h"

namespace fuser {
namespace {

constexpr uint32_t kShardCounts[] = {1, 2, 4, 8};
/// The publish time is the fastest of the publishes after each of the
/// stream's last kPublishRounds batches.
constexpr size_t kPublishRounds = 8;

int Main(int argc, char** argv) {
  // Universe size; ~80% of it survives as provided triples.
  size_t num_triples = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 500000;
  double stream_fraction = argc > 2 ? std::strtod(argv[2], nullptr) : 0.1;
  size_t batches_per_bucket =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 32;

  SyntheticConfig config = MakeIndependentConfig(
      /*num_sources=*/12, num_triples, /*fraction_true=*/0.4,
      /*precision=*/0.7, /*recall=*/0.45, /*seed=*/301);
  config.num_domains = 96;
  auto final_or = GenerateSynthetic(config);
  FUSER_CHECK(final_or.ok()) << final_or.status();
  const Dataset& final = *final_or;
  const TripleId total = static_cast<TripleId>(final.num_triples());
  const TripleId prefix = static_cast<TripleId>(
      static_cast<double>(total) * (1.0 - stream_fraction));

  // Domain-localized micro-batches: bucket the suffix by the K = 8 shard
  // of each triple's domain — hash % 8 determines hash % K for K | 8, so
  // every bucket lands on exactly one shard at each measured K — then
  // split each bucket into `batches_per_bucket` consecutive micro-batches
  // (live ingestion arrives in many small domain-local updates, not one
  // bulk load per shard).
  const ShardingOptions bucket_options{/*num_shards=*/8};
  std::vector<std::vector<TripleId>> buckets(8);
  for (TripleId t = prefix; t < total; ++t) {
    const std::string_view domain = final.domain_name(final.domain(t));
    buckets[ShardOfDomain(domain, bucket_options)].push_back(t);
  }
  std::vector<ObservationBatch> batches;
  size_t observations_streamed = 0;
  for (const std::vector<TripleId>& bucket : buckets) {
    if (bucket.empty()) continue;
    const size_t step =
        std::max<size_t>(1, (bucket.size() + batches_per_bucket - 1) /
                                batches_per_bucket);
    for (size_t lo = 0; lo < bucket.size(); lo += step) {
      const size_t hi = std::min(lo + step, bucket.size());
      ObservationBatch batch;
      for (size_t i = lo; i < hi; ++i) {
        const TripleId t = bucket[i];
        const std::string domain(final.domain_name(final.domain(t)));
        for (SourceId s : final.providers(t)) {
          batch.observations.push_back({std::string(final.source_name(s)),
                                        final.triple(t), domain});
          ++observations_streamed;
        }
        if (final.label(t) != Label::kUnknown) {
          batch.labels.push_back({final.triple(t),
                                  final.label(t) == Label::kTrue});
        }
      }
      batches.push_back(std::move(batch));
    }
  }

  EngineOptions options;
  options.model.use_scopes = true;
  options.num_threads = 1;  // the curve is work reduction, not parallelism
  const std::vector<MethodSpec> specs = {*ParseMethodSpec("union-50"),
                                         *ParseMethodSpec("precrec"),
                                         *ParseMethodSpec("precrec-corr")};
  const std::vector<MethodSpec> publish_specs = {
      *ParseMethodSpec("precrec-corr"), *ParseMethodSpec("elastic-2")};

  double ingest_seconds[4] = {0, 0, 0, 0};
  double publish_seconds[4] = {0, 0, 0, 0};
  double query_seconds[4] = {0, 0, 0, 0};
  std::vector<std::vector<double>> reference_scores;
  bool identical = true;
  for (size_t ki = 0; ki < 4; ++ki) {
    const uint32_t k = kShardCounts[ki];
    auto prefix_or = PrefixDataset(final, prefix);
    FUSER_CHECK(prefix_or.ok()) << prefix_or.status();
    auto engine_or =
        ShardedFusionEngine::Create(*prefix_or, ShardingOptions{k}, options);
    FUSER_CHECK(engine_or.ok()) << engine_or.status();
    ShardedFusionEngine& engine = **engine_or;
    Status prepared = engine.Prepare(prefix_or->labeled_mask());
    FUSER_CHECK(prepared.ok()) << prepared;
    // Warm the global model so Update maintains live serving state.
    FUSER_CHECK(engine.RunAll(specs).ok());

    // Only the updates count toward ingest; each publish after one of the
    // last kPublishRounds batches is timed on its own.
    for (size_t b = 0; b < batches.size(); ++b) {
      WallTimer ingest_timer;
      Status updated = engine.Update(batches[b]);
      FUSER_CHECK(updated.ok()) << updated;
      ingest_seconds[ki] += ingest_timer.ElapsedSeconds();
      if (b + kPublishRounds < batches.size()) continue;
      WallTimer publish_timer;
      FUSER_CHECK(engine.PublishSnapshot(publish_specs).ok());
      const double seconds = publish_timer.ElapsedSeconds();
      publish_seconds[ki] = publish_seconds[ki] == 0.0
                                ? seconds
                                : std::min(publish_seconds[ki], seconds);
    }

    auto runs = engine.RunAll(specs);
    FUSER_CHECK(runs.ok()) << runs.status();
    // Global triple ids are assigned in first-appearance order of the batch
    // stream — identical at every K — so score vectors compare positionally.
    if (ki == 0) {
      for (FusionRun& run : *runs) {
        reference_scores.push_back(std::move(run.scores));
      }
    } else {
      for (size_t i = 0; i < runs->size(); ++i) {
        identical = identical && (*runs)[i].scores == reference_scores[i];
      }
    }

    auto published = engine.PublishSnapshot(specs);
    FUSER_CHECK(published.ok()) << published.status();
    ShardedFusionService service(&engine);
    std::vector<TripleId> all(engine.num_triples());
    for (TripleId t = 0; t < all.size(); ++t) all[t] = t;
    WallTimer query_timer;
    auto scored = service.ScoreBatch(**published, specs.back(), all);
    query_seconds[ki] = query_timer.ElapsedSeconds();
    FUSER_CHECK(scored.ok()) << scored.status();
  }

  auto speedup = [&](size_t ki) {
    return ingest_seconds[ki] > 0.0 ? ingest_seconds[0] / ingest_seconds[ki]
                                    : 0.0;
  };
  const double throughput_4 =
      ingest_seconds[2] > 0.0
          ? static_cast<double>(observations_streamed) / ingest_seconds[2]
          : 0.0;
  bench::JsonLine json("sharding");
  json.Int("num_triples", total)
      .Int("observations_streamed", observations_streamed)
      .Int("num_batches", batches.size());
  for (size_t ki = 0; ki < 4; ++ki) {
    json.Num("ingest_seconds_" + std::to_string(kShardCounts[ki]),
             ingest_seconds[ki]);
  }
  for (size_t ki = 1; ki < 4; ++ki) {
    json.Num("ingest_speedup_" + std::to_string(kShardCounts[ki]),
             speedup(ki), 2);
  }
  json.Num("update_throughput_obs_per_sec_4", throughput_4, 0);
  for (size_t ki = 0; ki < 4; ++ki) {
    json.Num("query_seconds_" + std::to_string(kShardCounts[ki]),
             query_seconds[ki]);
  }
  for (size_t ki = 0; ki < 4; ++ki) {
    json.Num("publish_seconds_" + std::to_string(kShardCounts[ki]),
             publish_seconds[ki]);
  }
  for (size_t ki = 1; ki < 4; ++ki) {
    const double ratio = publish_seconds[ki] > 0.0
                             ? publish_seconds[0] / publish_seconds[ki]
                             : 0.0;
    json.Num("publish_ratio_" + std::to_string(kShardCounts[ki]), ratio, 2);
  }
  json.Bool("scores_identical", identical).Print();
  FUSER_CHECK(identical) << "sharded scores diverged across shard counts";
  return 0;
}

}  // namespace
}  // namespace fuser

int main(int argc, char** argv) { return fuser::Main(argc, argv); }
