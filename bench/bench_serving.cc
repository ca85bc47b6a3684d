// Serving-layer benchmark: point-query latency and reader throughput
// through FusionService, with and without a concurrent streaming writer.
//
// Prints one JSON object (bench_util.h), so CI and scripts can track the
// serving numbers:
//
//   ./bench_serving [num_triples] [num_sources] [num_readers] [queries_per_reader]
//
// Phases:
//  1. idle latency: single-thread Score() sampling against a pinned
//     snapshot (per-query p50/p99, measured in 32-query chunks);
//  2. idle throughput: num_readers threads issuing queries_per_reader
//     point queries each, re-acquiring the latest snapshot periodically;
//  3. under updates: the same reader workload while a writer thread
//     streams the held-back suffix through Update + PublishSnapshot
//     (reader 0 also samples latency).
// A final correctness gate asserts ScoreBatch over all triples is
// byte-identical to FusionEngine::Run on the final snapshot.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/engine.h"
#include "serving/fusion_service.h"
#include "synth/generator.h"
#include "synth/stream_replay.h"

namespace fuser {
namespace {

double PercentileUs(std::vector<double>* seconds, double p) {
  if (seconds->empty()) return 0.0;
  std::sort(seconds->begin(), seconds->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(seconds->size() - 1) + 0.5);
  return (*seconds)[idx] * 1e6;
}

/// Per-query latency samples: each sample times a chunk of 32 queries
/// (clock overhead amortized) and records the mean per-query seconds.
std::vector<double> SampleLatency(const FusionService& service,
                                  const MethodSpec& spec, size_t num_samples,
                                  uint64_t seed) {
  constexpr size_t kChunk = 32;
  std::vector<double> samples;
  samples.reserve(num_samples);
  Rng rng(seed);
  double sink = 0.0;
  for (size_t s = 0; s < num_samples; ++s) {
    auto snapshot = service.Acquire();
    FUSER_CHECK(snapshot.ok()) << snapshot.status();
    WallTimer timer;
    for (size_t i = 0; i < kChunk; ++i) {
      const TripleId t =
          static_cast<TripleId>(rng.NextBounded((*snapshot)->num_triples));
      auto score = service.Score(**snapshot, spec, t);
      FUSER_CHECK(score.ok()) << score.status();
      sink += *score;
    }
    samples.push_back(timer.ElapsedSeconds() / kChunk);
  }
  FUSER_CHECK(sink >= 0.0);  // defeat dead-code elimination
  return samples;
}

struct ReaderStats {
  size_t queries = 0;
  std::vector<double> latency;  // filled by the sampling reader only
};

/// num_readers threads issuing `queries_each` point queries; reader 0
/// additionally samples per-query latency. Returns total wall seconds.
double RunReaders(const FusionService& service, const MethodSpec& spec,
                  size_t num_readers, size_t queries_each,
                  std::vector<ReaderStats>* stats, uint64_t seed) {
  stats->assign(num_readers, ReaderStats{});
  WallTimer wall;
  std::vector<std::thread> threads;
  threads.reserve(num_readers);
  for (size_t r = 0; r < num_readers; ++r) {
    threads.emplace_back([&, r]() {
      constexpr size_t kChunk = 32;
      Rng rng(seed + r);
      ReaderStats& mine = (*stats)[r];
      double sink = 0.0;
      size_t issued = 0;
      while (issued < queries_each) {
        auto snapshot = service.Acquire();
        FUSER_CHECK(snapshot.ok()) << snapshot.status();
        // Stay on one snapshot for a stretch (the realistic pattern), then
        // re-acquire to pick up the writer's publishes.
        const size_t stretch = std::min<size_t>(1024, queries_each - issued);
        for (size_t q = 0; q < stretch; q += kChunk) {
          const size_t chunk = std::min(kChunk, stretch - q);
          WallTimer timer;
          for (size_t i = 0; i < chunk; ++i) {
            const TripleId t = static_cast<TripleId>(
                rng.NextBounded((*snapshot)->num_triples));
            auto score = service.Score(**snapshot, spec, t);
            FUSER_CHECK(score.ok()) << score.status();
            sink += *score;
          }
          if (r == 0) {
            mine.latency.push_back(timer.ElapsedSeconds() /
                                   static_cast<double>(chunk));
          }
        }
        issued += stretch;
      }
      mine.queries = issued;
      FUSER_CHECK(sink >= 0.0);
    });
  }
  for (std::thread& t : threads) t.join();
  return wall.ElapsedSeconds();
}

int Main(int argc, char** argv) {
  // Universe size; triples nobody provides are dropped, so the realized
  // dataset is ~80% of this.
  size_t num_triples = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 60000;
  size_t num_sources = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8;
  size_t num_readers =
      std::max<size_t>(1, argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 4);
  size_t queries_each =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 100000;

  SyntheticConfig config = MakeIndependentConfig(
      num_sources, num_triples, /*fraction_true=*/0.4,
      /*precision=*/0.7, /*recall=*/0.45, /*seed=*/271);
  config.groups_true = {{{0, 1, 2}, 0.85}};
  auto final_or = GenerateSynthetic(config);
  FUSER_CHECK(final_or.ok()) << final_or.status();
  const Dataset& final = *final_or;
  const TripleId total = static_cast<TripleId>(final.num_triples());
  const TripleId prefix = total - total / 5;
  auto prefix_or = PrefixDataset(final, prefix);
  FUSER_CHECK(prefix_or.ok()) << prefix_or.status();
  Dataset ds = std::move(*prefix_or);

  EngineOptions options;
  FusionEngine engine(&ds, options);
  FUSER_CHECK(engine.Prepare(ds.labeled_mask()).ok());
  const MethodSpec spec = *ParseMethodSpec("precrec-corr");
  auto published = engine.PublishSnapshot({spec});
  FUSER_CHECK(published.ok()) << published.status();
  FusionService service(&engine);

  // Phase 1: idle point-query latency.
  std::vector<double> idle_latency =
      SampleLatency(service, spec, /*num_samples=*/2000, /*seed=*/11);
  const double idle_p50 = PercentileUs(&idle_latency, 0.50);
  const double idle_p99 = PercentileUs(&idle_latency, 0.99);

  // Phase 2: idle reader throughput.
  std::vector<ReaderStats> idle_stats;
  const double idle_seconds =
      RunReaders(service, spec, num_readers, queries_each, &idle_stats, 21);
  size_t idle_queries = 0;
  for (const ReaderStats& s : idle_stats) idle_queries += s.queries;
  const double idle_qps =
      idle_seconds > 0.0 ? static_cast<double>(idle_queries) / idle_seconds
                         : 0.0;

  // Phase 3: the same reader workload under a concurrent streaming writer.
  std::atomic<bool> readers_done{false};
  std::atomic<size_t> updates_applied{0};
  std::thread writer([&]() {
    const TripleId step = std::max<TripleId>(1, (total - prefix) / 64);
    TripleId lo = prefix;
    while (!readers_done.load(std::memory_order_relaxed) && lo < total) {
      const TripleId hi = std::min<TripleId>(lo + step, total);
      Status updated = engine.Update(BatchForRange(final, lo, hi));
      FUSER_CHECK(updated.ok()) << updated;
      auto snapshot = engine.PublishSnapshot({spec});
      FUSER_CHECK(snapshot.ok()) << snapshot.status();
      updates_applied.fetch_add(1, std::memory_order_relaxed);
      lo = hi;
    }
  });
  std::vector<ReaderStats> update_stats;
  const double update_seconds = RunReaders(service, spec, num_readers,
                                           queries_each, &update_stats, 31);
  readers_done.store(true, std::memory_order_relaxed);
  writer.join();
  size_t update_queries = 0;
  for (const ReaderStats& s : update_stats) update_queries += s.queries;
  const double update_qps =
      update_seconds > 0.0
          ? static_cast<double>(update_queries) / update_seconds
          : 0.0;
  const double update_p50 = PercentileUs(&update_stats[0].latency, 0.50);
  const double update_p99 = PercentileUs(&update_stats[0].latency, 0.99);

  // Correctness gate: the final snapshot's batch answers are byte-identical
  // to a full Run.
  auto final_snapshot = engine.PublishSnapshot({spec});
  FUSER_CHECK(final_snapshot.ok()) << final_snapshot.status();
  std::vector<TripleId> all((*final_snapshot)->num_triples);
  for (size_t t = 0; t < all.size(); ++t) all[t] = static_cast<TripleId>(t);
  auto batch = service.ScoreBatch(**final_snapshot, spec, all);
  FUSER_CHECK(batch.ok()) << batch.status();
  auto run = engine.Run(spec);
  FUSER_CHECK(run.ok()) << run.status();
  const bool identical = *batch == run->scores;

  bench::JsonLine("serving")
      .Int("num_triples", total)
      .Int("num_sources", num_sources)
      .Int("num_readers", num_readers)
      .Int("queries_per_reader", queries_each)
      .Num("idle_p50_us", idle_p50, 3)
      .Num("idle_p99_us", idle_p99, 3)
      .Num("idle_qps", idle_qps, 0)
      .Int("updates_applied", updates_applied.load(std::memory_order_relaxed))
      .Num("update_p50_us", update_p50, 3)
      .Num("update_p99_us", update_p99, 3)
      .Num("update_qps", update_qps, 0)
      .Bool("scores_identical", identical)
      .Print();
  FUSER_CHECK(identical) << "serving scores diverged from Run";
  return 0;
}

}  // namespace
}  // namespace fuser

int main(int argc, char** argv) { return fuser::Main(argc, argv); }
