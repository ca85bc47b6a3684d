// Concurrent serving stress test: N reader threads hammer Score /
// ScoreBatch / ScoreObservation through FusionService while the writer
// thread streams Update batches and republishes snapshots. The assertion
// is the snapshot contract itself: every successful read must match, byte
// for byte, the reference scores of the exact snapshot it was answered
// from — no torn reads, no drift, no serving state that belongs to no
// published snapshot. Run under TSan in CI, this also proves the
// reader/writer paths race-free.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "serving/fusion_service.h"
#include "synth/generator.h"
#include "synth/stream_replay.h"

namespace fuser {
namespace {

struct PointSample {
  uint64_t snapshot_id = 0;
  size_t spec_index = 0;
  TripleId triple = 0;
  double score = 0.0;
};

struct AdHocSample {
  std::shared_ptr<const FusionSnapshot> snapshot;  // kept pinned
  AdHocObservation observation;
  double score = 0.0;
};

/// Streams the last quarter of an 8-source dataset through `options`'
/// engine in micro-batches while reader threads query the published
/// snapshots, then checks every read against its snapshot's reference.
/// `keep_training` strips the batches' labels, so no batch changes the
/// training set and a clustered model (with its grouping) is updated in
/// place instead of rebuilt.
void StressReadsDuringUpdates(const EngineOptions& options,
                              size_t num_domains, bool keep_training) {
  SyntheticConfig config =
      MakeIndependentConfig(/*num_sources=*/8, /*num_triples=*/5000,
                            /*fraction_true=*/0.4, /*precision=*/0.7,
                            /*recall=*/0.45, /*seed=*/401);
  config.groups_true = {{{0, 1, 2}, 0.85}};
  config.num_domains = num_domains;
  auto final_or = GenerateSynthetic(config);
  ASSERT_TRUE(final_or.ok());
  const Dataset& final = *final_or;
  const TripleId total = static_cast<TripleId>(final.num_triples());
  const TripleId prefix = total - total / 4;
  auto prefix_or = PrefixDataset(final, prefix);
  ASSERT_TRUE(prefix_or.ok());
  Dataset ds = std::move(*prefix_or);

  FusionEngine engine(&ds, options);
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());
  if (options.model.enable_clustering) {
    auto model = engine.GetModel();
    ASSERT_TRUE(model.ok()) << model.status();
    size_t singletons = 0;
    for (const auto& cluster : (*model)->clustering.clusters) {
      singletons += cluster.size() == 1 ? 1 : 0;
    }
    ASSERT_GT(singletons, 0u);
  }
  const std::vector<MethodSpec> specs = {*ParseMethodSpec("precrec-corr"),
                                         *ParseMethodSpec("union-50")};
  FusionService service(&engine);

  // Reference scores per published (entry-bearing) snapshot id, filled by
  // the writer thread right after each publish — engine.Run is
  // byte-identical to the snapshot's serving state by construction (and by
  // serving_test). Readers never touch this map; it is only read after
  // join.
  std::map<uint64_t, std::vector<std::vector<double>>> reference;
  auto publish_and_record = [&]() {
    auto snapshot = engine.PublishSnapshot(specs);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    std::vector<std::vector<double>> scores;
    for (const MethodSpec& spec : specs) {
      auto run = engine.Run(spec);
      ASSERT_TRUE(run.ok()) << run.status();
      scores.push_back(std::move(run->scores));
    }
    reference.emplace((*snapshot)->id, std::move(scores));
  };
  publish_and_record();

  std::atomic<bool> done{false};
  // Readers bump this on every recorded point sample so the writer can
  // hold the world open until at least one read landed — on a loaded
  // single-core runner the writer can otherwise finish all its batches
  // before any reader thread is ever scheduled.
  std::atomic<size_t> recorded{0};
  constexpr size_t kNumReaders = 4;
  std::vector<std::vector<PointSample>> point_samples(kNumReaders);
  std::vector<std::vector<AdHocSample>> adhoc_samples(kNumReaders);
  std::vector<std::thread> readers;
  readers.reserve(kNumReaders);
  for (size_t r = 0; r < kNumReaders; ++r) {
    readers.emplace_back([&, r]() {
      Rng rng(1000 + r);
      std::vector<PointSample>& points = point_samples[r];
      std::vector<AdHocSample>& adhocs = adhoc_samples[r];
      while (!done.load(std::memory_order_relaxed)) {
        auto snapshot_or = service.Acquire();
        if (!snapshot_or.ok()) continue;
        std::shared_ptr<const FusionSnapshot> snapshot = *snapshot_or;
        const size_t spec_index = rng.NextBounded(specs.size());
        const MethodSpec& spec = specs[spec_index];
        // Point query.
        const TripleId t = static_cast<TripleId>(
            rng.NextBounded(snapshot->num_triples));
        auto one = service.Score(*snapshot, spec, t);
        if (one.ok() && points.size() < 400) {
          points.push_back({snapshot->id, spec_index, t, *one});
          recorded.fetch_add(1, std::memory_order_relaxed);
        }
        // Small batch query; every element must agree with Score.
        std::vector<TripleId> batch_ids;
        for (int i = 0; i < 8; ++i) {
          batch_ids.push_back(static_cast<TripleId>(
              rng.NextBounded(snapshot->num_triples)));
        }
        auto batch = service.ScoreBatch(*snapshot, spec, batch_ids);
        if (batch.ok() && points.size() < 400) {
          for (size_t i = 0; i < batch_ids.size(); ++i) {
            points.push_back(
                {snapshot->id, spec_index, batch_ids[i], (*batch)[i]});
          }
          recorded.fetch_add(batch_ids.size(), std::memory_order_relaxed);
        }
        // Ad-hoc observation (pattern methods only), synthesized from
        // source ids alone — readers must never touch the mutating
        // dataset.
        AdHocObservation obs;
        obs.providers = {static_cast<SourceId>(rng.NextBounded(4)),
                         static_cast<SourceId>(4 + rng.NextBounded(4))};
        auto adhoc = service.ScoreObservation(*snapshot, specs[0], obs);
        if (adhoc.ok() && adhocs.size() < 100) {
          adhocs.push_back({snapshot, obs, *adhoc});
        }
      }
    });
  }

  // Writer: stream the suffix in micro-batches, republishing after each.
  const size_t kNumBatches = 6;
  const TripleId step = std::max<TripleId>(
      1, (total - prefix + static_cast<TripleId>(kNumBatches) - 1) /
             static_cast<TripleId>(kNumBatches));
  for (TripleId lo = prefix; lo < total; lo += step) {
    const TripleId hi = std::min<TripleId>(lo + step, total);
    ObservationBatch batch = BatchForRange(final, lo, hi);
    if (keep_training) batch.labels.clear();
    ASSERT_TRUE(engine.Update(batch).ok());
    publish_and_record();
  }
  // Keep serving until at least one read landed (generously bounded so a
  // genuine serving bug still fails instead of hanging).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (recorded.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  if (keep_training) {
    EXPECT_EQ(engine.pattern_grouping_builds(), 1u)
        << "the grouping was rebuilt, not updated in place";
  }

  // Every point read matches the reference scores of the snapshot it was
  // answered from, exactly.
  size_t verified = 0;
  for (const auto& samples : point_samples) {
    for (const PointSample& sample : samples) {
      auto it = reference.find(sample.snapshot_id);
      ASSERT_NE(it, reference.end())
          << "read answered from unpublished snapshot " << sample.snapshot_id;
      const std::vector<double>& expected = it->second[sample.spec_index];
      ASSERT_LT(static_cast<size_t>(sample.triple), expected.size());
      ASSERT_EQ(sample.score, expected[sample.triple])
          << "snapshot " << sample.snapshot_id << " spec "
          << specs[sample.spec_index].Name() << " triple " << sample.triple;
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u) << "readers never completed a successful read";

  // Ad-hoc answers are stable: re-scoring the same observation on the
  // still-pinned snapshot reproduces the concurrent answer exactly.
  for (const auto& samples : adhoc_samples) {
    for (const AdHocSample& sample : samples) {
      auto again = service.ScoreObservation(*sample.snapshot, specs[0],
                                            sample.observation);
      ASSERT_TRUE(again.ok()) << again.status();
      ASSERT_EQ(*again, sample.score)
          << "snapshot " << sample.snapshot->id;
    }
  }
}

TEST(ServingStressTest, ReadsMatchPublishedSnapshotsUnderConcurrentUpdates) {
  StressReadsDuringUpdates(EngineOptions{}, /*num_domains=*/0,
                           /*keep_training=*/false);
}

TEST(ServingStressTest, ReadsSingletonColumnsWhileUpdatesCopyThem) {
  // Clustering leaves the uncorrelated sources in clusters of one:
  // readers gather their bit columns while each Update appends to a copy
  // of the grouping.
  EngineOptions options;
  options.model.enable_clustering = true;
  options.model.use_scopes = true;
  StressReadsDuringUpdates(options, /*num_domains=*/6,
                           /*keep_training=*/true);
}

}  // namespace
}  // namespace fuser
