// Network reader storm racing a streaming writer (the TSan centerpiece of
// the net stack, mirroring tests/serving_stress_test.cc one layer up):
// client threads hammer FusionServer over real loopback sockets while the
// writer thread keeps calling ShardedFusionEngine::Update (K=1, the
// unsharded topology) and republishing snapshots behind the live server.
// Every networked reply names the snapshot it was answered from, and must
// match that snapshot's reference scores byte for byte — no torn
// responses, no answer from a state that was never published, even across
// the publish boundary.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "net/fusion_client.h"
#include "net/fusion_server.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_service.h"
#include "synth/generator.h"
#include "synth/stream_replay.h"

namespace fuser {
namespace net {
namespace {

struct BatchSample {
  uint64_t snapshot_id = 0;
  size_t spec_index = 0;
  std::vector<TripleId> triples;
  std::vector<double> scores;
};

TEST(NetStressTest, NetworkedReadsMatchPublishedSnapshotsUnderStreaming) {
  SyntheticConfig config =
      MakeIndependentConfig(/*num_sources=*/8, /*num_triples=*/3000,
                            /*fraction_true=*/0.4, /*precision=*/0.7,
                            /*recall=*/0.45, /*seed=*/503);
  config.groups_true = {{{0, 1, 2}, 0.85}};
  auto final_or = GenerateSynthetic(config);
  ASSERT_TRUE(final_or.ok());
  const Dataset& final = *final_or;
  const TripleId total = static_cast<TripleId>(final.num_triples());
  const TripleId prefix = total - total / 4;
  auto prefix_or = PrefixDataset(final, prefix);
  ASSERT_TRUE(prefix_or.ok());
  auto engine_or =
      ShardedFusionEngine::Create(*prefix_or, ShardingOptions{1}, {});
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  ShardedFusionEngine& engine = **engine_or;
  ASSERT_TRUE(engine.Prepare(prefix_or->labeled_mask()).ok());
  const std::vector<MethodSpec> specs = {*ParseMethodSpec("precrec-corr"),
                                         *ParseMethodSpec("precrec")};

  // Reference scores per published snapshot id, written only by the main
  // (writer) thread and read only after the reader join.
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

  ShardedFusionService service(&engine);
  FusionServerOptions server_options;
  server_options.num_workers = 2;
  FusionServer server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::atomic<size_t> recorded{0};
  constexpr size_t kNumReaders = 4;
  std::vector<std::vector<BatchSample>> samples(kNumReaders);
  std::vector<Status> reader_errors(kNumReaders, Status::OK());
  std::vector<std::thread> readers;
  readers.reserve(kNumReaders);
  for (size_t r = 0; r < kNumReaders; ++r) {
    readers.emplace_back([&, r]() {
      FusionClient client;
      Status connected = client.Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        reader_errors[r] = connected;
        return;
      }
      Rng rng(2000 + r);
      while (!done.load(std::memory_order_relaxed)) {
        const size_t spec_index = rng.NextBounded(specs.size());
        // Triples below the prefix exist in every published snapshot, so
        // the query is valid no matter which snapshot answers it.
        std::vector<TripleId> triples;
        for (int i = 0; i < 16; ++i) {
          triples.push_back(static_cast<TripleId>(rng.NextBounded(prefix)));
        }
        auto reply = client.ScoreBatch(specs[spec_index].Name(), triples);
        if (!reply.ok()) {
          reader_errors[r] = reply.status();
          return;
        }
        if (samples[r].size() < 300) {
          samples[r].push_back({reply->snapshot_id, spec_index, triples,
                                std::move(reply->scores)});
          recorded.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Writer: stream the suffix in micro-batches behind the live server,
  // republishing after each.
  constexpr size_t kNumBatches = 6;
  const TripleId step = std::max<TripleId>(
      1, (total - prefix + static_cast<TripleId>(kNumBatches) - 1) /
             static_cast<TripleId>(kNumBatches));
  for (TripleId lo = prefix; lo < total; lo += step) {
    const TripleId hi = std::min<TripleId>(lo + step, total);
    ASSERT_TRUE(engine.Update(BatchForRange(final, lo, hi)).ok());
    publish_and_record();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (recorded.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  for (size_t r = 0; r < kNumReaders; ++r) {
    EXPECT_TRUE(reader_errors[r].ok())
        << "reader " << r << ": " << reader_errors[r];
  }

  // Every networked batch matches the reference scores of the exact
  // snapshot that answered it.
  size_t verified = 0;
  for (const auto& reader_samples : samples) {
    for (const BatchSample& sample : reader_samples) {
      auto it = reference.find(sample.snapshot_id);
      ASSERT_NE(it, reference.end())
          << "reply from unpublished snapshot " << sample.snapshot_id;
      const std::vector<double>& expected = it->second[sample.spec_index];
      ASSERT_EQ(sample.scores.size(), sample.triples.size());
      for (size_t i = 0; i < sample.triples.size(); ++i) {
        ASSERT_LT(static_cast<size_t>(sample.triples[i]), expected.size());
        ASSERT_EQ(sample.scores[i], expected[sample.triples[i]])
            << "snapshot " << sample.snapshot_id << " spec "
            << specs[sample.spec_index].Name() << " triple "
            << sample.triples[i];
        ++verified;
      }
    }
  }
  EXPECT_GT(verified, 0u) << "readers never completed a successful read";

  // Graceful shutdown with readers gone and the writer idle.
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_GE(server.counters().connections_accepted, kNumReaders);
}

}  // namespace
}  // namespace net
}  // namespace fuser
