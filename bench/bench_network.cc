// Network serving benchmark: a self-contained load generator that spawns
// FusionServer in-process on a loopback ephemeral port and drives it with
// C client connections issuing pipelined ScoreBatch requests.
//
// Like the other standalone benches this prints one JSON object as its
// last stdout line, so CI and scripts/check_bench.py can track it:
//
//   ./bench_network [num_triples] [num_connections] [batches_per_conn] [batch_size]
//
// Phases:
//  1. round-trip latency: one connection, unpipelined single-Score
//     request/response cycles (per-RTT p50/p99);
//  2. kRounds alternating pairs of rounds over one fixed batched workload:
//     an in-process round through the local ShardedFusionService the
//     server fronts, then a networked round of pipelined load
//     (num_connections threads, each pushing its batches through
//     PipelineScoreBatches in windows of 16). Each round repeats the whole
//     workload until it has lasted kMinRoundSeconds. qps_ratio is the
//     median over the pairs of networked qps / in-process qps: a
//     same-machine, same-process ratio (network-stack overhead), not an
//     absolute timing, and alternating keeps a slow spell of the machine
//     from landing on one side only.
// Every networked response is asserted byte-identical to the engine's
// precomputed reference scores — responses_identical in the JSON is the
// gate, and the process aborts on any mismatch.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "net/fusion_client.h"
#include "net/fusion_server.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_service.h"
#include "synth/generator.h"

namespace fuser {
namespace net {
namespace {

/// Alternating pairs of in-process and networked rounds; qps_ratio is the
/// median of their per-pair ratios.
constexpr size_t kRounds = 7;
/// A round repeats the whole workload until it has lasted this long.
constexpr double kMinRoundSeconds = 0.2;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double PercentileUs(std::vector<double>* seconds, double p) {
  if (seconds->empty()) return 0.0;
  std::sort(seconds->begin(), seconds->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(seconds->size() - 1) + 0.5);
  return (*seconds)[idx] * 1e6;
}

int Main(int argc, char** argv) {
  // Universe size; triples nobody provides are dropped (~80% realized).
  size_t num_triples = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  size_t num_connections =
      std::max<size_t>(1, argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4);
  size_t batches_per_conn =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 400;
  size_t batch_size = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 64;

  SyntheticConfig config = MakeIndependentConfig(
      /*num_sources=*/8, num_triples, /*fraction_true=*/0.4,
      /*precision=*/0.7, /*recall=*/0.45, /*seed=*/271);
  config.groups_true = {{{0, 1, 2}, 0.85}};
  auto dataset_or = GenerateSynthetic(config);
  FUSER_CHECK(dataset_or.ok()) << dataset_or.status();
  Dataset dataset = std::move(*dataset_or);

  auto engine_or =
      ShardedFusionEngine::Create(dataset, ShardingOptions{1}, EngineOptions{});
  FUSER_CHECK(engine_or.ok()) << engine_or.status();
  ShardedFusionEngine& engine = **engine_or;
  FUSER_CHECK(engine.Prepare(dataset.labeled_mask()).ok());
  const MethodSpec spec = *ParseMethodSpec("precrec-corr");
  auto published = engine.PublishSnapshot({spec});
  FUSER_CHECK(published.ok()) << published.status();
  ShardedFusionService service(&engine);

  // The reference every networked response must reproduce byte-for-byte.
  auto run = engine.Run(spec);
  FUSER_CHECK(run.ok()) << run.status();
  const std::vector<double>& reference = run->scores;
  const size_t realized = reference.size();

  FusionServerOptions server_options;
  server_options.num_workers = 2;
  FusionServer server(&service, server_options);
  FUSER_CHECK(server.Start().ok());
  const uint16_t port = server.port();

  // Phase 1: unpipelined round-trip latency on one connection.
  std::vector<double> rtt;
  {
    FusionClient client;
    FUSER_CHECK(client.Connect("127.0.0.1", port).ok());
    Rng rng(11);
    constexpr size_t kSamples = 2000;
    rtt.reserve(kSamples);
    for (size_t s = 0; s < kSamples; ++s) {
      const TripleId t = static_cast<TripleId>(rng.NextBounded(realized));
      WallTimer timer;
      auto reply = client.Score(spec.Name(), t);
      rtt.push_back(timer.ElapsedSeconds());
      FUSER_CHECK(reply.ok()) << reply.status();
      FUSER_CHECK(reply->score == reference[t]) << "rtt sample diverged";
    }
  }
  const double rtt_p50 = PercentileUs(&rtt, 0.50);
  const double rtt_p99 = PercentileUs(&rtt, 0.99);

  // The batch id streams, fixed up front so the in-process baseline and
  // the networked run score the identical workload.
  std::vector<std::vector<std::vector<TripleId>>> workload(num_connections);
  {
    Rng rng(21);
    for (size_t c = 0; c < num_connections; ++c) {
      workload[c].resize(batches_per_conn);
      for (size_t b = 0; b < batches_per_conn; ++b) {
        workload[c][b].reserve(batch_size);
        for (size_t i = 0; i < batch_size; ++i) {
          workload[c][b].push_back(
              static_cast<TripleId>(rng.NextBounded(realized)));
        }
      }
    }
  }
  // Phase 2. A round runs num_connections threads, each repeating its
  // share of the workload until the round has lasted kMinRoundSeconds, and
  // returns the round's scores per second.
  auto timed_round = [&](const std::function<void(size_t)>& connection_pass) {
    std::vector<size_t> passes(num_connections, 0);
    std::vector<std::thread> threads;
    WallTimer wall;
    for (size_t c = 0; c < num_connections; ++c) {
      threads.emplace_back([&, c]() {
        do {
          connection_pass(c);
          ++passes[c];
        } while (wall.ElapsedSeconds() < kMinRoundSeconds);
      });
    }
    for (std::thread& t : threads) t.join();
    const double seconds = wall.ElapsedSeconds();
    size_t scores = 0;
    for (size_t p : passes) scores += p * batches_per_conn * batch_size;
    return static_cast<double>(scores) / seconds;
  };
  auto inprocess_pass = [&](size_t c) {
    auto snapshot = service.Acquire();
    FUSER_CHECK(snapshot.ok());
    for (const std::vector<TripleId>& batch : workload[c]) {
      auto scores = service.ScoreBatch(**snapshot, spec, batch);
      FUSER_CHECK(scores.ok()) << scores.status();
    }
  };
  constexpr size_t kPipelineWindow = 16;
  std::vector<std::unique_ptr<FusionClient>> clients;
  for (size_t c = 0; c < num_connections; ++c) {
    clients.push_back(std::make_unique<FusionClient>());
    FUSER_CHECK(clients.back()->Connect("127.0.0.1", port).ok());
  }
  std::vector<int> mismatches(num_connections, 0);
  auto network_pass = [&](size_t c) {
    FusionClient& client = *clients[c];
    for (size_t b = 0; b < workload[c].size(); b += kPipelineWindow) {
      const size_t hi = std::min(b + kPipelineWindow, workload[c].size());
      const std::vector<std::vector<TripleId>> window(
          workload[c].begin() + static_cast<ptrdiff_t>(b),
          workload[c].begin() + static_cast<ptrdiff_t>(hi));
      auto replies = client.PipelineScoreBatches(spec.Name(), window);
      FUSER_CHECK(replies.ok()) << replies.status();
      FUSER_CHECK(replies->size() == window.size());
      for (size_t w = 0; w < window.size(); ++w) {
        const std::vector<double>& got = (*replies)[w].scores;
        if (got.size() != window[w].size()) {
          ++mismatches[c];
          continue;
        }
        for (size_t i = 0; i < window[w].size(); ++i) {
          // Byte identity with the in-process engine, not approximate
          // equality — the wire carries raw IEEE-754 doubles.
          if (got[i] != reference[window[w][i]]) ++mismatches[c];
        }
      }
    }
  };
  std::vector<double> inprocess_rounds;
  std::vector<double> network_rounds;
  std::vector<double> ratios;
  for (size_t r = 0; r < kRounds; ++r) {
    inprocess_rounds.push_back(timed_round(inprocess_pass));
    network_rounds.push_back(timed_round(network_pass));
    ratios.push_back(network_rounds.back() / inprocess_rounds.back());
  }
  clients.clear();
  const double inprocess_qps = Median(inprocess_rounds);
  const double network_qps = Median(network_rounds);
  const double qps_ratio = Median(ratios);

  int total_mismatches = 0;
  for (int m : mismatches) total_mismatches += m;
  const bool identical = total_mismatches == 0;

  const ServerCounters counters = server.counters();
  server.Stop();

  bench::JsonLine("network")
      .Int("num_triples", realized)
      .Int("num_connections", num_connections)
      .Int("batches_per_connection", batches_per_conn)
      .Int("batch_size", batch_size)
      .Num("rtt_p50_us", rtt_p50, 3)
      .Num("rtt_p99_us", rtt_p99, 3)
      .Num("network_qps", network_qps, 0)
      .Num("inprocess_qps", inprocess_qps, 0)
      .Num("qps_ratio", qps_ratio, 4)
      .Num("qps_ratio_min", *std::min_element(ratios.begin(), ratios.end()),
           4)
      .Num("qps_ratio_max", *std::max_element(ratios.begin(), ratios.end()),
           4)
      .Int("rounds", kRounds)
      .Int("requests_served", counters.requests_served)
      .Bool("responses_identical", identical)
      .Print();
  FUSER_CHECK(identical) << total_mismatches
                         << " networked scores diverged from the engine";
  return 0;
}

}  // namespace
}  // namespace net
}  // namespace fuser

int main(int argc, char** argv) { return fuser::net::Main(argc, argv); }
