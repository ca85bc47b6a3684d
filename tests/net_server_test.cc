// FusionServer end-to-end tests over real loopback sockets: networked
// answers must be byte-identical to the in-process ShardedFusionService on
// the same snapshot and to an unsharded FusionService on the same data, at
// K=1 (the unsharded topology) and K=4 shards; malformed streams must come
// back as clean error frames (fatal only when stream integrity is lost);
// a slow-loris peer dripping one byte at a time must neither wedge the
// event loop nor corrupt framing; clients must be able to reconnect after
// a server restart; idle connections must be reaped; and Stop() must
// drain pipelined requests that already reached the server; a client that
// pipelines without reading is paused at the reply-backlog bound while
// others are still served; connections past the descriptor cap are refused
// and counted while the ones under it keep being served, and an acceptor
// out of descriptors backs off instead of spinning. Runs under
// ASan/UBSan and TSan in CI, and the whole file repeats under the poll()
// event loop via the ForcePoll suite.
#include "net/fusion_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "model/dataset.h"
#include "net/fusion_client.h"
#include "serving/fusion_service.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_service.h"
#include "synth/generator.h"

namespace fuser {
namespace net {
namespace {

std::vector<MethodSpec> ServingLineup() {
  std::vector<MethodSpec> specs;
  for (const char* name : {"precrec-corr", "precrec"}) {
    auto spec = ParseMethodSpec(name);
    EXPECT_TRUE(spec.ok()) << name;
    specs.push_back(*spec);
  }
  return specs;
}

std::vector<TripleId> AllTriples(size_t m) {
  std::vector<TripleId> ids(m);
  for (size_t t = 0; t < m; ++t) ids[t] = static_cast<TripleId>(t);
  return ids;
}

Dataset MakeServingDataset(uint64_t seed) {
  SyntheticConfig config =
      MakeIndependentConfig(/*num_sources=*/6, /*num_triples=*/800,
                            /*fraction_true=*/0.4, /*precision=*/0.7,
                            /*recall=*/0.4, seed);
  config.groups_true = {{{0, 1, 2}, 0.8}};
  auto dataset = GenerateSynthetic(config);
  EXPECT_TRUE(dataset.ok()) << dataset.status();
  return std::move(*dataset);
}

/// A K-shard engine + service + running server on an ephemeral port, plus
/// an unsharded FusionEngine over the same data as the reference.
struct ServerHarness {
  Dataset dataset;
  std::unique_ptr<ShardedFusionEngine> engine;
  std::shared_ptr<const ShardedSnapshot> snapshot;
  std::unique_ptr<ShardedFusionService> service;
  std::unique_ptr<FusionServer> server;
  std::unique_ptr<FusionEngine> reference;
  std::unique_ptr<FusionService> reference_service;

  explicit ServerHarness(uint32_t num_shards = 1,
                         FusionServerOptions options = {},
                         uint64_t seed = 311)
      : dataset(MakeServingDataset(seed)) {
    auto created = ShardedFusionEngine::Create(
        dataset, ShardingOptions{num_shards}, EngineOptions{});
    EXPECT_TRUE(created.ok()) << created.status();
    engine = std::move(*created);
    EXPECT_TRUE(engine->Prepare(dataset.labeled_mask()).ok());
    auto published = engine->PublishSnapshot(ServingLineup());
    EXPECT_TRUE(published.ok()) << published.status();
    snapshot = *published;
    service = std::make_unique<ShardedFusionService>(engine.get());
    server = std::make_unique<FusionServer>(service.get(), options);
    EXPECT_TRUE(server->Start().ok());

    reference = std::make_unique<FusionEngine>(
        static_cast<const Dataset*>(&dataset), EngineOptions{});
    EXPECT_TRUE(reference->Prepare(dataset.labeled_mask()).ok());
    EXPECT_TRUE(reference->PublishSnapshot(ServingLineup()).ok());
    reference_service = std::make_unique<FusionService>(reference.get());
  }
};

// --- Raw-socket helpers for the adversarial tests (the FusionClient is
// --- deliberately unable to send malformed bytes).

int RawConnect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << strerror(errno);
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void RawWriteAll(int fd, const std::string& bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + written,
                            bytes.size() - written);
    ASSERT_GT(n, 0) << strerror(errno);
    written += static_cast<size_t>(n);
  }
}

/// Reads until one frame parses (or 5s of silence / EOF).
StatusOr<WireFrame> RawReadFrame(int fd, FrameReader* reader) {
  WireFrame frame;
  while (true) {
    auto next = reader->Next(&frame);
    if (!next.ok()) return next.status();
    if (*next) return frame;
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    if (poll(&p, 1, 5000) <= 0) return Status::IoError("raw read timed out");
    char buf[4096];
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n == 0) return Status::IoError("peer closed");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(strerror(errno));
    }
    reader->Append(buf, static_cast<size_t>(n));
  }
}

/// True when the server closes `fd` within 5 seconds.
bool WaitForEof(int fd) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  char buf[4096];
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    if (poll(&p, 1, 100) <= 0) continue;
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n == 0) return true;
    if (n < 0 && errno != EINTR) return true;  // RST counts as closed
  }
  return false;
}

/// One ScoreObservation round trip on the raw connection `fd`: the score,
/// or the Status of the server's error reply. FusionClient sends only the
/// requests the shipped binaries make, and none of them sends observations.
StatusOr<double> RawScoreObservation(int fd, const std::string& method,
                                     const std::vector<SourceId>& providers) {
  ScoreObservationRequest request;
  request.request_id = 1;
  request.method = method;
  request.providers = providers;
  RawWriteAll(fd, EncodeFrame(MessageType::kScoreObservation,
                              request.Encode()));
  FrameReader reader;
  FUSER_ASSIGN_OR_RETURN(WireFrame frame, RawReadFrame(fd, &reader));
  if (frame.type == MessageType::kError) {
    ErrorReply error;
    FUSER_RETURN_IF_ERROR(error.Decode(frame.payload));
    return error.ToStatus();
  }
  if (frame.type != MessageType::kScoreObservationReply) {
    return Status::Internal("unexpected reply type");
  }
  ScoreReply reply;
  FUSER_RETURN_IF_ERROR(reply.Decode(frame.payload));
  return reply.score;
}

/// The shared identity check: every networked answer equals the local
/// service's answer on the pinned snapshot and the unsharded reference
/// service's answer, byte for byte.
void ExpectNetworkMatchesLocal(const ServerHarness& harness,
                               FusionClient* client) {
  const std::vector<MethodSpec> specs = ServingLineup();
  const std::vector<TripleId> all =
      AllTriples(harness.dataset.num_triples());
  auto reference = harness.reference_service->Acquire();
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (const MethodSpec& spec : specs) {
    auto local = harness.service->ScoreBatch(*harness.snapshot, spec, all);
    ASSERT_TRUE(local.ok()) << local.status();
    auto unsharded =
        harness.reference_service->ScoreBatch(**reference, spec, all);
    ASSERT_TRUE(unsharded.ok()) << unsharded.status();
    ASSERT_EQ(*local, *unsharded) << spec.Name();
    auto remote = client->ScoreBatch(spec.Name(), all);
    ASSERT_TRUE(remote.ok()) << remote.status();
    EXPECT_EQ(remote->snapshot_id, harness.snapshot->id);
    ASSERT_EQ(remote->scores.size(), local->size());
    for (size_t t = 0; t < all.size(); ++t) {
      ASSERT_EQ(remote->scores[t], (*local)[t])
          << spec.Name() << " triple " << t;
    }
    const auto last = static_cast<TripleId>(all.size() - 1);
    for (TripleId t : {TripleId{0}, static_cast<TripleId>(last / 2), last}) {
      auto one = client->Score(spec.Name(), t);
      ASSERT_TRUE(one.ok()) << one.status();
      EXPECT_EQ(one->score, (*local)[t]) << spec.Name() << " triple " << t;
    }
  }
}

/// The serving behaviours that must hold for every topology, run at K=1
/// (the unsharded engine) and K=4 behind the same wire.
class FusionServerTopologyTest : public testing::TestWithParam<uint32_t> {
 protected:
  uint32_t num_shards() const { return GetParam(); }
};

TEST_P(FusionServerTopologyTest, NetworkedScoresAreByteIdenticalToLocal) {
  ServerHarness harness(num_shards());
  FusionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());
  ExpectNetworkMatchesLocal(harness, &client);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->snapshot_id, harness.snapshot->id);
  EXPECT_EQ(stats->num_triples, harness.dataset.num_triples());
  EXPECT_EQ(stats->num_sources, harness.dataset.num_sources());
  EXPECT_EQ(stats->num_shards, num_shards());
  EXPECT_GT(stats->requests_served, 0u);

  const ServerCounters counters = harness.server->counters();
  EXPECT_EQ(counters.connections_accepted, 1u);
  EXPECT_GT(counters.requests_served, 0u);
  EXPECT_EQ(counters.errors_sent, 0u);
}

TEST_P(FusionServerTopologyTest, NetworkedObservationsAreByteIdenticalToLocal) {
  // Ad-hoc observations route through the same snapshot tables.
  ServerHarness harness(num_shards());
  auto reference = harness.reference_service->Acquire();
  ASSERT_TRUE(reference.ok()) << reference.status();
  const MethodSpec spec = ServingLineup()[0];
  AdHocObservation observation;
  observation.providers = {0, 3};
  auto local =
      harness.service->ScoreObservation(*harness.snapshot, spec, observation);
  ASSERT_TRUE(local.ok()) << local.status();
  auto unsharded = harness.reference_service->ScoreObservation(
      **reference, spec, observation);
  ASSERT_TRUE(unsharded.ok()) << unsharded.status();
  EXPECT_EQ(*local, *unsharded);
  const int fd = RawConnect(harness.server->port());
  auto remote = RawScoreObservation(fd, spec.Name(), observation.providers);
  close(fd);
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_EQ(*remote, *local);
}

TEST_P(FusionServerTopologyTest, PipelinedBatchesComeBackInOrderAndIdentical) {
  ServerHarness harness(num_shards());
  FusionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());
  const MethodSpec spec = ServingLineup()[0];
  const auto total = static_cast<TripleId>(harness.dataset.num_triples());
  std::vector<std::vector<TripleId>> batches;
  for (TripleId lo = 0; lo + 50 <= total; lo += 50) {
    std::vector<TripleId> batch;
    for (TripleId t = lo; t < lo + 50; ++t) batch.push_back(t);
    batches.push_back(std::move(batch));
  }
  auto replies = client.PipelineScoreBatches(spec.Name(), batches);
  ASSERT_TRUE(replies.ok()) << replies.status();
  ASSERT_EQ(replies->size(), batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    auto local =
        harness.service->ScoreBatch(*harness.snapshot, spec, batches[b]);
    ASSERT_TRUE(local.ok());
    ASSERT_EQ((*replies)[b].scores.size(), local->size());
    for (size_t i = 0; i < local->size(); ++i) {
      ASSERT_EQ((*replies)[b].scores[i], (*local)[i]) << "batch " << b;
    }
  }
}

TEST(FusionServerTest, RequestLevelErrorsKeepTheConnectionServing) {
  ServerHarness harness;
  FusionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());

  // Unknown method.
  auto unknown = client.Score("no-such-method", 0);
  EXPECT_FALSE(unknown.ok());
  EXPECT_TRUE(client.connected());

  // Out-of-range triple.
  auto out_of_range = client.Score(
      "precrec", static_cast<TripleId>(harness.dataset.num_triples() + 10));
  EXPECT_FALSE(out_of_range.ok());
  EXPECT_TRUE(client.connected());

  // Observation scoring on a method without pattern serving; the same
  // connection then scores one on a method with it.
  const int fd = RawConnect(harness.server->port());
  EXPECT_FALSE(RawScoreObservation(fd, "precrec", {0, 1}).ok());
  EXPECT_TRUE(RawScoreObservation(fd, "precrec-corr", {0, 1}).ok());
  close(fd);

  // The connection still answers correctly after every error above.
  auto good = client.Score("precrec", 0);
  ASSERT_TRUE(good.ok()) << good.status();
  auto local = harness.service->Score(*harness.snapshot, ServingLineup()[1],
                                      0);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(good->score, *local);
  EXPECT_GE(harness.server->counters().errors_sent, 3u);
}

TEST(FusionServerTest, UnknownMessageTypeAnswersErrorAndKeepsServing) {
  ServerHarness harness;
  const int fd = RawConnect(harness.server->port());
  StatsRequest ping;
  ping.request_id = 99;
  RawWriteAll(fd, EncodeFrame(static_cast<MessageType>(77), ping.Encode()));
  FrameReader reader;
  auto frame = RawReadFrame(fd, &reader);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_EQ(frame->type, MessageType::kError);
  ErrorReply error;
  ASSERT_TRUE(error.Decode(frame->payload).ok());
  EXPECT_EQ(error.request_id, 99u);  // id recovered from the payload
  EXPECT_FALSE(error.fatal);

  // Framing was intact, so the same socket still serves real requests.
  RawWriteAll(fd, EncodeFrame(MessageType::kStats, ping.Encode()));
  frame = RawReadFrame(fd, &reader);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, MessageType::kStatsReply);
  close(fd);
}

TEST(FusionServerTest, StreamCorruptionGetsOneFatalErrorThenClose) {
  ServerHarness harness;
  // Not even a frame header: 64 bytes of garbage.
  {
    const int fd = RawConnect(harness.server->port());
    RawWriteAll(fd, std::string(64, 'X'));
    FrameReader reader;
    auto frame = RawReadFrame(fd, &reader);
    ASSERT_TRUE(frame.ok()) << frame.status();
    ASSERT_EQ(frame->type, MessageType::kError);
    ErrorReply error;
    ASSERT_TRUE(error.Decode(frame->payload).ok());
    EXPECT_TRUE(error.fatal);
    EXPECT_TRUE(WaitForEof(fd));
    close(fd);
  }
  // A checksum-corrupted but otherwise well-formed frame.
  {
    const int fd = RawConnect(harness.server->port());
    StatsRequest ping;
    ping.request_id = 1;
    std::string wire = EncodeFrame(MessageType::kStats, ping.Encode());
    wire.back() = static_cast<char>(wire.back() ^ 0x01);
    RawWriteAll(fd, wire);
    FrameReader reader;
    auto frame = RawReadFrame(fd, &reader);
    ASSERT_TRUE(frame.ok()) << frame.status();
    ASSERT_EQ(frame->type, MessageType::kError);
    ErrorReply error;
    ASSERT_TRUE(error.Decode(frame->payload).ok());
    EXPECT_TRUE(error.fatal);
    EXPECT_TRUE(WaitForEof(fd));
    close(fd);
  }
  // An oversized length prefix fails on the header alone.
  {
    FusionServerOptions options;
    options.max_payload_bytes = 4096;
    ServerHarness small(/*num_shards=*/1, options, /*seed=*/313);
    const int fd = RawConnect(small.server->port());
    RawWriteAll(fd, EncodeFrame(MessageType::kScoreBatch,
                                std::string(8192, 'a')));
    FrameReader reader;
    auto frame = RawReadFrame(fd, &reader);
    ASSERT_TRUE(frame.ok()) << frame.status();
    ASSERT_EQ(frame->type, MessageType::kError);
    ErrorReply error;
    ASSERT_TRUE(error.Decode(frame->payload).ok());
    EXPECT_TRUE(error.fatal);
    EXPECT_TRUE(WaitForEof(fd));
    close(fd);
  }
}

TEST(FusionServerTest, SlowLorisSingleByteWritesStillGetAnswered) {
  ServerHarness harness;
  const int fd = RawConnect(harness.server->port());
  ScoreRequest request;
  request.request_id = 7;
  request.method = "precrec";
  request.triple = 5;
  const std::string wire =
      EncodeFrame(MessageType::kScore, request.Encode());
  // One byte at a time, with pauses long enough that the server sees many
  // partial reads — but far below the idle timeout.
  for (char byte : wire) {
    RawWriteAll(fd, std::string(1, byte));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FrameReader reader;
  auto frame = RawReadFrame(fd, &reader);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_EQ(frame->type, MessageType::kScoreReply);
  ScoreReply reply;
  ASSERT_TRUE(reply.Decode(frame->payload).ok());
  EXPECT_EQ(reply.request_id, 7u);
  auto local =
      harness.service->Score(*harness.snapshot, ServingLineup()[1], 5);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(reply.score, *local);
  close(fd);
}

TEST(FusionServerTest, IdleConnectionsAreReaped) {
  FusionServerOptions options;
  options.idle_timeout_ms = 100;
  ServerHarness harness(/*num_shards=*/1, options);
  const int fd = RawConnect(harness.server->port());
  // Write nothing; the sweep must close us without affecting the server.
  EXPECT_TRUE(WaitForEof(fd));
  close(fd);
  // A fresh, active client is unaffected by the reaping of the idle one.
  FusionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());
  EXPECT_TRUE(client.Stats().ok());
}

TEST(FusionServerTest, ClientReconnectsAfterServerRestart) {
  ServerHarness harness;
  const uint16_t port = harness.server->port();
  FusionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  ASSERT_TRUE(client.Score("precrec", 0).ok());

  harness.server->Stop();
  EXPECT_FALSE(harness.server->running());
  // The old connection is dead — calls fail instead of hanging.
  EXPECT_FALSE(client.Score("precrec", 0).ok());

  // Restart on the same port (SO_REUSEADDR) and reconnect with retries.
  FusionServer second(harness.service.get(), [port] {
    FusionServerOptions options;
    options.port = port;
    return options;
  }());
  ASSERT_TRUE(second.Start().ok());
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  auto reply = client.Score("precrec", 0);
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto local =
      harness.service->Score(*harness.snapshot, ServingLineup()[1], 0);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(reply->score, *local);
  second.Stop();
}

TEST_P(FusionServerTopologyTest, StopDrainsPipelinedRequestsAlreadyReceived) {
  FusionServerOptions options;
  options.num_workers = 1;
  ServerHarness harness(num_shards(), options);
  const int fd = RawConnect(harness.server->port());
  constexpr uint64_t kPipelined = 30;
  std::string wire;
  for (uint64_t i = 0; i < kPipelined; ++i) {
    ScoreBatchRequest request;
    request.request_id = 100 + i;
    request.method = "precrec-corr";
    const auto total = static_cast<TripleId>(harness.dataset.num_triples());
    for (TripleId t = 0; t < 16; ++t) {
      request.triples.push_back(static_cast<TripleId>((i * 16 + t) % total));
    }
    wire += EncodeFrame(MessageType::kScoreBatch, request.Encode());
  }
  RawWriteAll(fd, wire);
  // Give loopback a moment to land every byte in the server's kernel
  // buffer; the drain's final read sweep picks them all up.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  harness.server->Stop();

  FrameReader reader;
  for (uint64_t i = 0; i < kPipelined; ++i) {
    auto frame = RawReadFrame(fd, &reader);
    ASSERT_TRUE(frame.ok()) << "reply " << i << ": " << frame.status();
    ASSERT_EQ(frame->type, MessageType::kScoreBatchReply);
    ScoreBatchReply reply;
    ASSERT_TRUE(reply.Decode(frame->payload).ok());
    EXPECT_EQ(reply.request_id, 100 + i);
    ASSERT_EQ(reply.scores.size(), 16u);
  }
  close(fd);
}

TEST_P(FusionServerTopologyTest, ManyConcurrentClientsAllGetIdenticalAnswers) {
  FusionServerOptions options;
  options.num_workers = 3;
  ServerHarness harness(num_shards(), options);
  auto local = harness.service->ScoreBatch(
      *harness.snapshot, ServingLineup()[0],
      AllTriples(harness.dataset.num_triples()));
  ASSERT_TRUE(local.ok());
  constexpr size_t kClients = 8;
  std::vector<std::thread> threads;
  std::vector<Status> failures(kClients, Status::OK());
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      FusionClient client;
      Status connected = client.Connect("127.0.0.1",
                                        harness.server->port());
      if (!connected.ok()) {
        failures[c] = connected;
        return;
      }
      const auto total =
          static_cast<TripleId>(harness.dataset.num_triples());
      for (int round = 0; round < 5; ++round) {
        std::vector<TripleId> batch;
        for (TripleId t = static_cast<TripleId>(c); t < total;
             t += static_cast<TripleId>(kClients)) {
          batch.push_back(t);
        }
        auto remote = client.ScoreBatch("precrec-corr", batch);
        if (!remote.ok()) {
          failures[c] = remote.status();
          return;
        }
        for (size_t i = 0; i < batch.size(); ++i) {
          if (remote->scores[i] != (*local)[batch[i]]) {
            failures[c] = Status::Internal("score mismatch");
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].ok()) << "client " << c << ": " << failures[c];
  }
  EXPECT_EQ(harness.server->counters().connections_accepted, kClients);
}

INSTANTIATE_TEST_SUITE_P(
    OneAndFourShards, FusionServerTopologyTest, testing::Values(1u, 4u),
    [](const testing::TestParamInfo<uint32_t>& info) {
      return "K" + std::to_string(info.param);
    });

TEST(FusionServerBacklogTest, NonReadingClientIsPausedOthersAreServed) {
  FusionServerOptions options;
  options.num_workers = 1;  // both clients share one event loop
  ServerHarness harness(/*num_shards=*/1, options);
  const int greedy = RawConnect(harness.server->port());
  ASSERT_EQ(fcntl(greedy, F_SETFL, fcntl(greedy, F_GETFL, 0) | O_NONBLOCK),
            0);

  // Pipelines large ScoreBatch requests (each reply ~256 KB) and never
  // reads a reply. Without the bound the server would buffer every reply.
  ScoreBatchRequest request;
  request.method = "precrec-corr";
  const auto total = static_cast<TripleId>(harness.dataset.num_triples());
  for (TripleId i = 0; i < 32768; ++i) request.triples.push_back(i % total);
  auto paused = [&] { return harness.server->counters().backlog_pauses > 0; };
  std::string pending;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  // A server that never pauses would buffer all of these (~64 MB); the
  // bound stalls the client after a few dozen.
  constexpr uint64_t kMaxRequests = 256;
  bool stalled = false;
  while (!stalled && request.request_id <= kMaxRequests &&
         std::chrono::steady_clock::now() < deadline) {
    if (pending.empty()) {
      ++request.request_id;
      pending = EncodeFrame(MessageType::kScoreBatch, request.Encode());
    }
    const ssize_t n = write(greedy, pending.data(), pending.size());
    if (n > 0) {
      pending.erase(0, static_cast<size_t>(n));
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << strerror(errno);
    // The socket is full. Once the server has paused this connection it
    // stops reading, so the stall is permanent: no room frees up.
    pollfd p{};
    p.fd = greedy;
    p.events = POLLOUT;
    stalled = poll(&p, 1, 300) == 0 && paused();
  }
  ASSERT_TRUE(stalled) << "server kept reading a non-reading client";
  // Replies stop at the bound (plus the one that crossed it and what the
  // kernel buffers hold), far short of what was asked for.
  EXPECT_LT(harness.server->counters().requests_served, request.request_id);

  // The paused connection does not wedge the shared event loop.
  FusionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());
  ExpectNetworkMatchesLocal(harness, &client);
  close(greedy);
}

/// Lowers the soft RLIMIT_NOFILE for its lifetime.
class ScopedFdLimit {
 public:
  explicit ScopedFdLimit(rlim_t soft) {
    EXPECT_EQ(getrlimit(RLIMIT_NOFILE, &saved_), 0) << strerror(errno);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    EXPECT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0) << strerror(errno);
  }
  ~ScopedFdLimit() {
    EXPECT_EQ(setrlimit(RLIMIT_NOFILE, &saved_), 0) << strerror(errno);
  }

 private:
  rlimit saved_{};
};

TEST(FusionServerCapTest, ConnectionsPastTheDescriptorCapAreRefused) {
  constexpr size_t kCap = 4;
  constexpr size_t kExtra = 3;
  std::unique_ptr<ServerHarness> harness;
  {
    // Start() derives the cap from the limit; the clients below run under
    // the restored one.
    ScopedFdLimit limit(kReservedFds + kCap);
    harness = std::make_unique<ServerHarness>();
  }
  const uint16_t port = harness->server->port();
  std::vector<std::unique_ptr<FusionClient>> clients;
  for (size_t c = 0; c < kCap; ++c) {
    clients.push_back(std::make_unique<FusionClient>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", port).ok());
  }
  // The listener accepts in arrival order, so these are past the cap.
  for (size_t c = 0; c < kExtra; ++c) {
    const int fd = RawConnect(port);
    EXPECT_TRUE(WaitForEof(fd)) << "connection " << kCap + c << " was kept";
    close(fd);
  }
  const ServerCounters counters = harness->server->counters();
  EXPECT_EQ(counters.connections_refused, kExtra);
  EXPECT_EQ(counters.connections_accepted, kCap);
  for (auto& client : clients) {
    ExpectNetworkMatchesLocal(*harness, client.get());
  }

  // A closed connection frees its slot once its worker notices the EOF.
  clients.pop_back();
  bool served = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!served && std::chrono::steady_clock::now() < deadline) {
    FusionClient client;
    served = client.Connect("127.0.0.1", port).ok() && client.Stats().ok();
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(served) << "a freed slot was never reused";
}

double ProcessCpuSeconds() {
  rusage usage{};
  EXPECT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(FusionServerCapTest, AcceptorBacksOffWhenOutOfDescriptors) {
  ServerHarness harness;
  // The socket exists before the limit drops: connect() needs no new
  // descriptor, the server's accept() does.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(harness.server->port());
  double cpu_seconds = 0.0;
  {
    ScopedFdLimit limit(3);  // stdio only: every new descriptor fails
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << strerror(errno);
    const double before = ProcessCpuSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    cpu_seconds = ProcessCpuSeconds() - before;
  }
  // An acceptor re-polling its still-readable listener burns a whole core
  // for the window; backing off costs next to nothing.
  EXPECT_LT(cpu_seconds, 0.25);
  // With descriptors back, the queued connection is accepted.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (harness.server->counters().connections_accepted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(harness.server->counters().connections_accepted, 1u);
  close(fd);
}

TEST(FusionServerForcePollTest, PollEventLoopServesIdentically) {
  // The poll() loop is chosen where the workers are created: in Start(),
  // which the harness constructor runs.
  const char* previous = std::getenv("FUSER_NET_FORCE_POLL");
  const std::string saved = previous != nullptr ? previous : "";
  setenv("FUSER_NET_FORCE_POLL", "1", /*overwrite=*/1);
  ServerHarness harness(/*num_shards=*/1);
  if (previous != nullptr) {
    setenv("FUSER_NET_FORCE_POLL", saved.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("FUSER_NET_FORCE_POLL");
  }
  FusionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());
  ExpectNetworkMatchesLocal(harness, &client);
}

}  // namespace
}  // namespace net
}  // namespace fuser
