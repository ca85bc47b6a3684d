// FusionClient: a small blocking C++ client for FusionServer.
//
// One client owns one TCP connection and is *not* thread-safe — use one
// client per thread (the load generator in bench/bench_network.cc does
// exactly that). Connect() retries with a fixed delay, which also covers
// the reconnect-after-server-restart case: keep the client object, call
// Connect() again.
//
// All calls are synchronous request/response except Pipeline*, which
// writes every request back-to-back before reading any reply — the server
// processes frames in order per connection, so deep pipelines amortize the
// per-round-trip latency without any client-side bookkeeping beyond
// matching request ids.
//
// Server-side failures arrive as kError frames and come back as the
// embedded Status; a fatal error (stream-integrity violation) closes the
// connection locally too, because the server is about to drop it.
#ifndef FUSER_NET_FUSION_CLIENT_H_
#define FUSER_NET_FUSION_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/triple.h"
#include "net/wire.h"

namespace fuser {
namespace net {

struct FusionClientOptions {
  /// Connect() attempts before giving up (covers server start-up races).
  int connect_attempts = 10;
  int retry_delay_ms = 100;
  /// Per-poll bound on waiting for the socket; a silent server fails the
  /// call with IoError instead of hanging the caller.
  int io_timeout_ms = 30000;
  size_t max_payload_bytes = kDefaultMaxPayloadBytes;
};

class FusionClient {
 public:
  FusionClient() = default;
  explicit FusionClient(FusionClientOptions options) : options_(options) {}
  ~FusionClient();

  FusionClient(const FusionClient&) = delete;
  FusionClient& operator=(const FusionClient&) = delete;

  /// Connects (with retries) to `host`:`port`. Reconnecting an already
  /// connected client closes the old socket first.
  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Single-triple posterior under the named method.
  StatusOr<ScoreReply> Score(const std::string& method, TripleId triple);

  /// Batched posteriors: one round trip, scores in request order,
  /// byte-identical to the server's in-process FusionService answers.
  StatusOr<ScoreBatchReply> ScoreBatch(const std::string& method,
                                       const std::vector<TripleId>& triples);

  StatusOr<StatsReply> Stats();

  /// Pipelined load: writes all `batches` as kScoreBatch requests, then
  /// reads all replies. Fails on the first error reply.
  StatusOr<std::vector<ScoreBatchReply>> PipelineScoreBatches(
      const std::string& method,
      const std::vector<std::vector<TripleId>>& batches);

 private:
  Status WriteAll(const std::string& bytes);
  /// Blocks until one complete frame is available (or io_timeout_ms of
  /// socket silence).
  StatusOr<WireFrame> ReadFrame();
  /// Reads one frame and decodes it as `expected` with request id `id`;
  /// kError frames come back as their embedded Status.
  template <typename Reply>
  StatusOr<Reply> ReadReply(MessageType expected, uint64_t id);

  FusionClientOptions options_;
  int fd_ = -1;
  FrameReader reader_{kDefaultMaxPayloadBytes};
  uint64_t next_request_id_ = 1;
};

}  // namespace net
}  // namespace fuser

#endif  // FUSER_NET_FUSION_CLIENT_H_
