// FusionServer: the TCP front end over a ShardedFusionService (K >= 1
// shards; K=1 is the unsharded engine). Every request pins one published
// snapshot and its reply names that snapshot's id, so a response can be
// traced to the exact state that produced it while a streaming writer
// keeps publishing.
//
// Architecture: one acceptor thread plus N event-loop worker threads.
// Accepted connections are handed round-robin to workers; each worker owns
// its connections outright (per-connection read/write buffers, idle
// clock) and multiplexes them through a non-blocking epoll loop (poll
// fallback on non-Linux hosts, or when FUSER_NET_FORCE_POLL=1 is set at
// Start() — CI runs net_server_test and net_stress_test both ways).
// Requests are parsed with net::FrameReader, so arbitrarily fragmented
// frames (slow-loris writers, single-byte drips) assemble correctly, and
// responses are written with partial-write handling under EPOLLOUT.
//
// Error containment, matching the wire contract (net/wire.h):
//  * stream-integrity violations (bad magic/version, oversized length
//    prefix, checksum mismatch) answer one fatal kError frame, flush, and
//    close — the frame boundary is gone;
//  * request-level failures (unknown message type, undecodable payload,
//    unknown method, out-of-range triple) answer kError and keep serving
//    the connection;
//  * a wedged peer cannot wedge the server: reads and writes never block,
//    and connections idle beyond the timeout are closed;
//  * a peer that pipelines requests without reading the replies cannot
//    grow server memory: once a connection's unsent replies pass
//    kMaxPendingReplyBytes the server stops reading and answering it until
//    the peer drains them (ServerCounters::backlog_pauses);
//  * clients cannot exhaust the process's descriptors: open connections
//    are capped at RLIMIT_NOFILE minus kReservedFds (read at Start()), and
//    a connection past the cap is accepted and closed at once
//    (ServerCounters::connections_refused). Should accept() still run out
//    of descriptors, the acceptor backs off instead of spinning on the
//    still-readable listener.
//
// Stop() is graceful: the listener closes first, then every worker drains
// — requests already received in full are answered and pending write
// buffers flushed (bounded by drain_timeout_ms) — so a client that
// pipelined a batch right before shutdown still gets its responses (a
// connection paused on its reply backlog is answered up to what the
// server had read). The
// service stays valid the whole time; a streaming writer may keep calling
// Update/PublishSnapshot on the engine behind it throughout.
#ifndef FUSER_NET_FUSION_SERVER_H_
#define FUSER_NET_FUSION_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/wire.h"
#include "shard/sharded_service.h"

namespace fuser {
namespace net {

/// A connection whose unsent reply bytes exceed this is paused — no reads,
/// no dispatch — until its peer drains the backlog back under it. A
/// connection's buffered replies are thus bounded by this plus one reply.
inline constexpr size_t kMaxPendingReplyBytes = 1u << 20;

/// Descriptors kept out of the connection cap for everything else the
/// process opens: stdio, the listener, the stop pipe, each worker's poller
/// and wake pipe, snapshot files.
inline constexpr size_t kReservedFds = 64;

struct FusionServerOptions {
  /// Port to bind on 127.0.0.1; 0 picks an ephemeral port (read it back
  /// via port()).
  uint16_t port = 0;
  /// Event-loop worker threads (each owns an epoll/poll loop).
  size_t num_workers = 2;
  /// Frames whose length prefix exceeds this answer a fatal error.
  size_t max_payload_bytes = kDefaultMaxPayloadBytes;
  /// Close connections with no traffic for this long; 0 disables.
  int idle_timeout_ms = 60000;
  /// Bound on the graceful-drain phase of Stop().
  int drain_timeout_ms = 5000;
  int listen_backlog = 128;
};

/// Monotonic counters, readable while the server runs.
struct ServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t requests_served = 0;
  uint64_t errors_sent = 0;
  /// Times a connection was paused on its reply backlog.
  uint64_t backlog_pauses = 0;
  /// Connections closed on accept because the connection cap was reached.
  uint64_t connections_refused = 0;
};

class FusionServer {
 public:
  /// `service` must outlive the server. Its methods are const and
  /// thread-safe: every worker thread calls them concurrently.
  FusionServer(const ShardedFusionService* service,
               FusionServerOptions options);
  ~FusionServer();  // Stop() if still running

  FusionServer(const FusionServer&) = delete;
  FusionServer& operator=(const FusionServer&) = delete;

  /// Binds, listens, and spawns the acceptor + worker threads. Fails on
  /// bind/listen errors (port in use, no permission).
  Status Start();

  /// Graceful shutdown: stop accepting, drain in-flight requests, join
  /// every thread. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (after Start); with options.port == 0 this is the
  /// kernel-assigned ephemeral port.
  uint16_t port() const { return port_; }

  ServerCounters counters() const;

 private:
  class Worker;

  void AcceptLoop();

  const ShardedFusionService* service_;
  FusionServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};  // wakes the acceptor out of poll()
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> errors_sent_{0};
  std::atomic<uint64_t> backlog_pauses_{0};
  std::atomic<uint64_t> connections_refused_{0};
  /// Open connections: incremented by the acceptor, decremented by the
  /// worker that closes one. Refusals keep it at or below max_connections_.
  std::atomic<size_t> open_connections_{0};
  size_t max_connections_ = 0;  // set by Start() from RLIMIT_NOFILE
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread acceptor_;
};

}  // namespace net
}  // namespace fuser

#endif  // FUSER_NET_FUSION_SERVER_H_
