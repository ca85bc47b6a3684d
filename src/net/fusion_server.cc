#include "net/fusion_server.h"

#include <arpa/inet.h>
#include <errno.h>
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
#include <deque>
#include <mutex>
#include <unordered_map>

#if defined(__linux__)
#include <sys/epoll.h>
#define FUSER_NET_HAVE_EPOLL 1
#endif

#include "common/string_util.h"
#include "core/fusion_method.h"
#include "persist/binary_io.h"

namespace fuser {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

/// How long the acceptor waits before retrying accept() once the process
/// is out of descriptors or kernel memory.
constexpr int kAcceptBackoffMs = 20;

/// The open-connection cap: RLIMIT_NOFILE minus kReservedFds, at least 1.
size_t ConnectionCap() {
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) != 0 ||
      limit.rlim_cur == RLIM_INFINITY) {
    return SIZE_MAX;
  }
  return limit.rlim_cur > kReservedFds ? limit.rlim_cur - kReservedFds : 1;
}

Status Errno(const char* what) {
  return Status::IoError(StrFormat("%s: %s", what, strerror(errno)));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// One ready descriptor out of Poller::Wait.
struct PollerEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

/// Readiness notification behind one interface so the worker loop is
/// identical under epoll and under the portable poll() fallback.
class Poller {
 public:
  virtual ~Poller() = default;
  /// Registers `fd` for readability only.
  virtual Status Add(int fd) = 0;
  virtual Status Update(int fd, bool want_read, bool want_write) = 0;
  virtual void Remove(int fd) = 0;
  virtual Status Wait(int timeout_ms, std::vector<PollerEvent>* events) = 0;
};

#if FUSER_NET_HAVE_EPOLL
class EpollPoller : public Poller {
 public:
  static StatusOr<std::unique_ptr<Poller>> Create() {
    const int fd = epoll_create1(EPOLL_CLOEXEC);
    if (fd < 0) return Errno("epoll_create1");
    return std::unique_ptr<Poller>(new EpollPoller(fd));
  }
  ~EpollPoller() override { close(epoll_fd_); }

  Status Add(int fd) override {
    return Control(EPOLL_CTL_ADD, fd, /*want_read=*/true, /*want_write=*/false);
  }
  Status Update(int fd, bool want_read, bool want_write) override {
    return Control(EPOLL_CTL_MOD, fd, want_read, want_write);
  }
  void Remove(int fd) override {
    epoll_event ev{};
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &ev);
  }
  Status Wait(int timeout_ms, std::vector<PollerEvent>* events) override {
    epoll_event ready[64];
    const int n = epoll_wait(epoll_fd_, ready, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return Status::OK();
      return Errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      PollerEvent event;
      event.fd = static_cast<int>(ready[i].data.fd);
      event.readable = (ready[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      event.writable = (ready[i].events & EPOLLOUT) != 0;
      event.error = (ready[i].events & EPOLLERR) != 0;
      events->push_back(event);
    }
    return Status::OK();
  }

 private:
  explicit EpollPoller(int fd) : epoll_fd_(fd) {}
  Status Control(int op, int fd, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, op, fd, &ev) < 0) return Errno("epoll_ctl");
    return Status::OK();
  }
  int epoll_fd_;
};
#endif  // FUSER_NET_HAVE_EPOLL

class PollPoller : public Poller {
 public:
  Status Add(int fd) override {
    return Update(fd, /*want_read=*/true, /*want_write=*/false);
  }
  Status Update(int fd, bool want_read, bool want_write) override {
    interest_[fd] = static_cast<short>((want_read ? POLLIN : 0) |
                                       (want_write ? POLLOUT : 0));
    return Status::OK();
  }
  void Remove(int fd) override { interest_.erase(fd); }
  Status Wait(int timeout_ms, std::vector<PollerEvent>* events) override {
    std::vector<pollfd> fds;
    fds.reserve(interest_.size());
    for (const auto& [fd, events] : interest_) {
      pollfd p{};
      p.fd = fd;
      p.events = events;
      fds.push_back(p);
    }
    const int n = poll(fds.data(), fds.size(), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return Status::OK();
      return Errno("poll");
    }
    for (const pollfd& p : fds) {
      if (p.revents == 0) continue;
      PollerEvent event;
      event.fd = p.fd;
      event.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
      event.writable = (p.revents & POLLOUT) != 0;
      event.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
      events->push_back(event);
    }
    return Status::OK();
  }

 private:
  std::unordered_map<int, short> interest_;  // fd -> poll events
};

/// epoll where available, unless FUSER_NET_FORCE_POLL=1 asks for poll().
StatusOr<std::unique_ptr<Poller>> MakePoller() {
  const char* env = std::getenv("FUSER_NET_FORCE_POLL");
  const bool force_poll = env != nullptr && env[0] == '1';
#if FUSER_NET_HAVE_EPOLL
  if (!force_poll) return EpollPoller::Create();
#else
  (void)force_poll;
#endif
  return std::unique_ptr<Poller>(new PollPoller());
}

/// The request's id is always the first payload field, so even a payload
/// that later fails to decode can usually be answered with the right id.
uint64_t PeekRequestId(const std::string& payload) {
  if (payload.size() < 8) return 0;
  return persist::LoadU64LE(payload.data());
}

}  // namespace

// ---------------------------------------------------------------------------
// Worker: one event-loop thread owning a set of connections.
// ---------------------------------------------------------------------------

class FusionServer::Worker {
 public:
  Worker(FusionServer* server, size_t max_payload_bytes)
      : server_(server), max_payload_bytes_(max_payload_bytes) {}

  ~Worker() {
    Join();
    for (auto& [fd, conn] : connections_) Release(fd);
    if (wake_pipe_[0] >= 0) close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0) close(wake_pipe_[1]);
  }

  Status Start() {
    FUSER_ASSIGN_OR_RETURN(poller_, MakePoller());
    if (pipe(wake_pipe_) < 0) return Errno("pipe");
    FUSER_RETURN_IF_ERROR(SetNonBlocking(wake_pipe_[0]));
    FUSER_RETURN_IF_ERROR(SetNonBlocking(wake_pipe_[1]));
    FUSER_RETURN_IF_ERROR(poller_->Add(wake_pipe_[0]));
    thread_ = std::thread([this] { Loop(); });
    return Status::OK();
  }

  /// Called from the acceptor thread: hand over a freshly accepted fd.
  void Enqueue(int fd) {
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      inbox_.push_back(fd);
    }
    Wake();
  }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  struct Connection {
    FrameReader reader;
    std::string wbuf;
    size_t wpos = 0;
    Clock::time_point last_active;
    bool close_after_flush = false;
    /// Unsent replies passed kMaxPendingReplyBytes: no reads, no dispatch.
    bool paused = false;
    bool want_read = true;  // interest registered with the poller
    bool want_write = false;

    explicit Connection(size_t max_payload)
        : reader(max_payload), last_active(Clock::now()) {}
    size_t pending_bytes() const { return wbuf.size() - wpos; }
  };

  void Wake() {
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup.
    (void)!write(wake_pipe_[1], &byte, 1);
  }

  void Loop() {
    const int idle_ms = server_->options_.idle_timeout_ms;
    while (true) {
      const bool stopping = stop_.load(std::memory_order_acquire);
      if (stopping) {
        Drain();
        return;
      }
      std::vector<PollerEvent> events;
      // Bounded wait so idle sweeps and the stop flag are checked even on
      // a silent socket set.
      const int wait_ms = idle_ms > 0 ? std::min(idle_ms, 50) : 50;
      if (!poller_->Wait(wait_ms, &events).ok()) return;
      AdoptNewConnections();
      for (const PollerEvent& event : events) {
        if (event.fd == wake_pipe_[0]) {
          char scratch[256];
          while (read(wake_pipe_[0], scratch, sizeof(scratch)) > 0) {
          }
          continue;
        }
        auto it = connections_.find(event.fd);
        if (it == connections_.end()) continue;
        Connection& conn = it->second;
        bool alive = true;
        if (event.error) alive = false;
        if (alive && event.readable) alive = HandleReadable(event.fd, conn);
        if (alive && event.writable) alive = FlushWrites(event.fd, conn);
        if (!alive) CloseConnection(event.fd);
      }
      if (idle_ms > 0) SweepIdle(idle_ms);
    }
  }

  void AdoptNewConnections() {
    std::vector<int> fresh;
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      fresh.swap(inbox_);
    }
    for (int fd : fresh) {
      if (!SetNonBlocking(fd).ok() ||
          !poller_->Add(fd).ok()) {
        Release(fd);
        continue;
      }
      connections_.emplace(fd, Connection(max_payload_bytes_));
    }
  }

  /// Reads and answers what is available until EAGAIN or a backlog pause
  /// (the rest stays in the socket); returns false when the connection
  /// died.
  bool HandleReadable(int fd, Connection& conn) {
    char buf[64 * 1024];
    while (!conn.paused) {
      const ssize_t n = read(fd, buf, sizeof(buf));
      if (n > 0) {
        conn.reader.Append(buf, static_cast<size_t>(n));
        conn.last_active = Clock::now();
        ProcessFrames(conn);
        continue;
      }
      if (n == 0) return false;  // peer closed
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    return FlushWrites(fd, conn);
  }

  /// Pulls complete frames out of the read buffer and appends responses,
  /// pausing the connection once its unsent replies pass the bound.
  void ProcessFrames(Connection& conn) {
    WireFrame frame;
    while (!conn.close_after_flush) {
      if (conn.pending_bytes() > kMaxPendingReplyBytes) {
        conn.paused = true;
        server_->backlog_pauses_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      auto next = conn.reader.Next(&frame);
      if (!next.ok()) {
        // Stream integrity lost: one fatal error frame, then close.
        SendError(conn, ErrorReply::FromStatus(0, next.status(),
                                               /*fatal=*/true));
        conn.close_after_flush = true;
        return;
      }
      if (!*next) return;  // need more bytes
      Dispatch(frame, conn);
    }
  }

  /// The one request path: decode -> resolve the method -> pin one
  /// snapshot -> score -> encode. Any failure answers a non-fatal kError
  /// carrying the request id (the first payload field of every request).
  void Dispatch(const WireFrame& frame, Connection& conn) {
    MessageType reply_type = MessageType::kError;
    StatusOr<std::string> reply = Answer(frame, &reply_type);
    if (reply.ok()) {
      SendReply(conn, reply_type, *reply);
    } else {
      SendError(conn, ErrorReply::FromStatus(PeekRequestId(frame.payload),
                                             reply.status(),
                                             /*fatal=*/false));
    }
  }

  StatusOr<std::string> Answer(const WireFrame& frame,
                               MessageType* reply_type) const {
    const ShardedFusionService& service = *server_->service_;
    switch (frame.type) {
      case MessageType::kScore: {
        ScoreRequest req;
        FUSER_RETURN_IF_ERROR(req.Decode(frame.payload));
        FUSER_ASSIGN_OR_RETURN(const MethodSpec spec,
                               ParseMethodSpec(req.method));
        FUSER_ASSIGN_OR_RETURN(const auto snapshot, service.Acquire());
        ScoreReply reply{req.request_id, snapshot->id};
        FUSER_ASSIGN_OR_RETURN(reply.score,
                               service.Score(*snapshot, spec, req.triple));
        *reply_type = MessageType::kScoreReply;
        return reply.Encode();
      }
      case MessageType::kScoreBatch: {
        ScoreBatchRequest req;
        FUSER_RETURN_IF_ERROR(req.Decode(frame.payload));
        FUSER_ASSIGN_OR_RETURN(const MethodSpec spec,
                               ParseMethodSpec(req.method));
        FUSER_ASSIGN_OR_RETURN(const auto snapshot, service.Acquire());
        ScoreBatchReply reply{req.request_id, snapshot->id, {}};
        FUSER_ASSIGN_OR_RETURN(
            reply.scores, service.ScoreBatch(*snapshot, spec, req.triples));
        *reply_type = MessageType::kScoreBatchReply;
        return reply.Encode();
      }
      case MessageType::kScoreObservation: {
        ScoreObservationRequest req;
        FUSER_RETURN_IF_ERROR(req.Decode(frame.payload));
        FUSER_ASSIGN_OR_RETURN(const MethodSpec spec,
                               ParseMethodSpec(req.method));
        FUSER_ASSIGN_OR_RETURN(const auto snapshot, service.Acquire());
        const AdHocObservation observation{std::move(req.providers),
                                           std::move(req.in_scope)};
        ScoreReply reply{req.request_id, snapshot->id};
        FUSER_ASSIGN_OR_RETURN(
            reply.score,
            service.ScoreObservation(*snapshot, spec, observation));
        *reply_type = MessageType::kScoreObservationReply;
        return reply.Encode();
      }
      case MessageType::kStats: {
        StatsRequest req;
        FUSER_RETURN_IF_ERROR(req.Decode(frame.payload));
        FUSER_ASSIGN_OR_RETURN(const auto snapshot, service.Acquire());
        StatsReply reply;
        reply.request_id = req.request_id;
        reply.snapshot_id = snapshot->id;
        // Shards publish in lockstep under the router; shard 0's dataset
        // version stands in for the corpus.
        reply.dataset_version = snapshot->shards[0]->dataset_version;
        reply.num_triples = snapshot->num_triples;
        reply.num_sources = snapshot->num_sources;
        reply.num_shards = snapshot->shards.size();
        reply.requests_served =
            server_->requests_served_.load(std::memory_order_relaxed);
        *reply_type = MessageType::kStatsReply;
        return reply.Encode();
      }
      default:
        return Status::InvalidArgument(
            StrFormat("unknown message type %u",
                      static_cast<uint32_t>(frame.type)));
    }
  }

  void SendReply(Connection& conn, MessageType type,
                 const std::string& payload) {
    conn.wbuf += EncodeFrame(type, payload);
    server_->requests_served_.fetch_add(1, std::memory_order_relaxed);
  }

  void SendError(Connection& conn, const ErrorReply& reply) {
    conn.wbuf += EncodeFrame(MessageType::kError, reply.Encode());
    server_->errors_sent_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Writes as much of the pending buffer as the socket accepts, resuming
  /// a paused connection (answering its already-buffered requests) once
  /// the backlog drains under the bound; returns false when the connection
  /// died or finished a close-after-flush.
  bool FlushWrites(int fd, Connection& conn) {
    while (true) {
      while (conn.pending_bytes() > 0) {
        const ssize_t n = write(fd, conn.wbuf.data() + conn.wpos,
                                conn.pending_bytes());
        if (n > 0) {
          conn.wpos += static_cast<size_t>(n);
          conn.last_active = Clock::now();
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      if (conn.pending_bytes() == 0) {
        conn.wbuf.clear();
        conn.wpos = 0;
      } else if (conn.wpos > kMaxPendingReplyBytes) {
        // A peer that reads slowly but never catches up must not grow the
        // buffer with sent bytes either.
        conn.wbuf.erase(0, conn.wpos);
        conn.wpos = 0;
      }
      if (!conn.paused || conn.pending_bytes() > kMaxPendingReplyBytes) break;
      conn.paused = false;
      ProcessFrames(conn);
    }
    if (conn.pending_bytes() == 0 && conn.close_after_flush) return false;
    // Level-triggered readiness: a paused connection drops read interest so
    // its unread requests do not spin the loop.
    const bool want_read = !conn.paused;
    const bool want_write = conn.pending_bytes() > 0;
    if (want_read != conn.want_read || want_write != conn.want_write) {
      conn.want_read = want_read;
      conn.want_write = want_write;
      (void)poller_->Update(fd, want_read, want_write);
    }
    return true;
  }

  void SweepIdle(int idle_ms) {
    const auto now = Clock::now();
    std::vector<int> expired;
    for (const auto& [fd, conn] : connections_) {
      const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                            now - conn.last_active)
                            .count();
      if (idle >= idle_ms) expired.push_back(fd);
    }
    for (int fd : expired) CloseConnection(fd);
  }

  /// Graceful-shutdown tail: answer every request already received in
  /// full, then flush pending responses until done or the drain deadline.
  void Drain() {
    AdoptNewConnections();
    const auto deadline =
        Clock::now() +
        std::chrono::milliseconds(server_->options_.drain_timeout_ms);
    // One final read sweep picks up requests that reached the kernel
    // buffer before the listener closed.
    std::vector<int> dead;
    for (auto& [fd, conn] : connections_) {
      if (!HandleReadable(fd, conn)) dead.push_back(fd);
    }
    for (int fd : dead) CloseConnection(fd);
    while (Clock::now() < deadline) {
      bool pending = false;
      dead.clear();
      for (auto& [fd, conn] : connections_) {
        if (!FlushWrites(fd, conn)) {
          dead.push_back(fd);
        } else if (conn.pending_bytes() > 0) {
          pending = true;
        }
      }
      for (int fd : dead) CloseConnection(fd);
      if (!pending) break;
      std::vector<PollerEvent> events;
      if (!poller_->Wait(20, &events).ok()) break;
    }
    std::vector<int> all;
    all.reserve(connections_.size());
    for (const auto& [fd, conn] : connections_) all.push_back(fd);
    for (int fd : all) CloseConnection(fd);
  }

  void CloseConnection(int fd) {
    poller_->Remove(fd);
    Release(fd);
    connections_.erase(fd);
  }

  /// Closes an accepted connection's fd and frees its slot under the cap.
  void Release(int fd) {
    close(fd);
    server_->open_connections_.fetch_sub(1, std::memory_order_relaxed);
  }

  FusionServer* server_;
  size_t max_payload_bytes_;
  std::unique_ptr<Poller> poller_;
  int wake_pipe_[2] = {-1, -1};
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::mutex inbox_mu_;
  std::vector<int> inbox_;
  std::unordered_map<int, Connection> connections_;
};

// ---------------------------------------------------------------------------
// FusionServer
// ---------------------------------------------------------------------------

FusionServer::FusionServer(const ShardedFusionService* service,
                           FusionServerOptions options)
    : service_(service), options_(options) {
  if (options_.num_workers == 0) options_.num_workers = 1;
}

FusionServer::~FusionServer() { Stop(); }

Status FusionServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status failed = Errno("bind");
    close(listen_fd_);
    listen_fd_ = -1;
    return failed;
  }
  if (listen(listen_fd_, options_.listen_backlog) < 0) {
    Status failed = Errno("listen");
    close(listen_fd_);
    listen_fd_ = -1;
    return failed;
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) < 0) {
    Status failed = Errno("getsockname");
    close(listen_fd_);
    listen_fd_ = -1;
    return failed;
  }
  port_ = ntohs(addr.sin_port);
  FUSER_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
  if (pipe(stop_pipe_) < 0) {
    Status failed = Errno("pipe");
    close(listen_fd_);
    listen_fd_ = -1;
    return failed;
  }

  stopping_.store(false, std::memory_order_release);
  max_connections_ = ConnectionCap();
  open_connections_.store(0, std::memory_order_relaxed);
  workers_.clear();
  for (size_t w = 0; w < options_.num_workers; ++w) {
    workers_.push_back(
        std::make_unique<Worker>(this, options_.max_payload_bytes));
    Status started = workers_.back()->Start();
    if (!started.ok()) {
      for (auto& worker : workers_) worker->RequestStop();
      workers_.clear();
      close(listen_fd_);
      listen_fd_ = -1;
      close(stop_pipe_[0]);
      close(stop_pipe_[1]);
      stop_pipe_[0] = stop_pipe_[1] = -1;
      return started;
    }
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

void FusionServer::AcceptLoop() {
  size_t next_worker = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = stop_pipe_[0];
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    const int n = poll(fds, 2, 500);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;  // Stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    while (true) {
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          // The pending connection stays queued, so the listener stays
          // readable: polling it again at once would spin. Wait for a
          // descriptor to free up, or for Stop().
          pollfd stop{};
          stop.fd = stop_pipe_[0];
          stop.events = POLLIN;
          (void)poll(&stop, 1, kAcceptBackoffMs);
        }
        break;  // EAGAIN or backed off: back to poll
      }
      // Only this thread adds connections, so the count cannot pass the
      // cap between the check and the increment.
      if (open_connections_.load(std::memory_order_relaxed) >=
          max_connections_) {
        connections_refused_.fetch_add(1, std::memory_order_relaxed);
        close(fd);
        continue;
      }
      open_connections_.fetch_add(1, std::memory_order_relaxed);
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      workers_[next_worker]->Enqueue(fd);
      next_worker = (next_worker + 1) % workers_.size();
    }
  }
}

void FusionServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  const char byte = 1;
  (void)!write(stop_pipe_[1], &byte, 1);
  if (acceptor_.joinable()) acceptor_.join();
  // The listener closes before the workers drain: no new connections can
  // race the drain phase.
  close(listen_fd_);
  listen_fd_ = -1;
  for (auto& worker : workers_) worker->RequestStop();
  for (auto& worker : workers_) worker->Join();
  workers_.clear();
  close(stop_pipe_[0]);
  close(stop_pipe_[1]);
  stop_pipe_[0] = stop_pipe_[1] = -1;
}

ServerCounters FusionServer::counters() const {
  ServerCounters counters;
  counters.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  counters.requests_served =
      requests_served_.load(std::memory_order_relaxed);
  counters.errors_sent = errors_sent_.load(std::memory_order_relaxed);
  counters.backlog_pauses = backlog_pauses_.load(std::memory_order_relaxed);
  counters.connections_refused =
      connections_refused_.load(std::memory_order_relaxed);
  return counters;
}

}  // namespace net
}  // namespace fuser
