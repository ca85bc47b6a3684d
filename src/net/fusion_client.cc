#include "net/fusion_client.h"

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "common/string_util.h"

namespace fuser {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::IoError(StrFormat("%s: %s", what, strerror(errno)));
}

}  // namespace

FusionClient::~FusionClient() { Close(); }

void FusionClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  reader_ = FrameReader(options_.max_payload_bytes);
}

Status FusionClient::Connect(const std::string& host, uint16_t port) {
  Close();
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  const std::string port_str = StrFormat("%u", port);
  Status last = Status::IoError("connect: no attempts made");
  for (int attempt = 0; attempt < options_.connect_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.retry_delay_ms));
    }
    addrinfo* result = nullptr;
    const int rc = getaddrinfo(host.c_str(), port_str.c_str(), &hints,
                               &result);
    if (rc != 0) {
      last = Status::IoError(
          StrFormat("getaddrinfo(%s): %s", host.c_str(), gai_strerror(rc)));
      continue;
    }
    int fd = -1;
    for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
      fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) continue;
      if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      last = Errno("connect");
      close(fd);
      fd = -1;
    }
    freeaddrinfo(result);
    if (fd >= 0) {
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fd_ = fd;
      reader_ = FrameReader(options_.max_payload_bytes);
      return Status::OK();
    }
  }
  return last;
}

Status FusionClient::WriteAll(const std::string& bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = write(fd_, bytes.data() + written,
                            bytes.size() - written);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{};
      p.fd = fd_;
      p.events = POLLOUT;
      if (poll(&p, 1, options_.io_timeout_ms) <= 0) {
        Close();
        return Status::IoError("write timed out");
      }
      continue;
    }
    Status failed = Errno("write");
    Close();
    return failed;
  }
  return Status::OK();
}

StatusOr<WireFrame> FusionClient::ReadFrame() {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  WireFrame frame;
  while (true) {
    auto next = reader_.Next(&frame);
    if (!next.ok()) {
      Close();
      return next.status();
    }
    if (*next) return frame;
    pollfd p{};
    p.fd = fd_;
    p.events = POLLIN;
    const int ready = poll(&p, 1, options_.io_timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      Status failed = Errno("poll");
      Close();
      return failed;
    }
    if (ready == 0) {
      Close();
      return Status::IoError("read timed out waiting for a response frame");
    }
    char buf[64 * 1024];
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n > 0) {
      reader_.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Status failed = n == 0
                        ? Status::IoError("server closed the connection")
                        : Errno("read");
    Close();
    return failed;
  }
}

template <typename Reply>
StatusOr<Reply> FusionClient::ReadReply(MessageType expected, uint64_t id) {
  FUSER_ASSIGN_OR_RETURN(WireFrame frame, ReadFrame());
  if (frame.type == MessageType::kError) {
    ErrorReply error;
    Status decoded = error.Decode(frame.payload);
    if (!decoded.ok()) {
      Close();
      return decoded;
    }
    if (error.fatal) Close();
    return error.ToStatus();
  }
  if (frame.type != expected) {
    Close();
    return Status::Internal(
        StrFormat("unexpected reply type %u (wanted %u)",
                  static_cast<uint32_t>(frame.type),
                  static_cast<uint32_t>(expected)));
  }
  Reply reply;
  Status decoded = reply.Decode(frame.payload);
  if (!decoded.ok()) {
    Close();
    return decoded;
  }
  if (reply.request_id != id) {
    Close();
    return Status::Internal(StrFormat(
        "response id %llu does not match request id %llu",
        static_cast<unsigned long long>(reply.request_id),
        static_cast<unsigned long long>(id)));
  }
  return reply;
}

StatusOr<ScoreReply> FusionClient::Score(const std::string& method,
                                         TripleId triple) {
  ScoreRequest request;
  request.request_id = next_request_id_++;
  request.method = method;
  request.triple = triple;
  FUSER_RETURN_IF_ERROR(
      WriteAll(EncodeFrame(MessageType::kScore, request.Encode())));
  return ReadReply<ScoreReply>(MessageType::kScoreReply, request.request_id);
}

StatusOr<ScoreBatchReply> FusionClient::ScoreBatch(
    const std::string& method, const std::vector<TripleId>& triples) {
  ScoreBatchRequest request;
  request.request_id = next_request_id_++;
  request.method = method;
  request.triples = triples;
  FUSER_RETURN_IF_ERROR(
      WriteAll(EncodeFrame(MessageType::kScoreBatch, request.Encode())));
  return ReadReply<ScoreBatchReply>(MessageType::kScoreBatchReply,
                                    request.request_id);
}

StatusOr<StatsReply> FusionClient::Stats() {
  StatsRequest request;
  request.request_id = next_request_id_++;
  FUSER_RETURN_IF_ERROR(
      WriteAll(EncodeFrame(MessageType::kStats, request.Encode())));
  return ReadReply<StatsReply>(MessageType::kStatsReply, request.request_id);
}

StatusOr<std::vector<ScoreBatchReply>> FusionClient::PipelineScoreBatches(
    const std::string& method,
    const std::vector<std::vector<TripleId>>& batches) {
  std::vector<uint64_t> ids;
  ids.reserve(batches.size());
  std::string wire;
  for (const std::vector<TripleId>& triples : batches) {
    ScoreBatchRequest request;
    request.request_id = next_request_id_++;
    request.method = method;
    request.triples = triples;
    ids.push_back(request.request_id);
    wire += EncodeFrame(MessageType::kScoreBatch, request.Encode());
  }
  FUSER_RETURN_IF_ERROR(WriteAll(wire));
  std::vector<ScoreBatchReply> replies;
  replies.reserve(batches.size());
  for (uint64_t id : ids) {
    FUSER_ASSIGN_OR_RETURN(
        ScoreBatchReply reply,
        ReadReply<ScoreBatchReply>(MessageType::kScoreBatchReply, id));
    replies.push_back(std::move(reply));
  }
  return replies;
}

}  // namespace net
}  // namespace fuser
