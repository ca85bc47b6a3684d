#include "net/wire.h"

#include <cstring>

#include "common/string_util.h"
#include "persist/binary_io.h"

namespace fuser {
namespace net {

using persist::ByteSink;
using persist::ByteSource;
using persist::Checksum64;
using persist::LoadU32LE;
using persist::LoadU64LE;

std::string EncodeFrame(MessageType type, const std::string& payload) {
  ByteSink sink;
  sink.WriteU32(kWireMagic);
  sink.WriteU32(kWireVersion);
  sink.WriteU32(static_cast<uint32_t>(type));
  sink.WriteU32(static_cast<uint32_t>(payload.size()));
  sink.WriteU64(Checksum64(payload.data(), payload.size()));
  sink.WriteRaw(payload.data(), payload.size());
  return sink.data();
}

void FrameReader::Append(const void* data, size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

StatusOr<bool> FrameReader::Next(WireFrame* frame) {
  if (!failed_.ok()) return failed_;
  // Reclaim consumed prefix before it grows without bound under pipelining.
  if (consumed_ > 0 && (consumed_ >= buffer_.size() || consumed_ > 65536)) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const uint8_t* base =
      reinterpret_cast<const uint8_t*>(buffer_.data()) + consumed_;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return false;
  const uint32_t magic = LoadU32LE(base);
  if (magic != kWireMagic) {
    failed_ = Status::InvalidArgument("bad frame magic (not a fuser peer?)");
    return failed_;
  }
  const uint32_t version = LoadU32LE(base + 4);
  if (version != kWireVersion) {
    failed_ = Status::InvalidArgument(
        StrFormat("unsupported wire version %u (expected %u)", version,
                  kWireVersion));
    return failed_;
  }
  const uint32_t type = LoadU32LE(base + 8);
  const uint32_t length = LoadU32LE(base + 12);
  if (length > max_payload_bytes_) {
    failed_ = Status::InvalidArgument(
        StrFormat("frame payload of %u bytes exceeds the %zu-byte cap",
                  length, max_payload_bytes_));
    return failed_;
  }
  if (available < kFrameHeaderBytes + length) return false;
  const uint64_t expected_checksum = LoadU64LE(base + 16);
  const uint8_t* payload = base + kFrameHeaderBytes;
  if (Checksum64(payload, length) != expected_checksum) {
    failed_ = Status::InvalidArgument("frame payload failed its checksum");
    return failed_;
  }
  frame->type = static_cast<MessageType>(type);
  frame->payload.assign(reinterpret_cast<const char*>(payload), length);
  consumed_ += kFrameHeaderBytes + length;
  return true;
}

namespace {

template <class M>
Status DecodeMessage(const std::string& payload, M* message) {
  ByteSource source(payload.data(), payload.size());
  FUSER_RETURN_IF_ERROR(persist::DecodeFields(&source, message));
  // The frame length is authoritative, so trailing bytes mean an
  // encoder/decoder mismatch.
  if (!source.exhausted()) {
    return Status::InvalidArgument("trailing bytes after message payload");
  }
  return Status::OK();
}

}  // namespace

#define FUSER_WIRE_MESSAGE_CODEC(Message)                       \
  std::string Message::Encode() const {                         \
    return persist::EncodeFields(*this);                        \
  }                                                             \
  Status Message::Decode(const std::string& payload) {          \
    return DecodeMessage(payload, this);                        \
  }

FUSER_WIRE_MESSAGE_CODEC(ScoreRequest)
FUSER_WIRE_MESSAGE_CODEC(ScoreBatchRequest)
FUSER_WIRE_MESSAGE_CODEC(ScoreObservationRequest)
FUSER_WIRE_MESSAGE_CODEC(StatsRequest)
FUSER_WIRE_MESSAGE_CODEC(ScoreReply)
FUSER_WIRE_MESSAGE_CODEC(ScoreBatchReply)
FUSER_WIRE_MESSAGE_CODEC(StatsReply)
FUSER_WIRE_MESSAGE_CODEC(ErrorReply)

#undef FUSER_WIRE_MESSAGE_CODEC

Status ErrorReply::ToStatus() const {
  StatusCode status_code = static_cast<StatusCode>(code);
  switch (status_code) {
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kInternal:
    case StatusCode::kUnimplemented:
    case StatusCode::kIoError:
    case StatusCode::kAlreadyExists:
      break;
    default:
      status_code = StatusCode::kInternal;
  }
  if (status_code == StatusCode::kOk) status_code = StatusCode::kInternal;
  return Status(status_code, StrFormat("server error: %s", message.c_str()));
}

ErrorReply ErrorReply::FromStatus(uint64_t request_id, const Status& status,
                                  bool fatal) {
  ErrorReply reply;
  reply.request_id = request_id;
  reply.code = static_cast<uint32_t>(status.code());
  reply.fatal = fatal;
  reply.message = status.message();
  return reply;
}

}  // namespace net
}  // namespace fuser
