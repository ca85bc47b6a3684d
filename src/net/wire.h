// Binary wire protocol for fusion-as-a-service (src/net/fusion_server.h).
//
// Every message on the socket — request or response, either direction —
// is one length-prefixed frame built from the same primitives as the
// snapshot format (src/persist/binary_io.h): little-endian fixed-width
// fields, raw IEEE-754 doubles (the serving contract is *byte* identity
// of networked scores with in-process FusionService answers, so no text
// round-trip anywhere), and a word-wise FNV-1a checksum over the payload.
//
// Frame layout (24-byte header, then the payload):
//
//   offset  size  field
//        0     4  magic "FNET" (0x54454E46 little-endian)
//        4     4  protocol version (kWireVersion)
//        8     4  message type (MessageType)
//       12     4  payload length in bytes
//       16     8  payload checksum (persist::Checksum64)
//
// The parser (FrameReader) is incremental: bytes arrive in arbitrary
// splits (partial headers, partial payloads, many frames at once) and
// frames come out whole. Stream-integrity violations — wrong magic or
// version, a length prefix above the configured cap, a payload that fails
// its checksum — are *connection-fatal*: the reader reports an error and
// the server answers with a versioned kError frame before closing, because
// after such a violation the frame boundary itself can no longer be
// trusted. An unknown message type or a payload that fails to decode
// inside an intact frame is *request-fatal* only: the connection keeps its
// framing and the server answers kError and keeps going.
//
// Requests are processed in order per connection and every response
// carries the request's id, so clients may pipeline arbitrarily deep.
//
// A message payload is its struct's fields in the order of the struct's
// field list (VisitFields, below; persist/binary_io.h gives each type's
// encoding), with nothing before or after: Encode and Decode both walk
// that one list.
#ifndef FUSER_NET_WIRE_H_
#define FUSER_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/triple.h"
#include "persist/binary_io.h"

namespace fuser {
namespace net {

inline constexpr uint32_t kWireMagic = 0x54454E46u;  // "FNET" on the wire
inline constexpr uint32_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 24;
/// Default cap on a single frame's payload; a length prefix above the cap
/// is treated as stream corruption (it would otherwise drive an arbitrary
/// allocation from one flipped bit).
inline constexpr size_t kDefaultMaxPayloadBytes = 8u << 20;

enum class MessageType : uint32_t {
  // Requests.
  kScore = 1,
  kScoreBatch = 2,
  kScoreObservation = 3,
  kStats = 4,
  // Responses.
  kScoreReply = 17,
  kScoreBatchReply = 18,
  kScoreObservationReply = 19,
  kStatsReply = 20,
  kError = 31,
};

/// One decoded frame: the type plus the raw (checksum-verified) payload.
struct WireFrame {
  MessageType type = MessageType::kError;
  std::string payload;
};

/// Encodes one complete frame (header + payload) ready to write.
std::string EncodeFrame(MessageType type, const std::string& payload);

/// Incremental frame parser over a byte stream.
class FrameReader {
 public:
  explicit FrameReader(size_t max_payload_bytes = kDefaultMaxPayloadBytes)
      : max_payload_bytes_(max_payload_bytes) {}

  /// Appends raw bytes received from the socket (any split).
  void Append(const void* data, size_t size);

  /// Extracts the next complete frame. Returns true and fills `frame` when
  /// one is available, false when more bytes are needed. A non-OK status
  /// means the stream is corrupt (bad magic/version, oversized length,
  /// checksum mismatch) and the connection must be torn down — the reader
  /// stays in the failed state afterwards.
  StatusOr<bool> Next(WireFrame* frame);

  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  size_t max_payload_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already handed out as frames
  Status failed_ = Status::OK();
};

// ---------------------------------------------------------------------------
// Message payloads. Each struct encodes to / decodes from one frame
// payload through its field list; Decode returns InvalidArgument on
// truncated or trailing bytes (the frame length is authoritative, so a
// decode mismatch means a buggy or hostile peer, never a short read).
// ---------------------------------------------------------------------------

struct ScoreRequest {
  uint64_t request_id = 0;
  std::string method;  // MethodSpec name, e.g. "precrec-corr"
  TripleId triple = 0;

  std::string Encode() const;
  Status Decode(const std::string& payload);
};

struct ScoreBatchRequest {
  uint64_t request_id = 0;
  std::string method;
  std::vector<TripleId> triples;

  std::string Encode() const;
  Status Decode(const std::string& payload);
};

struct ScoreObservationRequest {
  uint64_t request_id = 0;
  std::string method;
  std::vector<SourceId> providers;
  std::vector<SourceId> in_scope;

  std::string Encode() const;
  Status Decode(const std::string& payload);
};

struct StatsRequest {
  uint64_t request_id = 0;

  std::string Encode() const;
  Status Decode(const std::string& payload);
};

/// Reply to kScore and kScoreObservation. `snapshot_id` names the
/// published snapshot (ShardedSnapshot::id) the answer was read from, so
/// a client (and the reader-storm stress test) can pin-point exactly which
/// state produced the score even while a writer keeps publishing.
struct ScoreReply {
  uint64_t request_id = 0;
  uint64_t snapshot_id = 0;
  double score = 0.0;

  std::string Encode() const;
  Status Decode(const std::string& payload);
};

struct ScoreBatchReply {
  uint64_t request_id = 0;
  uint64_t snapshot_id = 0;
  std::vector<double> scores;

  std::string Encode() const;
  Status Decode(const std::string& payload);
};

struct StatsReply {
  uint64_t request_id = 0;
  uint64_t snapshot_id = 0;
  uint64_t dataset_version = 0;
  uint64_t num_triples = 0;
  uint64_t num_sources = 0;
  uint64_t num_shards = 0;  // K >= 1 engine shards behind the server
  uint64_t requests_served = 0;

  std::string Encode() const;
  Status Decode(const std::string& payload);
};

/// Versioned error reply: the failing request's id (0 when the request was
/// too malformed to carry one), the StatusCode, and a message. `fatal`
/// tells the client the server is closing the connection (stream-integrity
/// violations) rather than just failing this request.
struct ErrorReply {
  uint64_t request_id = 0;
  uint32_t code = 0;  // fuser::StatusCode
  bool fatal = false;
  std::string message;

  std::string Encode() const;
  Status Decode(const std::string& payload);

  Status ToStatus() const;
  static ErrorReply FromStatus(uint64_t request_id, const Status& status,
                               bool fatal);
};

// ---------------------------------------------------------------------------
// Field lists: the payload layout of each message.
// ---------------------------------------------------------------------------

template <class V, class R>
persist::FieldsOf<R, ScoreRequest> VisitFields(V& v, R& m) {
  v(m.request_id);
  v(m.method);
  v(m.triple);
}

template <class V, class R>
persist::FieldsOf<R, ScoreBatchRequest> VisitFields(V& v, R& m) {
  v(m.request_id);
  v(m.method);
  v(m.triples);
}

template <class V, class R>
persist::FieldsOf<R, ScoreObservationRequest> VisitFields(V& v, R& m) {
  v(m.request_id);
  v(m.method);
  v(m.providers);
  v(m.in_scope);
}

template <class V, class R>
persist::FieldsOf<R, StatsRequest> VisitFields(V& v, R& m) {
  v(m.request_id);
}

template <class V, class R>
persist::FieldsOf<R, ScoreReply> VisitFields(V& v, R& m) {
  v(m.request_id);
  v(m.snapshot_id);
  v(m.score);
}

template <class V, class R>
persist::FieldsOf<R, ScoreBatchReply> VisitFields(V& v, R& m) {
  v(m.request_id);
  v(m.snapshot_id);
  v(m.scores);
}

template <class V, class R>
persist::FieldsOf<R, StatsReply> VisitFields(V& v, R& m) {
  v(m.request_id);
  v(m.snapshot_id);
  v(m.dataset_version);
  v(m.num_triples);
  v(m.num_sources);
  v(m.num_shards);
  v(m.requests_served);
}

template <class V, class R>
persist::FieldsOf<R, ErrorReply> VisitFields(V& v, R& m) {
  v(m.request_id);
  v(m.code);
  v(m.fatal);
  v(m.message);
}

}  // namespace net
}  // namespace fuser

#endif  // FUSER_NET_WIRE_H_
