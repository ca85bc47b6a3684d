// Bounds-checked binary encoding primitives for the snapshot, shard
// manifest and wire formats.
//
// Everything on disk is little-endian and fixed-width; doubles are raw
// IEEE-754 bits (the persistence contract is *byte* identity of restored
// scores, so no text round-trip is allowed anywhere near a double).
//
// ByteSink builds a buffer; ByteSource consumes one. Every ByteSource read
// is bounds-checked and returns InvalidArgument instead of reading past
// the end, so a truncated or bit-flipped file can never touch memory it
// does not own — corrupt input must fail with a Status, never with UB
// (tests/persist_test.cc flips bytes under ASan to hold this line).
//
// Records are encoded from one field list each. A record declares its
// field order once, beside its codec, as
//
//   template <class V, class R>
//   persist::FieldsOf<R, Record> VisitFields(V& v, R& r) {
//     v(r.first); v(r.second); ...
//   }
//
// (R is Record, const when encoding; found by argument-dependent lookup).
// FieldWriter walks the list into a ByteSink, FieldReader out of a
// ByteSource, and MinEncodedSize sums it, so the encoder, the decoder and
// the decoder's count bounds cannot disagree. A field encodes by type:
//
//   bool                  u8 0 or 1 (anything else is corrupt)
//   1/4/8-byte integer    u8 / u32 / u64 (signed ones two's complement)
//   enum                  its underlying integer
//   double                u64 of its IEEE-754 bits
//   std::string           u64 byte length, then the bytes
//   DynamicBitset         u64 bit count, then the packed words
//   std::vector<T>        u64 count, then each element
//   any other class       its own field list
//
// Validation is the codec's: it runs after a visit, on decoded values.
// Layouts that are not a list of fields (the snapshot's columnar DATASET
// section, its file header and section table, a GROUPING column, a
// SERVING posterior table) stay hand-written over ByteSink/ByteSource.
#ifndef FUSER_PERSIST_BINARY_IO_H_
#define FUSER_PERSIST_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"

namespace fuser {
namespace persist {

/// 64-bit FNV-1a over a byte range, optionally chained via `seed` (see
/// HashBytes64 in common/bit_util.h). Every step is a bijection of the
/// running state, so any single-byte change anywhere in the range changes
/// the final value — which is what makes the per-section checksums catch
/// every 1-byte corruption in the fuzz tests.
uint64_t Checksum64(const void* data, size_t size,
                    uint64_t seed = 0xCBF29CE484222325ULL);

/// Decodes one little-endian u32/u64 at `p`. Bounds are the caller's
/// responsibility — these are the raw primitives shared by ByteSource's
/// bulk array reads and the network layer's frame-header parsing
/// (src/net/wire.h), which both peek into a byte stream at known offsets
/// before committing to consume it.
uint32_t LoadU32LE(const void* p);
uint64_t LoadU64LE(const void* p);

/// Append-only little-endian encoder.
class ByteSink {
 public:
  void WriteU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteDouble(double v);
  /// u64 byte length followed by the raw bytes.
  void WriteString(const std::string& s);
  /// u64 bit count followed by the packed words.
  void WriteBitset(const DynamicBitset& bits);
  void WriteRaw(const void* data, size_t size);

  size_t size() const { return buffer_.size(); }
  const std::string& data() const { return buffer_; }

 private:
  std::string buffer_;
};

/// Bounds-checked little-endian decoder over a caller-owned byte range.
class ByteSource {
 public:
  /// Empty source (every read fails); needed so StatusOr<ByteSource> can
  /// default-construct its value slot.
  ByteSource() = default;
  ByteSource(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}

  Status ReadU8(uint8_t* v);
  Status ReadBool(bool* v);
  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadDouble(double* v);
  Status ReadString(std::string* s);
  Status ReadBitset(DynamicBitset* bits);

  /// Bulk little-endian array reads (one bounds check, then a tight
  /// decode loop) for the large payloads — pattern ids, score vectors,
  /// posterior tables — where per-element Status plumbing would dominate
  /// the warm-start wall clock.
  Status ReadU32Array(uint32_t* out, size_t n);
  Status ReadU64Array(uint64_t* out, size_t n);
  Status ReadDoubleArray(double* out, size_t n);

  /// Reads a u64 element count and validates that `count * min_elem_bytes`
  /// elements could still fit in the unread remainder — so a corrupt count
  /// fails fast instead of driving a multi-gigabyte allocation.
  Status ReadCount(size_t min_elem_bytes, size_t* count);

  size_t remaining() const { return size_ - pos_; }
  size_t pos() const { return pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  Status Need(size_t bytes) const {
    if (bytes > remaining()) {
      return Status::InvalidArgument("snapshot data truncated mid-field");
    }
    return Status::OK();
  }

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Field-list visitors.
// ---------------------------------------------------------------------------

template <class T>
struct IsVectorField : std::false_type {};
template <class T>
struct IsVectorField<std::vector<T>> : std::true_type {};

/// The return type of a record's VisitFields: void, for R = T or const T
/// only, so each record's list is its own overload.
template <class R, class T>
using FieldsOf = std::enable_if_t<std::is_same_v<std::remove_const_t<R>, T>>;

/// Whether T encodes through its own field list (see the header comment).
template <class T>
inline constexpr bool kIsRecordField =
    std::is_class_v<T> && !std::is_same_v<T, std::string> &&
    !std::is_same_v<T, DynamicBitset> && !IsVectorField<T>::value;

/// The fewest bytes a T can encode to: its fixed-width fields plus the u64
/// count of each string, bitset and vector. A decoder bounds a vector's
/// count by the unread bytes over this.
template <class T>
size_t MinEncodedSize() {
  if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
    return sizeof(T);
  } else if constexpr (kIsRecordField<T>) {
    static const size_t bytes = [] {
      size_t sum = 0;
      auto add = [&sum](const auto& field) {
        sum += MinEncodedSize<std::decay_t<decltype(field)>>();
      };
      const T record{};
      VisitFields(add, record);
      return sum;
    }();
    return bytes;
  } else {
    return 8;  // string, bitset, vector: the u64 count
  }
}

/// Appends each visited field to a ByteSink.
class FieldWriter {
 public:
  explicit FieldWriter(ByteSink* sink) : sink_(sink) {}

  template <class T>
  void operator()(const T& field) {
    if constexpr (std::is_same_v<T, bool>) {
      sink_->WriteBool(field);
    } else if constexpr (std::is_enum_v<T>) {
      (*this)(static_cast<std::underlying_type_t<T>>(field));
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
      sink_->WriteU8(static_cast<uint8_t>(field));
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
      sink_->WriteU32(static_cast<uint32_t>(field));
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
      sink_->WriteU64(static_cast<uint64_t>(field));
    } else if constexpr (std::is_same_v<T, double>) {
      sink_->WriteDouble(field);
    } else if constexpr (std::is_same_v<T, std::string>) {
      sink_->WriteString(field);
    } else if constexpr (std::is_same_v<T, DynamicBitset>) {
      sink_->WriteBitset(field);
    } else if constexpr (IsVectorField<T>::value) {
      sink_->WriteU64(field.size());
      for (const auto& element : field) (*this)(element);
    } else {
      static_assert(kIsRecordField<T>, "field type has no encoding");
      VisitFields(*this, field);
    }
  }

 private:
  ByteSink* sink_;
};

/// Reads each visited field from a ByteSource. The first failure sticks in
/// status() and turns every later read into a no-op, so a codec visits a
/// whole record and checks once.
class FieldReader {
 public:
  explicit FieldReader(ByteSource* source) : source_(source) {}

  const Status& status() const { return status_; }

  template <class T>
  void operator()(T& field) {
    if (!status_.ok()) return;
    if constexpr (std::is_same_v<T, bool>) {
      status_ = source_->ReadBool(&field);
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> raw{};
      (*this)(raw);
      field = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
      uint8_t raw = 0;
      status_ = source_->ReadU8(&raw);
      field = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
      uint32_t raw = 0;
      status_ = source_->ReadU32(&raw);
      field = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
      uint64_t raw = 0;
      status_ = source_->ReadU64(&raw);
      field = static_cast<T>(raw);
    } else if constexpr (std::is_same_v<T, double>) {
      status_ = source_->ReadDouble(&field);
    } else if constexpr (std::is_same_v<T, std::string>) {
      status_ = source_->ReadString(&field);
    } else if constexpr (std::is_same_v<T, DynamicBitset>) {
      status_ = source_->ReadBitset(&field);
    } else if constexpr (IsVectorField<T>::value) {
      ReadVector(&field);
    } else {
      static_assert(kIsRecordField<T>, "field type has no encoding");
      VisitFields(*this, field);
    }
  }

 private:
  template <class E>
  void ReadVector(std::vector<E>* field) {
    size_t count = 0;
    status_ = source_->ReadCount(MinEncodedSize<E>(), &count);
    if (!status_.ok()) return;
    field->resize(count);
    // Arrays of fixed-width numbers take one bounds check and a tight
    // decode loop.
    if constexpr (std::is_same_v<E, uint32_t>) {
      status_ = source_->ReadU32Array(field->data(), count);
    } else if constexpr (std::is_same_v<E, uint64_t>) {
      status_ = source_->ReadU64Array(field->data(), count);
    } else if constexpr (std::is_same_v<E, double>) {
      status_ = source_->ReadDoubleArray(field->data(), count);
    } else {
      for (E& element : *field) (*this)(element);
    }
  }

  ByteSource* source_;
  Status status_ = Status::OK();
};

/// `record` encoded through its field list.
template <class R>
std::string EncodeFields(const R& record) {
  ByteSink sink;
  FieldWriter writer(&sink);
  writer(record);
  return sink.data();
}

/// Decodes `record` through its field list; the first read failure, if
/// any. Does not require `source` to be exhausted.
template <class R>
Status DecodeFields(ByteSource* source, R* record) {
  FieldReader reader(source);
  reader(*record);
  return reader.status();
}

}  // namespace persist
}  // namespace fuser

#endif  // FUSER_PERSIST_BINARY_IO_H_
