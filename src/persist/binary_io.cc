#include "persist/binary_io.h"

namespace fuser {
namespace persist {

uint64_t Checksum64(const void* data, size_t size, uint64_t seed) {
  return HashBytes64(data, size, seed);
}

uint32_t LoadU32LE(const void* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

uint64_t LoadU64LE(const void* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

namespace {

inline uint32_t DecodeU32(const uint8_t* p) { return LoadU32LE(p); }
inline uint64_t DecodeU64(const uint8_t* p) { return LoadU64LE(p); }

}  // namespace

void ByteSink::WriteU32(uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void ByteSink::WriteU64(uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buffer_.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void ByteSink::WriteDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void ByteSink::WriteString(const std::string& s) {
  WriteU64(s.size());
  buffer_.append(s);
}

void ByteSink::WriteBitset(const DynamicBitset& bits) {
  WriteU64(bits.size());
  for (size_t wi = 0; wi < bits.num_words(); ++wi) {
    WriteU64(bits.word(wi));
  }
}

void ByteSink::WriteRaw(const void* data, size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

Status ByteSource::ReadU8(uint8_t* v) {
  FUSER_RETURN_IF_ERROR(Need(1));
  *v = data_[pos_++];
  return Status::OK();
}

Status ByteSource::ReadBool(bool* v) {
  uint8_t byte = 0;
  FUSER_RETURN_IF_ERROR(ReadU8(&byte));
  if (byte > 1) {
    return Status::InvalidArgument("corrupt boolean field");
  }
  *v = byte != 0;
  return Status::OK();
}

Status ByteSource::ReadU32(uint32_t* v) {
  FUSER_RETURN_IF_ERROR(Need(4));
  *v = DecodeU32(data_ + pos_);
  pos_ += 4;
  return Status::OK();
}

Status ByteSource::ReadU64(uint64_t* v) {
  FUSER_RETURN_IF_ERROR(Need(8));
  *v = DecodeU64(data_ + pos_);
  pos_ += 8;
  return Status::OK();
}

Status ByteSource::ReadU32Array(uint32_t* out, size_t n) {
  if (n > remaining() / 4) {
    return Status::InvalidArgument("snapshot data truncated mid-field");
  }
  const uint8_t* p = data_ + pos_;
  for (size_t i = 0; i < n; ++i) out[i] = DecodeU32(p + 4 * i);
  pos_ += n * 4;
  return Status::OK();
}

Status ByteSource::ReadU64Array(uint64_t* out, size_t n) {
  if (n > remaining() / 8) {
    return Status::InvalidArgument("snapshot data truncated mid-field");
  }
  const uint8_t* p = data_ + pos_;
  for (size_t i = 0; i < n; ++i) out[i] = DecodeU64(p + 8 * i);
  pos_ += n * 8;
  return Status::OK();
}

Status ByteSource::ReadDoubleArray(double* out, size_t n) {
  if (n > remaining() / 8) {
    return Status::InvalidArgument("snapshot data truncated mid-field");
  }
  const uint8_t* p = data_ + pos_;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bits = DecodeU64(p + 8 * i);
    std::memcpy(&out[i], &bits, 8);
  }
  pos_ += n * 8;
  return Status::OK();
}

Status ByteSource::ReadDouble(double* v) {
  uint64_t bits = 0;
  FUSER_RETURN_IF_ERROR(ReadU64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status ByteSource::ReadString(std::string* s) {
  size_t size = 0;
  FUSER_RETURN_IF_ERROR(ReadCount(1, &size));
  if (size == 0) {
    s->clear();
    return Status::OK();
  }
  s->assign(reinterpret_cast<const char*>(data_ + pos_), size);
  pos_ += size;
  return Status::OK();
}

Status ByteSource::ReadBitset(DynamicBitset* bits) {
  uint64_t num_bits = 0;
  FUSER_RETURN_IF_ERROR(ReadU64(&num_bits));
  const size_t num_words = (static_cast<size_t>(num_bits) + 63) / 64;
  if (num_words > remaining() / 8) {
    return Status::InvalidArgument("corrupt bitset size");
  }
  DynamicBitset out(static_cast<size_t>(num_bits));
  FUSER_RETURN_IF_ERROR(ReadU64Array(out.MutableWords(), num_words));
  if (num_words > 0 && num_bits % 64 != 0) {
    // Tail bits past size() must be zero (DynamicBitset invariant); a
    // nonzero tail means corruption.
    const uint64_t tail_mask = (uint64_t{1} << (num_bits % 64)) - 1;
    if ((out.word(num_words - 1) & ~tail_mask) != 0) {
      return Status::InvalidArgument("corrupt bitset tail");
    }
  }
  *bits = std::move(out);
  return Status::OK();
}

Status ByteSource::ReadCount(size_t min_elem_bytes, size_t* count) {
  uint64_t raw = 0;
  FUSER_RETURN_IF_ERROR(ReadU64(&raw));
  if (min_elem_bytes == 0) min_elem_bytes = 1;
  if (raw > remaining() / min_elem_bytes) {
    return Status::InvalidArgument("corrupt element count");
  }
  *count = static_cast<size_t>(raw);
  return Status::OK();
}

}  // namespace persist
}  // namespace fuser
