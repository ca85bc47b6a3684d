// Offset-addressed string storage: StringArena, StringRef, StringInterner.
//
// Every string the Dataset holds (triple subject/predicate/object, source
// and domain names) lives exactly once in a StringArena and is referred to
// by a packed 64-bit StringRef (40-bit byte offset + 24-bit length). The
// arena is addressed by *offset*, not by pointer: chunk k starts at offset
// k * chunk_bytes, so the whole arena serializes to a single byte image in
// which every ref stays valid — a snapshot loader can attach the image
// (mmap'd or copied) and resolve refs without touching a string.
//
// Layout rules that make the image/offset scheme work:
//   * chunk_bytes is a power of two; offset -> pointer is one shift, one
//     mask, and one table lookup.
//   * A string never spans two separate allocations. Strings longer than
//     the tail of the current chunk abandon the tail (zero-filled) and
//     start a fresh chunk group; oversized strings get one contiguous
//     multi-chunk allocation whose slots alias into it.
//   * The serialized image is [0, image_bytes()), zero-padded to a chunk
//     boundary, so an attached arena resumes appending in fresh owned
//     chunks without ever writing to the mapped region.
//
// StringInterner adds content-addressed dedup on top (open-addressing hash
// of refs with a one-byte tag per slot, compared through the arena only
// where the tag matches), so equal strings share one ref — which in turn
// lets the triple index compare refs instead of bytes.
#ifndef FUSER_COMMON_ARENA_H_
#define FUSER_COMMON_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "common/logging.h"

namespace fuser {

/// Packed reference to an interned string: 40-bit arena offset (1 TiB of
/// string payload) + 24-bit length (16 MiB per string). Trivially
/// copyable, so columns of refs serialize as raw u64 arrays.
class StringRef {
 public:
  static constexpr int kLengthBits = 24;
  static constexpr uint64_t kMaxOffset =
      (uint64_t{1} << (64 - kLengthBits)) - 1;
  static constexpr uint64_t kMaxLength = (uint64_t{1} << kLengthBits) - 1;

  constexpr StringRef() = default;

  static StringRef Make(uint64_t offset, size_t length) {
    FUSER_CHECK(offset <= kMaxOffset) << "string arena exceeds 1 TiB";
    FUSER_CHECK(length <= kMaxLength) << "interned string exceeds 16 MiB";
    return StringRef((offset << kLengthBits) | static_cast<uint64_t>(length));
  }
  static constexpr StringRef FromPacked(uint64_t packed) {
    return StringRef(packed);
  }
  /// Sentinel distinct from every real ref (offset/length would overflow).
  static constexpr StringRef Invalid() { return StringRef(~uint64_t{0}); }

  constexpr uint64_t packed() const { return packed_; }
  constexpr uint64_t offset() const { return packed_ >> kLengthBits; }
  constexpr uint32_t length() const {
    return static_cast<uint32_t>(packed_ & kMaxLength);
  }
  constexpr bool valid() const { return packed_ != ~uint64_t{0}; }

  constexpr bool operator==(StringRef o) const { return packed_ == o.packed_; }
  constexpr bool operator!=(StringRef o) const { return packed_ != o.packed_; }

 private:
  explicit constexpr StringRef(uint64_t packed) : packed_(packed) {}
  uint64_t packed_ = 0;
};

static_assert(sizeof(StringRef) == 8, "StringRef must serialize as one u64");

class StringArena {
 public:
  /// `chunk_bytes` must be a power of two (checked).
  explicit StringArena(size_t chunk_bytes = size_t{1} << 16)
      : chunk_bytes_(chunk_bytes) {
    FUSER_CHECK(chunk_bytes >= 64 && (chunk_bytes & (chunk_bytes - 1)) == 0)
        << "chunk_bytes must be a power of two >= 64";
    log2_chunk_ = CountTrailingZeros64(chunk_bytes);
  }

  StringArena(const StringArena&) = delete;
  StringArena& operator=(const StringArena&) = delete;
  // Movable: chunk allocations (and any attached mapping) keep their
  // addresses, so refs and views stay valid across the move.
  StringArena(StringArena&&) = default;
  StringArena& operator=(StringArena&&) = default;

  /// Copies `text` into the arena and returns its ref. Empty strings share
  /// the canonical ref {offset 0, length 0} and consume no storage.
  StringRef InternRef(std::string_view text) {
    if (text.empty()) return StringRef::Make(0, 0);
    if (pos_ + text.size() > end_offset_) Grow(text.size());
    std::memcpy(MutablePtr(pos_), text.data(), text.size());
    StringRef ref = StringRef::Make(pos_, text.size());
    pos_ += text.size();
    payload_bytes_ += text.size();
    return ref;
  }

  /// Resolves a ref. Bounds-checked: a ref pointing past the interned
  /// region fails the CHECK instead of reading foreign memory.
  std::string_view View(StringRef ref) const {
    const uint64_t off = ref.offset();
    const size_t len = ref.length();
    FUSER_CHECK(off + len <= pos_) << "string ref out of arena bounds";
    if (len == 0) return std::string_view();
    return std::string_view(Ptr(off), len);
  }

  /// Starts loading the first bytes of `ref` (a hint: out-of-range refs
  /// are ignored).
  void Prefetch(StringRef ref) const {
    if (ref.length() != 0 && ref.offset() < pos_) {
      __builtin_prefetch(Ptr(ref.offset()));
    }
  }

  /// Binds this (empty) arena to a serialized image. The image must be
  /// image_bytes long, a multiple of chunk_bytes, and outlive the arena
  /// (or the next detach). Later interns allocate fresh owned chunks; the
  /// mapped region is never written.
  void AttachImage(const char* image, size_t image_bytes) {
    FUSER_CHECK(pos_ == 0 && chunk_base_.empty())
        << "AttachImage on a non-empty arena";
    FUSER_CHECK(image_bytes % chunk_bytes_ == 0);
    const size_t chunks = image_bytes >> log2_chunk_;
    chunk_base_.reserve(chunks);
    for (size_t i = 0; i < chunks; ++i) {
      chunk_base_.push_back(const_cast<char*>(image) + i * chunk_bytes_);
    }
    pos_ = end_offset_ = image_bytes;
    mapped_bytes_ = image_bytes;
    payload_bytes_ = image_bytes;  // upper bound; gaps are zero padding
  }

  /// Copies a serialized image into owned storage (one contiguous
  /// allocation) — the non-mmap bulk-load path.
  void AdoptImageCopy(const char* image, size_t image_bytes) {
    FUSER_CHECK(pos_ == 0 && chunk_base_.empty())
        << "AdoptImageCopy on a non-empty arena";
    FUSER_CHECK(image_bytes % chunk_bytes_ == 0);
    if (image_bytes == 0) return;
    auto block = std::make_unique<char[]>(image_bytes);
    std::memcpy(block.get(), image, image_bytes);
    const size_t chunks = image_bytes >> log2_chunk_;
    chunk_base_.reserve(chunks);
    for (size_t i = 0; i < chunks; ++i) {
      chunk_base_.push_back(block.get() + i * chunk_bytes_);
    }
    allocations_.push_back(std::move(block));
    owned_bytes_ = image_bytes;
    pos_ = end_offset_ = image_bytes;
    payload_bytes_ = image_bytes;
  }

  /// Serialized image size: the interned region rounded up to a chunk
  /// boundary (the padding is zeros).
  size_t image_bytes() const {
    return (pos_ + chunk_bytes_ - 1) & ~(chunk_bytes_ - 1);
  }

  /// Streams the image as (pointer, size) pieces in offset order. Owned
  /// chunks are zero-initialized at allocation, so abandoned tails and the
  /// final padding serialize deterministically as zeros.
  template <typename Fn>
  void ForEachImageChunk(Fn&& fn) const {
    const size_t total = image_bytes();
    for (size_t start = 0; start < total; start += chunk_bytes_) {
      fn(static_cast<const char*>(chunk_base_[start >> log2_chunk_]),
         std::min(chunk_bytes_, total - start));
    }
  }

  size_t chunk_bytes() const { return chunk_bytes_; }
  /// Total payload bytes interned (diagnostics).
  size_t total_bytes() const { return payload_bytes_; }
  /// Heap bytes owned by this arena (excludes an attached image).
  size_t owned_bytes() const { return owned_bytes_; }
  /// Bytes resolved through an attached image (0 when fully owned).
  size_t mapped_bytes() const { return mapped_bytes_; }

 private:
  const char* Ptr(uint64_t offset) const {
    return chunk_base_[offset >> log2_chunk_] + (offset & (chunk_bytes_ - 1));
  }
  char* MutablePtr(uint64_t offset) {
    return chunk_base_[offset >> log2_chunk_] + (offset & (chunk_bytes_ - 1));
  }

  /// Abandons the current chunk tail and allocates one contiguous group of
  /// chunk slots big enough for `len` bytes.
  void Grow(size_t len) {
    pos_ = end_offset_;  // abandon the (zero-filled) tail
    const size_t group_bytes =
        ((std::max(len, size_t{1}) + chunk_bytes_ - 1) & ~(chunk_bytes_ - 1));
    // make_unique value-initializes the array, so abandoned tails and the
    // final image padding serialize deterministically as zeros.
    auto block = std::make_unique<char[]>(group_bytes);
    for (size_t off = 0; off < group_bytes; off += chunk_bytes_) {
      chunk_base_.push_back(block.get() + off);
    }
    allocations_.push_back(std::move(block));
    owned_bytes_ += group_bytes;
    end_offset_ += group_bytes;
  }

  size_t chunk_bytes_;
  int log2_chunk_ = 0;
  uint64_t pos_ = 0;         // next free offset
  uint64_t end_offset_ = 0;  // total addressable bytes
  size_t payload_bytes_ = 0;
  size_t owned_bytes_ = 0;
  size_t mapped_bytes_ = 0;
  std::vector<char*> chunk_base_;
  std::vector<std::unique_ptr<char[]>> allocations_;
};

/// One-byte filter tag of a slot hash, kept beside each slot of the tagged
/// open-addressing tables (StringInterner, TripleDictionary's id index):
/// the hash's top byte, which the slot index (its low bits) never reads.
/// A probe compares keys only where the tags match, so most probes past a
/// foreign slot cost no key load. Tag 0 marks an empty slot.
inline constexpr uint8_t kEmptySlotTag = 0;

inline uint8_t SlotTag(uint64_t hash) {
  const uint8_t tag = static_cast<uint8_t>(hash >> 56);
  return tag == kEmptySlotTag ? uint8_t{1} : tag;
}

/// Content-addressed dedup over a StringArena: equal strings intern to the
/// same StringRef, so higher layers compare refs instead of bytes. Open
/// addressing with linear probing over packed refs, with a SlotTag per
/// slot so a probe reads arena bytes only where the tag matches; the
/// tags let the table fill to 0.8. The table rebuilds lazily after a
/// snapshot attach (InsertExisting per known ref).
class StringInterner {
 public:
  explicit StringInterner(size_t chunk_bytes = size_t{1} << 16)
      : arena_(chunk_bytes) {}

  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;
  StringInterner(StringInterner&&) = default;
  StringInterner& operator=(StringInterner&&) = default;

  /// Slot hash of `text`, for Prefetch and the hashed Intern overload.
  static uint64_t Hash(std::string_view text) {
    return TableHash64(text.data(), text.size());
  }

  /// Ref of `text`, interning it if new.
  StringRef Intern(std::string_view text) { return Intern(text, Hash(text)); }

  /// Intern with `hash` == Hash(text) already computed.
  StringRef Intern(std::string_view text, uint64_t hash) {
    MaybeGrow();
    size_t i;
    if (Probe(text, hash, &i)) return StringRef::FromPacked(slots_[i]);
    StringRef ref = arena_.InternRef(text);
    slots_[i] = ref.packed();
    tags_[i] = SlotTag(hash);
    ++count_;
    return ref;
  }

  /// Starts loading the slot a probe for `hash` reads first, so a caller
  /// interning several strings overlaps their cache misses. A hint only:
  /// an Intern that grows the table in between just misses again.
  void Prefetch(uint64_t hash) const {
    if (slots_.empty()) return;
    const size_t i = hash & (slots_.size() - 1);
    __builtin_prefetch(&tags_[i]);
    __builtin_prefetch(&slots_[i]);
  }

  /// Ref of `text` if already interned, StringRef::Invalid() otherwise.
  StringRef Find(std::string_view text) const {
    size_t i;
    if (slots_.empty() || !Probe(text, Hash(text), &i)) {
      return StringRef::Invalid();
    }
    return StringRef::FromPacked(slots_[i]);
  }

  /// Re-registers a ref already present in the arena (index rebuild after
  /// an image attach). First ref for a given content wins; dataset columns
  /// are canonical so duplicates always carry the same ref.
  void InsertExisting(StringRef ref) {
    MaybeGrow();
    const std::string_view text = arena_.View(ref);
    const uint64_t hash = Hash(text);
    size_t i;
    if (Probe(text, hash, &i)) return;
    slots_[i] = ref.packed();
    tags_[i] = SlotTag(hash);
    ++count_;
  }

  const StringArena& arena() const { return arena_; }
  StringArena* mutable_arena() { return &arena_; }

  size_t size() const { return count_; }
  /// Slots plus their tags.
  size_t table_bytes() const {
    return slots_.size() * (sizeof(uint64_t) + sizeof(uint8_t));
  }

 private:
  /// Linear probe for `text` from its home slot: true with *slot at its
  /// entry, or false with *slot at the empty slot that ends the run.
  bool Probe(std::string_view text, uint64_t hash, size_t* slot) const {
    const size_t mask = slots_.size() - 1;
    const uint8_t tag = SlotTag(hash);
    size_t i = hash & mask;
    for (; tags_[i] != kEmptySlotTag; i = (i + 1) & mask) {
      if (tags_[i] == tag &&
          arena_.View(StringRef::FromPacked(slots_[i])) == text) {
        *slot = i;
        return true;
      }
    }
    *slot = i;
    return false;
  }

  void MaybeGrow() {
    if (slots_.empty()) {
      slots_.assign(64, 0);
      tags_.assign(64, kEmptySlotTag);
      return;
    }
    if (count_ * 5 < slots_.size() * 4) return;
    std::vector<uint64_t> old_slots = std::move(slots_);
    std::vector<uint8_t> old_tags = std::move(tags_);
    slots_.assign(old_slots.size() * 2, 0);
    tags_.assign(old_tags.size() * 2, kEmptySlotTag);
    // In slot order a key's new home is its old one or that plus the old
    // size, so the writes stream; only the arena reads jump, and loading
    // them a few slots ahead overlaps those misses.
    constexpr size_t kAhead = 8;
    const size_t mask = slots_.size() - 1;
    for (size_t j = 0; j < old_slots.size(); ++j) {
      if (j + kAhead < old_slots.size() &&
          old_tags[j + kAhead] != kEmptySlotTag) {
        arena_.Prefetch(StringRef::FromPacked(old_slots[j + kAhead]));
      }
      if (old_tags[j] == kEmptySlotTag) continue;
      const std::string_view text =
          arena_.View(StringRef::FromPacked(old_slots[j]));
      size_t i = Hash(text) & mask;
      while (tags_[i] != kEmptySlotTag) i = (i + 1) & mask;
      slots_[i] = old_slots[j];
      tags_[i] = old_tags[j];
    }
  }

  StringArena arena_;
  std::vector<uint64_t> slots_;
  std::vector<uint8_t> tags_;  // SlotTag per slot; kEmptySlotTag if free
  size_t count_ = 0;
};

}  // namespace fuser

#endif  // FUSER_COMMON_ARENA_H_
