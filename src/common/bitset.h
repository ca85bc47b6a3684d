// DynamicBitset: a fixed-capacity bitset sized at runtime.
//
// Source output sets and triple masks (gold/true/train) are bitsets over
// triple ids; joint-statistics computation intersects them word-by-word.
#ifndef FUSER_COMMON_BITSET_H_
#define FUSER_COMMON_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/bit_util.h"
#include "common/logging.h"
#include "common/simd.h"

namespace fuser {

/// Allocator that aligns storage to one cache line (64 bytes) using C++17
/// aligned operator new. Bitset word arrays are allocated through it so a
/// 256-bit SIMD load of words [i, i+4) never splits a cache line — the
/// first word of every bitset sits on a 64-byte boundary and four words
/// are exactly half a line.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;
  static_assert(kAlignment % alignof(T) == 0,
                "cache-line alignment must imply natural alignment");

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlignment}));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kAlignment});
  }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const CacheAlignedAllocator<U>&) const {
    return false;
  }
};

/// Cache-line-aligned word storage shared by DynamicBitset and the
/// correlation sketch's sample-bit matrix.
using AlignedWordVector = std::vector<uint64_t, CacheAlignedAllocator<uint64_t>>;

/// Read-only view of a bitset's word storage (bit i of the set lives at
/// bit (i % 64) of word i / 64; tail bits past the set's size are zero).
struct WordSpan {
  const uint64_t* data = nullptr;
  size_t size = 0;

  const uint64_t* begin() const { return data; }
  const uint64_t* end() const { return data + size; }
};

/// A bitset whose word storage is either owned (the usual state) or
/// borrowed from an external image (an mmap-attached snapshot section).
/// Every mutator promotes borrowed storage to an owned copy first
/// (copy-on-write), so read-side users of attached datasets never pay a
/// copy and streaming writers transparently do.
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t size, bool value = false)
      : size_(size),
        words_((size + 63) / 64, value ? ~uint64_t{0} : uint64_t{0}) {
    TrimTail();
  }

  /// A bitset borrowing `bits` bits from externally owned words (which
  /// must hold (bits + 63) / 64 words with the tail bits zero, and must
  /// outlive the view unless a mutator promotes it first).
  static DynamicBitset View(const uint64_t* words, size_t bits) {
    DynamicBitset b;
    b.size_ = bits;
    b.ext_ = words;
    return b;
  }

  size_t size() const { return size_; }
  bool borrowed() const { return ext_ != nullptr; }

  void Resize(size_t size, bool value = false) {
    if (size == size_) return;  // keeps attached storage unpromoted
    EnsureOwned();
    size_t old_size = size_;
    size_ = size;
    words_.resize((size + 63) / 64, value ? ~uint64_t{0} : uint64_t{0});
    if (value && old_size < size) {
      // Set the straggler bits of the old tail word.
      for (size_t i = old_size; i < size && i < ((old_size + 63) / 64) * 64;
           ++i) {
        Set(i);
      }
    }
    TrimTail();
  }

  /// Releases word capacity beyond num_words().
  void ShrinkToFit() {
    EnsureOwned();
    words_.shrink_to_fit();
  }

  bool Test(size_t i) const {
    FUSER_CHECK_LT(i, size_);
    return (W()[i >> 6] >> (i & 63)) & 1;
  }

  void Set(size_t i) {
    FUSER_CHECK_LT(i, size_);
    EnsureOwned();
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  void Reset(size_t i) {
    FUSER_CHECK_LT(i, size_);
    EnsureOwned();
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  void Assign(size_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Reset(i);
    }
  }

  void Clear() {
    EnsureOwned();
    for (auto& w : words_) w = 0;
  }

  /// Number of set bits.
  size_t Count() const {
    const uint64_t* w = W();
    size_t c = 0;
    for (size_t i = 0, n = num_words(); i < n; ++i) {
      c += static_cast<size_t>(PopCount64(w[i]));
    }
    return c;
  }

  bool Any() const {
    const uint64_t* w = W();
    for (size_t i = 0, n = num_words(); i < n; ++i) {
      if (w[i] != 0) return true;
    }
    return false;
  }

  /// this &= other. Sizes must match.
  void AndWith(const DynamicBitset& other) {
    FUSER_CHECK_EQ(size_, other.size_);
    EnsureOwned();
    const uint64_t* o = other.W();
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= o[i];
  }

  /// this |= other. Sizes must match.
  void OrWith(const DynamicBitset& other) {
    FUSER_CHECK_EQ(size_, other.size_);
    EnsureOwned();
    const uint64_t* o = other.W();
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= o[i];
  }

  /// this &= ~other. Sizes must match.
  void AndNotWith(const DynamicBitset& other) {
    FUSER_CHECK_EQ(size_, other.size_);
    EnsureOwned();
    const uint64_t* o = other.W();
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o[i];
  }

  /// popcount(this & other) without materializing the intersection.
  /// Routed through the runtime-dispatched SIMD kernel (scalar fallback is
  /// byte-identical); this is the inner loop of pairwise correlation
  /// discovery. The kernels use unaligned loads, so 8-byte-aligned
  /// borrowed (mmap'd) words are as valid as owned cache-aligned ones.
  size_t AndCount(const DynamicBitset& other) const {
    FUSER_CHECK_EQ(size_, other.size_);
    return static_cast<size_t>(simd::AndCountWords(W(), other.W(),
                                                   num_words()));
  }

  /// Calls fn(i) for every set bit i in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const uint64_t* words = W();
    for (size_t wi = 0, n = num_words(); wi < n; ++wi) {
      uint64_t w = words[wi];
      while (w != 0) {
        int b = CountTrailingZeros64(w);
        fn(wi * 64 + static_cast<size_t>(b));
        w &= w - 1;
      }
    }
  }

  bool operator==(const DynamicBitset& other) const {
    if (size_ != other.size_) return false;
    const uint64_t* a = W();
    const uint64_t* b = other.W();
    for (size_t i = 0, n = num_words(); i < n; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

  /// Word-level access for bulk readers (bit i lives at bit (i % 64) of
  /// word i / 64; tail bits past size() are zero). The word-parallel
  /// pattern-grouping path reads source bitsets 64 triples at a time
  /// through this span instead of calling Test per bit.
  size_t num_words() const { return (size_ + 63) / 64; }
  const uint64_t* words() const { return W(); }
  uint64_t word(size_t wi) const { return W()[wi]; }

  /// The word storage as a span. Owned storage is 64-byte aligned
  /// (CacheAlignedAllocator); borrowed storage is 8-byte aligned (the
  /// snapshot layout) — the SIMD kernels use unaligned loads either way.
  WordSpan word_span() const { return WordSpan{W(), num_words()}; }

  /// Mutable word storage for bulk deserializers (promotes borrowed
  /// storage first). The caller must keep tail bits past size() zero —
  /// the invariant every word-level reader relies on.
  uint64_t* MutableWords() {
    EnsureOwned();
    return words_.data();
  }

  /// Copies borrowed words into owned storage; no-op when owned.
  void EnsureOwned() {
    if (ext_ == nullptr) return;
    words_.assign(ext_, ext_ + num_words());
    ext_ = nullptr;
  }

 private:
  const uint64_t* W() const { return ext_ != nullptr ? ext_ : words_.data(); }

  void TrimTail() {
    if (size_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << (size_ % 64)) - 1;
    }
  }

  size_t size_ = 0;
  AlignedWordVector words_;
  const uint64_t* ext_ = nullptr;
};

}  // namespace fuser

#endif  // FUSER_COMMON_BITSET_H_
