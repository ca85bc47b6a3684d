// Bit-mask utilities used by the inclusion-exclusion machinery.
//
// Source subsets within a correlation cluster are represented as uint64_t
// masks (bit i set <=> source i in the subset); this file provides popcount,
// bit iteration, submask enumeration, and k-combination enumeration over
// masks.
#ifndef FUSER_COMMON_BIT_UTIL_H_
#define FUSER_COMMON_BIT_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fuser {

using Mask = uint64_t;

/// Portable (C++17) popcount / count-trailing-zeros over 64-bit words.
#if defined(__GNUC__) || defined(__clang__)
inline int PopCount64(uint64_t m) { return __builtin_popcountll(m); }

/// Undefined for m == 0 (mirrors the hardware instruction).
inline int CountTrailingZeros64(uint64_t m) { return __builtin_ctzll(m); }
#else
inline int PopCount64(uint64_t m) {
  int c = 0;
  while (m != 0) {
    m &= m - 1;
    ++c;
  }
  return c;
}

/// Undefined for m == 0 (mirrors the hardware instruction).
inline int CountTrailingZeros64(uint64_t m) {
  int c = 0;
  while ((m & 1) == 0) {
    m >>= 1;
    ++c;
  }
  return c;
}
#endif

inline int PopCount(Mask m) { return PopCount64(m); }

/// Index of the lowest set bit; undefined for m == 0.
inline int LowestBit(Mask m) { return CountTrailingZeros64(m); }

/// Mask with bits [0, n) set. n must be <= 64.
inline Mask FullMask(int n) {
  return n >= 64 ? ~Mask{0} : ((Mask{1} << n) - 1);
}

inline bool HasBit(Mask m, int i) { return (m >> i) & 1; }
inline Mask WithBit(Mask m, int i) { return m | (Mask{1} << i); }
inline Mask WithoutBit(Mask m, int i) { return m & ~(Mask{1} << i); }

/// Returns the indices of set bits, lowest first.
std::vector<int> BitIndices(Mask m);

/// Calls fn(i) for every set bit i of m, lowest first.
template <typename Fn>
void ForEachBit(Mask m, Fn&& fn) {
  while (m != 0) {
    fn(CountTrailingZeros64(m));
    m &= m - 1;
  }
}

/// Enumerates all submasks of `set` (including 0 and `set` itself) and calls
/// fn(submask) for each. Visits 2^popcount(set) masks.
template <typename Fn>
void ForEachSubmask(Mask set, Fn&& fn) {
  Mask sub = set;
  for (;;) {
    fn(sub);
    if (sub == 0) break;
    sub = (sub - 1) & set;
  }
}

/// Enumerates the submasks of `set` with exactly k bits set and calls
/// fn(submask) for each.
template <typename Fn>
void ForEachKSubset(Mask set, int k, Fn&& fn) {
  std::vector<int> bits = BitIndices(set);
  const int n = static_cast<int>(bits.size());
  if (k < 0 || k > n) return;
  if (k == 0) {
    fn(Mask{0});
    return;
  }
  // Gosper-style enumeration over the *positions* vector: iterate all
  // k-combinations of indices into `bits`.
  std::vector<int> comb(k);
  for (int i = 0; i < k; ++i) comb[i] = i;
  for (;;) {
    Mask m = 0;
    for (int idx : comb) m |= Mask{1} << bits[idx];
    fn(m);
    // Advance to next combination.
    int i = k - 1;
    while (i >= 0 && comb[i] == n - k + i) --i;
    if (i < 0) break;
    ++comb[i];
    for (int j = i + 1; j < k; ++j) comb[j] = comb[j - 1] + 1;
  }
}

/// 64-bit FNV-1a over a byte range, word-chunked for throughput and
/// chainable via `seed`. Any single-byte change anywhere in the input
/// changes the result (every step is a bijection of the running state) —
/// the property the snapshot checksums and the dataset content
/// fingerprint rely on.
uint64_t HashBytes64(const void* data, size_t size,
                     uint64_t seed = 0xCBF29CE484222325ULL);

/// Full-avalanche finalizer (murmur3 fmix64): every input bit affects
/// every output bit, including the low ones that `hash & mask` table
/// indexing reads.
inline uint64_t Avalanche64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

/// Hash for open-addressing table lookups keyed on a byte string. The raw
/// chunked HashBytes64 is a checksum, not a slot hash: it folds 8 input
/// bytes per multiply, so its *low* bits — the ones `& mask` keeps — see
/// only the first few bytes of the key. Keys sharing a prefix (every
/// generated id, every URL) then collapse into a handful of probe
/// clusters and linear probing degrades to O(n) per lookup. The finalizer
/// restores full avalanche; checksums keep the chainable un-finalized
/// form.
inline uint64_t TableHash64(const void* data, size_t size) {
  return Avalanche64(HashBytes64(data, size));
}

/// In-place 64x64 bit-matrix transpose: after the call, bit j of m[i]
/// equals bit i of the original m[j]. Bit k of word w is addressed as
/// (w >> k) & 1, i.e. the LSB-first convention used by DynamicBitset.
///
/// Recursive block-swap (Hacker's Delight 7-3 adapted to LSB-first): at
/// block size j it swaps the high j bits of row k with the low j bits of
/// row k+j for every aligned row pair, halving j each round — 6 rounds of
/// 32 word-pair swaps instead of 4096 single-bit moves. This is the
/// word-level primitive behind the pattern-grouping hot path: k source
/// bitset words in, 64 per-triple provider masks out.
inline void Transpose64x64(uint64_t m[64]) {
  uint64_t mask = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
      m[k] ^= t << j;
      m[k + j] ^= t;
    }
  }
}

/// Row counts up to which TransposeBitColumns picks the bits column by
/// column instead of running the 64x64 transpose. One or two rows (most
/// pattern-grouping clusters are singletons) pick in ~100 ns on x86,
/// against ~250 ns for the AVX2 transpose and ~450 ns for the scalar one;
/// a pick's cost grows with the rows, so wider inputs transpose.
inline constexpr size_t kPickBitColumnsMaxRows = 2;

/// Transposes `k` row words (k <= 64) into 64 column masks: cols[j] gets
/// bit i set iff bit j of rows[i] is set, for i < k; bits >= k are zero.
/// rows may alias cols only if they point to the same 64-word buffer.
inline void TransposeBitColumns(const uint64_t* rows, size_t k,
                                uint64_t cols[64]) {
  if (k <= kPickBitColumnsMaxRows) {
    const uint64_t r0 = k > 0 ? rows[0] : 0;
    const uint64_t r1 = k > 1 ? rows[1] : 0;
    for (size_t j = 0; j < 64; ++j) {
      cols[j] = ((r0 >> j) & 1) | (((r1 >> j) & 1) << 1);
    }
    return;
  }
  uint64_t buf[64];
  for (size_t i = 0; i < k; ++i) buf[i] = rows[i];
  for (size_t i = k; i < 64; ++i) buf[i] = 0;
  Transpose64x64(buf);
  for (size_t j = 0; j < 64; ++j) cols[j] = buf[j];
}

/// splitmix-style mix of two 64-bit words into one hash value. Shared by
/// every hasher keyed on a mask pair (pattern keys, joint-stats pattern
/// indexes).
inline uint64_t MixMaskPair(uint64_t a, uint64_t b) {
  uint64_t h = a * 0x9E3779B97F4A7C15ULL;
  h ^= (h >> 30);
  h += b * 0xBF58476D1CE4E5B9ULL;
  h ^= (h >> 27);
  return h * 0x94D049BB133111EBULL;
}

}  // namespace fuser

#endif  // FUSER_COMMON_BIT_UTIL_H_
