#include "common/simd.h"

#include <cstdlib>

#include "common/bit_util.h"
#include "common/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FUSER_SIMD_X86 1
#include <immintrin.h>
#else
#define FUSER_SIMD_X86 0
#endif

namespace fuser {
namespace simd {

namespace {

// ---- Scalar kernels: the byte-identity oracles. ----

uint64_t AndCountScalar(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<uint64_t>(PopCount64(a[i] & b[i]));
  }
  return total;
}

uint64_t AndCount3Scalar(const uint64_t* a, const uint64_t* b,
                         const uint64_t* c, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<uint64_t>(PopCount64(a[i] & b[i] & c[i]));
  }
  return total;
}

void TransposeScalar(const uint64_t* rows, size_t k, uint64_t* cols) {
  // The bit_util implementation IS the scalar kernel.
  fuser::TransposeBitColumns(rows, k, cols);
}

void GatherScalar(const double* table, const uint32_t* idx, size_t n,
                  double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = table[idx[i]];
}

constexpr Kernels kScalarKernels = {
    &AndCountScalar,
    &AndCount3Scalar,
    &TransposeScalar,
    &GatherScalar,
};

#if FUSER_SIMD_X86

#define FUSER_TARGET_AVX2 __attribute__((target("avx2")))

// ---- AVX2 kernels. All exact integer (or exact-copy) algorithms, so
// outputs are bit-identical to the scalar oracles above. ----

/// Per-64-bit-lane popcount of a 256-bit vector (Mula's vpshufb nibble
/// lookup + psadbw horizontal byte sum). Exact: every byte's popcount is a
/// table read, psadbw sums them losslessly.
FUSER_TARGET_AVX2 inline __m256i Popcount256(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_nibble = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_nibble);
  const __m256i hi =
      _mm256_and_si256(_mm256_srli_epi16(v, 4), low_nibble);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

FUSER_TARGET_AVX2 inline uint64_t HorizontalSum64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum2 = _mm_add_epi64(lo, hi);
  const __m128i sum1 = _mm_add_epi64(sum2, _mm_unpackhi_epi64(sum2, sum2));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(sum1));
}

FUSER_TARGET_AVX2 uint64_t AndCountAvx2(const uint64_t* a, const uint64_t* b,
                                        size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_and_si256(va, vb)));
  }
  uint64_t total = HorizontalSum64(acc);
  for (; i < n; ++i) {
    total += static_cast<uint64_t>(PopCount64(a[i] & b[i]));
  }
  return total;
}

FUSER_TARGET_AVX2 uint64_t AndCount3Avx2(const uint64_t* a, const uint64_t* b,
                                         const uint64_t* c, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + i));
    acc = _mm256_add_epi64(
        acc, Popcount256(_mm256_and_si256(_mm256_and_si256(va, vb), vc)));
  }
  uint64_t total = HorizontalSum64(acc);
  for (; i < n; ++i) {
    total += static_cast<uint64_t>(PopCount64(a[i] & b[i] & c[i]));
  }
  return total;
}

/// One XOR-swap round of the 64x64 transpose over 4 consecutive rows at a
/// time. For block size j >= 4 the row pairs (k, k+j) come in aligned runs
/// of >= 4, so each 256-bit op handles 4 pairs; the shift/mask/xor network
/// is exactly the scalar round, just 4 rows wide.
FUSER_TARGET_AVX2 inline void TransposeRoundAvx2(uint64_t* m, int j,
                                                 uint64_t mask) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  for (int base = 0; base < 64; base += 2 * j) {
    for (int k = base; k < base + j; k += 4) {
      __m256i x = _mm256_loadu_si256(reinterpret_cast<__m256i*>(m + k));
      __m256i y = _mm256_loadu_si256(reinterpret_cast<__m256i*>(m + k + j));
      const __m256i t = _mm256_and_si256(
          _mm256_xor_si256(_mm256_srli_epi64(x, j), y), vmask);
      x = _mm256_xor_si256(x, _mm256_slli_epi64(t, j));
      y = _mm256_xor_si256(y, t);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(m + k), x);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(m + k + j), y);
    }
  }
}

FUSER_TARGET_AVX2 void TransposeAvx2(const uint64_t* rows, size_t k,
                                     uint64_t* cols) {
  if (k <= kPickBitColumnsMaxRows) {
    fuser::TransposeBitColumns(rows, k, cols);  // picks the bits
    return;
  }
  uint64_t buf[64];
  for (size_t i = 0; i < k; ++i) buf[i] = rows[i];
  for (size_t i = k; i < 64; ++i) buf[i] = 0;
  // Rounds j = 32..4 run 4 row pairs per 256-bit op; the j = 2 and j = 1
  // rounds have stride-2/-1 pairings and stay scalar (they are 2 of the 6
  // rounds and each is only 32 word swaps).
  TransposeRoundAvx2(buf, 32, 0x00000000FFFFFFFFULL);
  TransposeRoundAvx2(buf, 16, 0x0000FFFF0000FFFFULL);
  TransposeRoundAvx2(buf, 8, 0x00FF00FF00FF00FFULL);
  TransposeRoundAvx2(buf, 4, 0x0F0F0F0F0F0F0F0FULL);
  uint64_t mask = 0x3333333333333333ULL;
  for (int j = 2; j != 0; j >>= 1, mask = 0x5555555555555555ULL) {
    for (int kk = 0; kk < 64; kk = (kk + j + 1) & ~j) {
      const uint64_t t = ((buf[kk] >> j) ^ buf[kk + j]) & mask;
      buf[kk] ^= t << j;
      buf[kk + j] ^= t;
    }
  }
  for (size_t j = 0; j < 64; ++j) cols[j] = buf[j];
}

FUSER_TARGET_AVX2 void GatherAvx2(const double* table, const uint32_t* idx,
                                  size_t n, double* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Zero-extend to 64-bit lanes: _mm256_i32gather_pd would sign-extend
    // and misread ids >= 2^31.
    const __m256i vi = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i)));
    const __m256d v = _mm256_i64gather_pd(table, vi, /*scale=*/8);
    _mm256_storeu_pd(out + i, v);
  }
  for (; i < n; ++i) out[i] = table[idx[i]];
}

constexpr Kernels kAvx2Kernels = {
    &AndCountAvx2,
    &AndCount3Avx2,
    &TransposeAvx2,
    &GatherAvx2,
};

#endif  // FUSER_SIMD_X86

bool Avx2Disabled() {
  const char* env = std::getenv("FUSER_DISABLE_AVX2");
  if (env == nullptr || env[0] == '\0') return false;
  return !(env[0] == '0' && env[1] == '\0');
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool LevelSupported(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
#if FUSER_SIMD_X86
      return !Avx2Disabled() && __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

Level ActiveLevel() {
  // Resolved once per process; the magic static makes first-call races
  // safe. Set FUSER_DISABLE_AVX2 before the first kernel call.
  static const Level level =
      LevelSupported(Level::kAvx2) ? Level::kAvx2 : Level::kScalar;
  return level;
}

const Kernels& KernelsFor(Level level) {
  FUSER_CHECK(LevelSupported(level))
      << "simd level " << LevelName(level) << " not supported here";
#if FUSER_SIMD_X86
  if (level == Level::kAvx2) return kAvx2Kernels;
#endif
  return kScalarKernels;
}

const Kernels& ActiveKernels() {
  // Cached with the level: the hot paths call this once per word.
  static const Kernels& kernels = KernelsFor(ActiveLevel());
  return kernels;
}

}  // namespace simd
}  // namespace fuser
