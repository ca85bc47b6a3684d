// Runtime-dispatched SIMD kernels for the integer hot loops.
//
// Three kernels sit under every scoring and discovery hot path:
//
//  * and_count / and_count3: masked AND + popcount over bitset word spans
//    (the joint-count loops in pairwise correlation discovery and the
//    sketch estimator);
//  * transpose_bit_columns: the 64x64 bit-matrix transpose behind the
//    word-parallel pattern grouping and independent-source scoring (k
//    source bitset words in, 64 per-triple provider masks out);
//  * gather_doubles: the pattern-posterior table gather in
//    CombinePatternScores (scores[t] = table[ids[t]] over a cluster's
//    32-bit pattern-id column).
//
// Each kernel exists at every dispatch level. The scalar implementation is
// the byte-identity oracle: all levels are exact integer (or exact-copy)
// algorithms, so outputs are bit-identical across levels — tests compare
// every supported level against scalar, and the bench-side
// `scores_identical` gates hold on both AVX2 and forced-scalar runs.
//
// Dispatch is resolved once per process from cpuid
// (__builtin_cpu_supports("avx2")); setting the environment variable
// FUSER_DISABLE_AVX2=1 before the first kernel call forces the scalar
// level (CI runs the whole suite once this way). AVX2 code is compiled
// with per-function target attributes, so no global -mavx2 flag is needed
// and the binary stays runnable on non-AVX2 machines.
//
// This header deliberately has no repo dependencies beyond the standard
// library so low-level headers (bitset.h) can include it without cycles.
#ifndef FUSER_COMMON_SIMD_H_
#define FUSER_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace fuser {
namespace simd {

/// Dispatch levels, ordered from baseline to widest. kScalar is always
/// supported.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Human-readable level name ("scalar", "avx2") for logs and bench JSON.
const char* LevelName(Level level);

/// Whether `level` can run on this machine (and is not disabled via
/// FUSER_DISABLE_AVX2). kScalar always returns true.
bool LevelSupported(Level level);

/// The highest supported level; resolved once (thread-safe) on first call.
Level ActiveLevel();

/// The kernel table of one dispatch level. All function pointers are
/// non-null at every level.
struct Kernels {
  /// popcount(a[i] & b[i]) summed over i in [0, n).
  uint64_t (*and_count)(const uint64_t* a, const uint64_t* b, size_t n);
  /// popcount(a[i] & b[i] & c[i]) summed over i in [0, n).
  uint64_t (*and_count3)(const uint64_t* a, const uint64_t* b,
                         const uint64_t* c, size_t n);
  /// Transposes `k` row words (k <= 64) into 64 column masks: bit i of
  /// cols[j] = bit j of rows[i] for i < k; bits >= k are zero. Exact
  /// same contract as fuser::TransposeBitColumns (bit_util.h), which is
  /// the scalar implementation.
  void (*transpose_bit_columns)(const uint64_t* rows, size_t k,
                                uint64_t* cols);
  /// out[i] = table[idx[i]] for i in [0, n). Indices must be in range;
  /// they are unsigned, so the full 32-bit range is valid.
  void (*gather_doubles)(const double* table, const uint32_t* idx, size_t n,
                         double* out);
};

/// Kernel table of a specific level; `level` must be supported (checked).
/// Tests use this to run every supported level against the scalar oracle.
const Kernels& KernelsFor(Level level);

/// Kernel table of ActiveLevel(), resolved once with it; the hot paths call
/// through this.
const Kernels& ActiveKernels();

// ---- Dispatched conveniences (what call sites actually use). ----

inline uint64_t AndCountWords(const uint64_t* a, const uint64_t* b,
                              size_t n) {
  return ActiveKernels().and_count(a, b, n);
}

inline uint64_t AndCountWords3(const uint64_t* a, const uint64_t* b,
                               const uint64_t* c, size_t n) {
  return ActiveKernels().and_count3(a, b, c, n);
}

inline void TransposeBitColumns(const uint64_t* rows, size_t k,
                                uint64_t* cols) {
  ActiveKernels().transpose_bit_columns(rows, k, cols);
}

inline void GatherDoubles(const double* table, const uint32_t* idx,
                          size_t n, double* out) {
  ActiveKernels().gather_doubles(table, idx, n, out);
}

}  // namespace simd
}  // namespace fuser

#endif  // FUSER_COMMON_SIMD_H_
