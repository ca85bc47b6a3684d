// Byte-identity of every supported SIMD dispatch level against the scalar
// oracle, for all three integer kernels, plus the cache-line alignment
// contract of DynamicBitset word storage.
#include "common/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/bit_util.h"
#include "common/bitset.h"
#include "common/random.h"

namespace fuser {
namespace {

static_assert(CacheAlignedAllocator<uint64_t>::kAlignment == 64,
              "bitset words must be cache-line aligned");

std::vector<simd::Level> SupportedLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::LevelSupported(simd::Level::kAvx2)) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

std::vector<uint64_t> RandomWords(Rng* rng, size_t n) {
  std::vector<uint64_t> words(n);
  for (uint64_t& w : words) w = rng->NextUint64();
  return words;
}

TEST(SimdTest, LevelBasics) {
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
  EXPECT_TRUE(simd::LevelSupported(simd::Level::kScalar));
  EXPECT_TRUE(simd::LevelSupported(simd::ActiveLevel()));
  // The active table is the table of the active level.
  EXPECT_EQ(&simd::ActiveKernels(), &simd::KernelsFor(simd::ActiveLevel()));
}

TEST(SimdTest, AndCountMatchesScalarAtEveryLevel) {
  Rng rng(7);
  const simd::Kernels& scalar = simd::KernelsFor(simd::Level::kScalar);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                   size_t{7}, size_t{8}, size_t{64}, size_t{1000}}) {
    std::vector<uint64_t> a = RandomWords(&rng, n);
    std::vector<uint64_t> b = RandomWords(&rng, n);
    // Reference via plain popcount.
    uint64_t expected = 0;
    for (size_t i = 0; i < n; ++i) {
      expected += static_cast<uint64_t>(PopCount64(a[i] & b[i]));
    }
    EXPECT_EQ(scalar.and_count(a.data(), b.data(), n), expected);
    for (simd::Level level : SupportedLevels()) {
      EXPECT_EQ(simd::KernelsFor(level).and_count(a.data(), b.data(), n),
                expected)
          << "level " << simd::LevelName(level) << " n " << n;
    }
  }
}

TEST(SimdTest, AndCount3MatchesScalarAtEveryLevel) {
  Rng rng(13);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                   size_t{7}, size_t{8}, size_t{64}, size_t{1000}}) {
    std::vector<uint64_t> a = RandomWords(&rng, n);
    std::vector<uint64_t> b = RandomWords(&rng, n);
    std::vector<uint64_t> c = RandomWords(&rng, n);
    uint64_t expected = 0;
    for (size_t i = 0; i < n; ++i) {
      expected += static_cast<uint64_t>(PopCount64(a[i] & b[i] & c[i]));
    }
    for (simd::Level level : SupportedLevels()) {
      EXPECT_EQ(simd::KernelsFor(level).and_count3(a.data(), b.data(),
                                                   c.data(), n),
                expected)
          << "level " << simd::LevelName(level) << " n " << n;
    }
  }
}

TEST(SimdTest, TransposeMatchesScalarOracleForAllRowCounts) {
  Rng rng(29);
  for (size_t k = 0; k <= 64; ++k) {
    std::vector<uint64_t> rows = RandomWords(&rng, 64);
    // Naive reference: bit i of cols[j] == bit j of rows[i], i < k.
    uint64_t naive[64] = {0};
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < 64; ++j) {
        if ((rows[i] >> j) & 1) naive[j] |= uint64_t{1} << i;
      }
    }
    // bit_util's TransposeBitColumns is the scalar kernel's backing
    // implementation; check it against the naive loop too.
    uint64_t oracle[64];
    TransposeBitColumns(rows.data(), k, oracle);
    for (size_t j = 0; j < 64; ++j) EXPECT_EQ(oracle[j], naive[j]) << k;
    for (simd::Level level : SupportedLevels()) {
      uint64_t cols[64];
      simd::KernelsFor(level).transpose_bit_columns(rows.data(), k, cols);
      for (size_t j = 0; j < 64; ++j) {
        EXPECT_EQ(cols[j], naive[j])
            << "level " << simd::LevelName(level) << " k " << k << " col "
            << j;
      }
    }
  }
}

TEST(SimdTest, GatherMatchesScalarAtEveryLevel) {
  Rng rng(41);
  std::vector<double> table(257);
  for (double& v : table) v = rng.NextDouble() * 2.0 - 1.0;
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                   size_t{7}, size_t{8}, size_t{64}, size_t{1000}}) {
    std::vector<uint32_t> idx(n);
    for (uint32_t& i : idx) {
      i = static_cast<uint32_t>(rng.NextBounded(table.size()));
    }
    std::vector<double> expected(n);
    for (size_t i = 0; i < n; ++i) expected[i] = table[idx[i]];
    for (simd::Level level : SupportedLevels()) {
      std::vector<double> out(n, -7.0);
      simd::KernelsFor(level).gather_doubles(table.data(), idx.data(), n,
                                             out.data());
      EXPECT_EQ(out, expected)
          << "level " << simd::LevelName(level) << " n " << n;
    }
  }
}

TEST(SimdTest, BitsetWordsAreCacheLineAligned) {
  for (size_t bits : {1u, 63u, 64u, 65u, 1000u, 125000u}) {
    DynamicBitset set(bits);
    WordSpan span = set.word_span();
    EXPECT_EQ(reinterpret_cast<uintptr_t>(span.data) % 64, 0u)
        << "bitset of " << bits << " bits is not 64-byte aligned";
    EXPECT_EQ(span.size, (bits + 63) / 64);
  }
  AlignedWordVector vec(5, 0);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(vec.data()) % 64, 0u);
}

TEST(SimdTest, WordSpanReflectsBitContents) {
  DynamicBitset set(130);
  set.Set(0);
  set.Set(64);
  set.Set(129);
  WordSpan span = set.word_span();
  ASSERT_EQ(span.size, 3u);
  EXPECT_EQ(span.data[0], uint64_t{1});
  EXPECT_EQ(span.data[1], uint64_t{1});
  EXPECT_EQ(span.data[2], uint64_t{1} << 1);
  // Iterable view.
  size_t words = 0;
  for (uint64_t w : span) {
    (void)w;
    ++words;
  }
  EXPECT_EQ(words, 3u);
}

TEST(SimdTest, BitsetAndCountMatchesMaterializedIntersection) {
  Rng rng(53);
  DynamicBitset a(1000);
  DynamicBitset b(1000);
  for (size_t i = 0; i < 1000; ++i) {
    if (rng.NextBernoulli(0.3)) a.Set(i);
    if (rng.NextBernoulli(0.5)) b.Set(i);
  }
  DynamicBitset both = a;
  both.AndWith(b);
  EXPECT_EQ(a.AndCount(b), both.Count());
}

}  // namespace
}  // namespace fuser
