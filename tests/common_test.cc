// Unit tests for the common substrate: Status/StatusOr, strings, CSV,
// bit utilities, math helpers, RNG, DynamicBitset, and the thread pool.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <set>

#include "common/bit_util.h"
#include "common/bitset.h"
#include "common/csv.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "support/paper_math.h"

namespace fuser {
namespace {

// ---------- Status ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> so = 42;
  ASSERT_TRUE(so.ok());
  EXPECT_EQ(*so, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> so = Status::NotFound("missing");
  EXPECT_FALSE(so.ok());
  EXPECT_EQ(so.status().code(), StatusCode::kNotFound);
}

StatusOr<int> Doubler(StatusOr<int> input) {
  FUSER_ASSIGN_OR_RETURN(int v, std::move(input));
  return v * 2;
}

TEST(StatusOrTest, AssignOrReturnMacroPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(Status::Internal("boom")).status().code(),
            StatusCode::kInternal);
}

// ---------- Strings ----------

TEST(StringUtilTest, TrimRemovesWhitespace) {
  EXPECT_EQ(StrTrim("  hi\t\n"), "hi");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

TEST(StringUtilTest, ParseDoubleRejectsJunk) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble(" 2 ", &v));
  EXPECT_FALSE(ParseDouble("2x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringUtilTest, ParseSizeT) {
  size_t v = 0;
  EXPECT_TRUE(ParseSizeT("123", &v));
  EXPECT_EQ(v, 123u);
  EXPECT_FALSE(ParseSizeT("-1x", &v));
  // strtoull would negate these to SIZE_MAX or saturate at it.
  EXPECT_FALSE(ParseSizeT("-1", &v));
  EXPECT_FALSE(ParseSizeT(" -1", &v));
  EXPECT_FALSE(ParseSizeT("-0", &v));
  EXPECT_FALSE(ParseSizeT("18446744073709551616", &v));
  EXPECT_EQ(v, 123u);
  EXPECT_TRUE(ParseSizeT("18446744073709551615", &v));
  EXPECT_EQ(v, 18446744073709551615u);
}

// ---------- CSV ----------

/// Parses `line` as the one record of a file, through ReadCsvFile.
StatusOr<CsvRow> ParseOneRecord(const std::string& line) {
  const std::string path = testing::TempDir() + "/fuser_csv_line.csv";
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  fputs((line + "\n").c_str(), f);
  fclose(f);
  auto rows = ReadCsvFile(path);
  std::remove(path.c_str());
  if (!rows.ok()) return rows.status();
  if (rows->size() != 1) return Status::Internal("not one record");
  return (*rows)[0];
}

TEST(CsvTest, ParsesPlainFields) {
  auto row = ParseOneRecord("a,b,c");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(*row, (CsvRow{"a", "b", "c"}));
}

TEST(CsvTest, ParsesQuotedFieldsWithSeparatorAndQuotes) {
  auto row = ParseOneRecord(R"("a,b","say ""hi""",c)");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(*row, (CsvRow{"a,b", "say \"hi\"", "c"}));
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseOneRecord("\"abc").ok());
}

TEST(CsvTest, RoundTripsThroughFormat) {
  CsvRow row = {"plain", "with,comma", "with\"quote", ""};
  auto parsed = ParseOneRecord(FormatCsvLine(row));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, row);
}

TEST(CsvTest, FileRoundTripSkipsComments) {
  std::string path = testing::TempDir() + "/fuser_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(path, {{"x", "1"}, {"y", "2"}}).ok());
  // Append a comment line.
  {
    FILE* f = fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    fputs("# comment\n\n", f);
    fclose(f);
  }
  auto rows = ReadCsvFile(path);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1], (CsvRow{"y", "2"}));
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIoError) {
  auto rows = ReadCsvFile("/nonexistent/definitely/missing.csv");
  EXPECT_EQ(rows.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, FileRoundTripsEmbeddedNewlines) {
  std::string path = testing::TempDir() + "/fuser_csv_nl.csv";
  std::vector<CsvRow> rows = {{"multi\nline", "a"},
                              {"three\n\nlines", "quoted \"and\"\nbroken"},
                              {"plain", "b"}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, rows);
  std::remove(path.c_str());
}

TEST(CsvTest, FileRoundTripsLeadingHash) {
  std::string path = testing::TempDir() + "/fuser_csv_hash.csv";
  std::vector<CsvRow> rows = {{"#not-a-comment", "a"}, {"#", ""}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  // Real comments are still skipped...
  {
    FILE* f = fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    fputs("# a real comment\n", f);
    fclose(f);
  }
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // ...but written data beginning with '#' survives the round-trip.
  EXPECT_EQ(*loaded, rows);
  std::remove(path.c_str());
}

TEST(CsvTest, CommentAndBlankLinesInsideQuotedFieldArePreserved) {
  std::string path = testing::TempDir() + "/fuser_csv_inner.csv";
  std::vector<CsvRow> rows = {{"a\n# not a comment\n\nb", "x"}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, rows);
  std::remove(path.c_str());
}

TEST(CsvTest, FileRoundTripsCarriageReturns) {
  std::string path = testing::TempDir() + "/fuser_csv_cr.csv";
  // CR inside a field (alone, and as part of CRLF) is content and must
  // survive; a trailing CR outside quotes is a CRLF line terminator.
  std::vector<CsvRow> rows = {{"a\rb", "x"}, {"a\r\nb", "y"}, {"end\r", "z"}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, rows);
  // A CRLF-terminated file still parses without stray CRs.
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("p,q\r\n", f);
    fclose(f);
  }
  loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, (std::vector<CsvRow>{{"p", "q"}}));
  std::remove(path.c_str());
}

TEST(CsvTest, UnterminatedQuoteAtEofIsError) {
  std::string path = testing::TempDir() + "/fuser_csv_bad.csv";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("\"never closed\nstill open", f);
    fclose(f);
  }
  auto loaded = ReadCsvFile(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---------- Bit utilities ----------

TEST(BitUtilTest, FullMaskAndBits) {
  EXPECT_EQ(FullMask(0), 0u);
  EXPECT_EQ(FullMask(3), 0b111u);
  EXPECT_EQ(FullMask(64), ~Mask{0});
  EXPECT_EQ(PopCount(0b1011u), 3);
  EXPECT_TRUE(HasBit(0b100, 2));
  EXPECT_FALSE(HasBit(0b100, 1));
  EXPECT_EQ(WithBit(0b100, 0), 0b101u);
  EXPECT_EQ(WithoutBit(0b101, 0), 0b100u);
}

TEST(BitUtilTest, BitIndicesAscending) {
  EXPECT_EQ(BitIndices(0b10110), (std::vector<int>{1, 2, 4}));
  EXPECT_TRUE(BitIndices(0).empty());
}

TEST(BitUtilTest, ForEachSubmaskVisitsAll) {
  std::set<Mask> seen;
  ForEachSubmask(0b101, [&](Mask m) { seen.insert(m); });
  EXPECT_EQ(seen, (std::set<Mask>{0b000, 0b001, 0b100, 0b101}));
}

TEST(BitUtilTest, ForEachSubmaskOfZero) {
  int count = 0;
  ForEachSubmask(0, [&](Mask m) {
    EXPECT_EQ(m, 0u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(BitUtilTest, ForEachKSubsetCountsMatchBinomial) {
  Mask set = 0b1101101;  // 5 bits
  for (int k = 0; k <= 5; ++k) {
    size_t count = 0;
    ForEachKSubset(set, k, [&](Mask m) {
      EXPECT_EQ(PopCount(m), k);
      EXPECT_EQ(m & ~set, 0u);
      ++count;
    });
    EXPECT_EQ(count, BinomialCoefficient(5, k)) << "k=" << k;
  }
}

TEST(BitUtilTest, BinomialCoefficient) {
  EXPECT_EQ(BinomialCoefficient(5, 0), 1u);
  EXPECT_EQ(BinomialCoefficient(5, 2), 10u);
  EXPECT_EQ(BinomialCoefficient(22, 11), 705432u);
  EXPECT_EQ(BinomialCoefficient(5, 6), 0u);
}

// ---------- Math ----------

TEST(MathUtilTest, ClampProbAvoidsZeroAndOne) {
  EXPECT_GT(ClampProb(0.0), 0.0);
  EXPECT_LT(ClampProb(1.0), 1.0);
  EXPECT_DOUBLE_EQ(ClampProb(0.3), 0.3);
}

TEST(MathUtilTest, PosteriorFromMuMatchesClosedForm) {
  // Pr = 1 / (1 + (1-a)/a * 1/mu).
  double mu = 0.1;
  double alpha = 0.5;
  EXPECT_NEAR(PosteriorFromMu(mu, alpha), 1.0 / (1.0 + 1.0 / mu), 1e-12);
  EXPECT_NEAR(PosteriorFromMu(1.6, 0.5), 1.6 / 2.6, 1e-12);
}

TEST(MathUtilTest, PosteriorEdgeCases) {
  EXPECT_DOUBLE_EQ(PosteriorFromMu(0.0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(PosteriorFromMu(-1.0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(
      PosteriorFromMu(std::numeric_limits<double>::infinity(), 0.5), 1.0);
  EXPECT_DOUBLE_EQ(PosteriorFromMu(std::nan(""), 0.5), 0.0);
}

TEST(MathUtilTest, PosteriorRespectsPrior) {
  // mu == 1 returns exactly the prior.
  EXPECT_NEAR(PosteriorFromMu(1.0, 0.3), 0.3, 1e-12);
  EXPECT_NEAR(PosteriorFromMu(1.0, 0.9), 0.9, 1e-12);
}

TEST(MathUtilTest, LogAddExp) {
  double a = std::log(0.25);
  double b = std::log(0.5);
  EXPECT_NEAR(LogAddExp(a, b), std::log(0.75), 1e-12);
  EXPECT_NEAR(LogAddExp(-std::numeric_limits<double>::infinity(), b), b,
              1e-12);
}

TEST(MathUtilTest, F1Score) {
  EXPECT_DOUBLE_EQ(F1Score(1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(F1Score(0.0, 0.0), 0.0);
  EXPECT_NEAR(F1Score(0.75, 1.0), 6.0 / 7.0, 1e-12);
}

TEST(MathUtilTest, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2, 4}), 3.0);
  EXPECT_DOUBLE_EQ(StdDev({5}), 0.0);
  EXPECT_NEAR(StdDev({2, 4}), std::sqrt(2.0), 1e-12);
}

// ---------- RNG ----------

TEST(RandomTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, DoublesInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BoundedRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Rng rng(7);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
}

TEST(RandomTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    hits += rng.NextBernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(RandomTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(19);
  auto sample = rng.SampleWithoutReplacement(50, 20);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t idx : sample) {
    EXPECT_LT(idx, 50u);
  }
}

// ---------- DynamicBitset ----------

TEST(BitsetTest, SetTestReset) {
  DynamicBitset bs(130);
  EXPECT_EQ(bs.Count(), 0u);
  bs.Set(0);
  bs.Set(64);
  bs.Set(129);
  EXPECT_TRUE(bs.Test(0));
  EXPECT_TRUE(bs.Test(64));
  EXPECT_TRUE(bs.Test(129));
  EXPECT_FALSE(bs.Test(1));
  EXPECT_EQ(bs.Count(), 3u);
  bs.Reset(64);
  EXPECT_FALSE(bs.Test(64));
  EXPECT_EQ(bs.Count(), 2u);
}

TEST(BitsetTest, InitialValueTrue) {
  DynamicBitset bs(70, true);
  EXPECT_EQ(bs.Count(), 70u);
  EXPECT_TRUE(bs.Test(69));
}

TEST(BitsetTest, AndOrNotCount) {
  DynamicBitset a(100);
  DynamicBitset b(100);
  a.Set(1);
  a.Set(50);
  a.Set(99);
  b.Set(50);
  b.Set(99);
  b.Set(3);
  EXPECT_EQ(a.AndCount(b), 2u);
  DynamicBitset c = a;
  c.AndWith(b);
  EXPECT_EQ(c.Count(), 2u);
  c = a;
  c.OrWith(b);
  EXPECT_EQ(c.Count(), 4u);
  c = a;
  c.AndNotWith(b);
  EXPECT_EQ(c.Count(), 1u);
  EXPECT_TRUE(c.Test(1));
}

TEST(BitsetTest, ForEachVisitsAscending) {
  DynamicBitset bs(200);
  bs.Set(5);
  bs.Set(64);
  bs.Set(199);
  std::vector<size_t> seen;
  bs.ForEach([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{5, 64, 199}));
}

TEST(BitsetTest, ResizePreservesAndExtends) {
  DynamicBitset bs(10);
  bs.Set(3);
  bs.Resize(100);
  EXPECT_TRUE(bs.Test(3));
  EXPECT_FALSE(bs.Test(99));
  EXPECT_EQ(bs.Count(), 1u);
}

// ---------- Thread pool ----------

TEST(ThreadPoolTest, DestructorRunsAllScheduledTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Schedule([&] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WorkersStayAvailableAfterEachTask) {
  ThreadPool pool(2);
  for (int i = 0; i < 3; ++i) {
    std::promise<int> done;
    std::future<int> result = done.get_future();
    pool.Schedule([&done, i] { done.set_value(i); });
    EXPECT_EQ(result.get(), i);
  }
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, 8, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, SingleThreadInline) {
  std::vector<int> hits(10, 0);
  ParallelFor(10, 1, [&](size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, EmptyRangeIsNoOp) {
  ParallelFor(0, 4, [&](size_t) { FAIL() << "must not be called"; });
}

}  // namespace
}  // namespace fuser
