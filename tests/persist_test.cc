// Snapshot persistence tests. Two contracts are under test:
//
//  1. Round-trip byte identity: Save -> Load -> WarmStart reproduces the
//     originating engine exactly — FusionService Score/ScoreBatch/
//     ScoreObservation answers and Run/RunAll score vectors are equal for
//     every method (plain, scoped, and clustered models), and
//     WarmStart followed by an Update equals a fresh Prepare followed by
//     the same Update.
//
//  2. Robustness: corrupt input (truncations, bad magic, wrong format
//     version, flipped bytes, version-skewed datasets) fails with a
//     Status — InvalidArgument-style, with no crash and no UB. The
//     byte-flip sweep runs under the CI ASan job.
//
// Beside them: a saved file does not depend on the engine's thread count,
// every saved file loads and saves again byte-identically, and a failed
// commit is an IoError that leaves no tmp file behind.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "model/dataset.h"
#include "persist/binary_io.h"
#include "persist/snapshot_fields.h"
#include "persist/snapshot_io.h"
#include "serving/fusion_service.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_persist.h"
#include "support/field_offsets.h"
#include "synth/generator.h"
#include "synth/stream_replay.h"

namespace fuser {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Loads the snapshot at `path` and saves it again: decoding must keep
/// everything the encoder wrote, so the second file equals the first.
void ExpectResavesIdentically(const std::string& path) {
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const std::string resaved = path + ".resaved";
  ASSERT_TRUE(SaveSnapshot(resaved, *loaded->dataset, loaded->train_mask,
                           *loaded->snapshot)
                  .ok());
  EXPECT_TRUE(ReadBytes(resaved) == ReadBytes(path))
      << path << " re-saved to different bytes";
}

std::vector<MethodSpec> Lineup() {
  std::vector<MethodSpec> specs;
  for (const char* name : {"union-50", "3estimates", "cosine", "ltm",
                           "precrec", "precrec-corr", "aggressive",
                           "elastic-3"}) {
    auto spec = ParseMethodSpec(name);
    EXPECT_TRUE(spec.ok()) << name;
    specs.push_back(*spec);
  }
  return specs;
}

std::vector<MethodSpec> ServingSpecs() {
  return {*ParseMethodSpec("precrec-corr"), *ParseMethodSpec("elastic-2"),
          *ParseMethodSpec("union-50")};
}

Dataset MakeDataset(bool with_domains, uint64_t seed = 77) {
  SyntheticConfig config = MakeIndependentConfig(
      /*num_sources=*/8, /*num_triples=*/1500, /*fraction_true=*/0.4,
      /*precision=*/0.72, /*recall=*/0.5, seed);
  config.groups_true = {{{0, 1, 2}, 0.85}};
  config.groups_false = {{{3, 4}, 0.8}};
  if (with_domains) config.num_domains = 12;
  auto dataset = GenerateSynthetic(config);
  EXPECT_TRUE(dataset.ok()) << dataset.status();
  return std::move(*dataset);
}

void ExpectRunsIdentical(const std::vector<FusionRun>& a,
                         const std::vector<FusionRun>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].scores.size(), b[i].scores.size()) << a[i].spec.Name();
    for (size_t t = 0; t < a[i].scores.size(); ++t) {
      // Byte-identical, not approximately equal.
      ASSERT_EQ(a[i].scores[t], b[i].scores[t])
          << a[i].spec.Name() << " triple " << t;
    }
  }
}

/// Saves `original`'s published state, loads it back (full re-materialized
/// dataset), warm-starts a fresh engine, and asserts byte identity of the
/// full method lineup plus FusionService point queries and ad-hoc
/// observations.
void RoundTrip(const Dataset& ds, FusionEngine* original,
               const std::string& path) {
  ASSERT_TRUE(original->PublishSnapshot(ServingSpecs()).ok());
  ASSERT_TRUE(original->SaveSnapshot(path).ok());
  ExpectResavesIdentically(path);

  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_NE(loaded->dataset, nullptr);
  EXPECT_EQ(loaded->dataset->num_triples(), ds.num_triples());
  EXPECT_EQ(loaded->dataset->num_sources(), ds.num_sources());
  EXPECT_EQ(loaded->dataset->num_domains(), ds.num_domains());
  EXPECT_EQ(loaded->dataset->version(), ds.version());
  EXPECT_TRUE(loaded->dataset->labeled_mask() == ds.labeled_mask());
  EXPECT_TRUE(loaded->dataset->true_mask() == ds.true_mask());

  FusionEngine warm(loaded->dataset.get(), EngineOptions{});
  ASSERT_TRUE(warm.WarmStart(*loaded).ok());

  // Restored quality must be bit-equal.
  ASSERT_EQ(warm.source_quality().size(), original->source_quality().size());
  for (size_t s = 0; s < warm.source_quality().size(); ++s) {
    EXPECT_EQ(warm.source_quality()[s].precision,
              original->source_quality()[s].precision);
    EXPECT_EQ(warm.source_quality()[s].recall,
              original->source_quality()[s].recall);
    EXPECT_EQ(warm.source_quality()[s].fpr,
              original->source_quality()[s].fpr);
  }
  EXPECT_TRUE(warm.train_mask() == original->train_mask());

  // Full lineup, fresh Run on both sides.
  auto original_runs = original->RunAll(Lineup());
  auto warm_runs = warm.RunAll(Lineup());
  ASSERT_TRUE(original_runs.ok()) << original_runs.status();
  ASSERT_TRUE(warm_runs.ok()) << warm_runs.status();
  ExpectRunsIdentical(*original_runs, *warm_runs);

  // Point queries straight off the restored serving state.
  FusionService original_service(original);
  FusionService warm_service(&warm);
  auto original_snap = original_service.Acquire();
  auto warm_snap = warm_service.Acquire();
  ASSERT_TRUE(original_snap.ok() && warm_snap.ok());
  std::vector<TripleId> all;
  for (TripleId t = 0; t < ds.num_triples(); ++t) all.push_back(t);
  for (const MethodSpec& spec : ServingSpecs()) {
    auto a = original_service.ScoreBatch(**original_snap, spec, all);
    auto b = warm_service.ScoreBatch(**warm_snap, spec, all);
    ASSERT_TRUE(a.ok()) << spec.Name() << ": " << a.status();
    ASSERT_TRUE(b.ok()) << spec.Name() << ": " << b.status();
    for (size_t t = 0; t < all.size(); ++t) {
      ASSERT_EQ((*a)[t], (*b)[t]) << spec.Name() << " triple " << t;
    }
    for (TripleId t : {TripleId{0}, TripleId{7},
                       static_cast<TripleId>(ds.num_triples() - 1)}) {
      auto sa = original_service.Score(**original_snap, spec, t);
      auto sb = warm_service.Score(**warm_snap, spec, t);
      ASSERT_TRUE(sa.ok() && sb.ok());
      EXPECT_EQ(*sa, *sb);
    }
  }

  // Ad-hoc observations: a mirror of an existing triple and a pattern the
  // grouping has never seen, on the pattern-serving methods.
  for (const char* name : {"precrec-corr", "elastic-2"}) {
    const MethodSpec spec = *ParseMethodSpec(name);
    const TripleId t = 3;
    AdHocObservation mirror;
    for (SourceId s : ds.providers(t)) mirror.providers.push_back(s);
    for (SourceId s : ds.in_scope_sources(t)) mirror.in_scope.push_back(s);
    auto ma = original_service.ScoreObservation(**original_snap, spec, mirror);
    auto mb = warm_service.ScoreObservation(**warm_snap, spec, mirror);
    ASSERT_TRUE(ma.ok() && mb.ok()) << name;
    EXPECT_EQ(*ma, *mb) << name;

    AdHocObservation unseen;
    unseen.providers = {0, 3, 6, 7};
    for (SourceId s = 0; s < ds.num_sources(); ++s) {
      unseen.in_scope.push_back(s);
    }
    auto ua = original_service.ScoreObservation(**original_snap, spec, unseen);
    auto ub = warm_service.ScoreObservation(**warm_snap, spec, unseen);
    ASSERT_TRUE(ua.ok() && ub.ok()) << name;
    EXPECT_EQ(*ua, *ub) << name;
  }
}

TEST(PersistRoundTripTest, PlainModel) {
  Dataset ds = MakeDataset(/*with_domains=*/false);
  FusionEngine engine(static_cast<const Dataset*>(&ds), EngineOptions{});
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());
  RoundTrip(ds, &engine, TempPath("persist_plain.snap"));
}

TEST(PersistRoundTripTest, ScopedModel) {
  Dataset ds = MakeDataset(/*with_domains=*/true);
  EngineOptions options;
  options.model.use_scopes = true;
  FusionEngine engine(static_cast<const Dataset*>(&ds), options);
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());
  RoundTrip(ds, &engine, TempPath("persist_scoped.snap"));
}

TEST(PersistRoundTripTest, ClusteredModel) {
  Dataset ds = MakeDataset(/*with_domains=*/false, /*seed=*/91);
  EngineOptions options;
  options.model.enable_clustering = true;
  options.model.clustering.max_cluster_size = 4;
  FusionEngine engine(static_cast<const Dataset*>(&ds), options);
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());
  RoundTrip(ds, &engine, TempPath("persist_clustered.snap"));
}

TEST(PersistRoundTripTest, NonDefaultOptionsSurviveTheFile) {
  Dataset ds = MakeDataset(/*with_domains=*/false, /*seed=*/13);
  EngineOptions options;
  options.model.alpha = 0.35;
  options.decision_threshold = 0.6;
  options.ltm.seed = 99;
  options.corr.calibrated_likelihood = false;
  FusionEngine engine(static_cast<const Dataset*>(&ds), options);
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());

  const std::string path = TempPath("persist_options.snap");
  ASSERT_TRUE(engine.PublishSnapshot(ServingSpecs()).ok());
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  ExpectResavesIdentically(path);
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // The warm engine is constructed with *default* options; WarmStart must
  // replace them with the saved ones or scores would diverge.
  FusionEngine warm(loaded->dataset.get(), EngineOptions{});
  ASSERT_TRUE(warm.WarmStart(*loaded).ok());
  EXPECT_EQ(warm.options().model.alpha, 0.35);
  EXPECT_EQ(warm.options().decision_threshold, 0.6);
  EXPECT_EQ(warm.options().ltm.seed, 99u);
  EXPECT_FALSE(warm.options().corr.calibrated_likelihood);
  auto a = engine.RunAll(Lineup());
  auto b = warm.RunAll(Lineup());
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectRunsIdentical(*a, *b);
}

TEST(PersistRoundTripTest, SavedFileDoesNotDependOnTheThreadCount) {
  // The thread count belongs to the host, not to the trained state: the
  // file must not carry it.
  Dataset ds = MakeDataset(/*with_domains=*/true, /*seed=*/17);
  std::vector<std::string> files;
  for (size_t num_threads : {size_t{1}, size_t{8}}) {
    EngineOptions options;
    options.model.use_scopes = true;
    options.num_threads = num_threads;
    FusionEngine engine(static_cast<const Dataset*>(&ds), options);
    ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());
    ASSERT_TRUE(engine.PublishSnapshot(ServingSpecs()).ok());
    const std::string path =
        TempPath("persist_threads" + std::to_string(num_threads) + ".snap");
    ASSERT_TRUE(engine.SaveSnapshot(path).ok());
    ExpectResavesIdentically(path);
    files.push_back(ReadBytes(path));
  }
  ASSERT_GT(files[0].size(), 64u);
  EXPECT_TRUE(files[0] == files[1]) << "snapshot bytes differ";
}

TEST(PersistRoundTripTest, WarmStartOverTheOriginalDatasetObject) {
  // The in-process restart shape: the dataset is still loaded; only the
  // engine state is re-adopted from disk (attach mode, prefix read).
  Dataset ds = MakeDataset(/*with_domains=*/false, /*seed=*/5);
  FusionEngine engine(static_cast<const Dataset*>(&ds), EngineOptions{});
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());
  ASSERT_TRUE(engine.PublishSnapshot(ServingSpecs()).ok());
  const std::string path = TempPath("persist_attach.snap");
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  ExpectResavesIdentically(path);

  FusionEngine warm(static_cast<const Dataset*>(&ds), EngineOptions{});
  ASSERT_TRUE(warm.WarmStart(path).ok());
  auto a = engine.RunAll(Lineup());
  auto b = warm.RunAll(Lineup());
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectRunsIdentical(*a, *b);
  // The restored serving entries answer point queries immediately.
  FusionService service(&warm);
  auto snap = service.Acquire();
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(service.Score(**snap, *ParseMethodSpec("precrec-corr"), 0).ok());
}

TEST(PersistRoundTripTest, SaveBeforeModelBuildRestoresLazily) {
  // A snapshot published right after Prepare has no model/grouping/serving
  // yet; warm-starting it must reproduce a just-Prepared engine, with the
  // shared inputs rebuilt lazily on first use.
  Dataset ds = MakeDataset(/*with_domains=*/false, /*seed=*/23);
  FusionEngine engine(static_cast<const Dataset*>(&ds), EngineOptions{});
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());
  const std::string path = TempPath("persist_bare.snap");
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  ExpectResavesIdentically(path);

  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->snapshot->model, nullptr);
  EXPECT_EQ(loaded->snapshot->grouping, nullptr);
  FusionEngine warm(loaded->dataset.get(), EngineOptions{});
  ASSERT_TRUE(warm.WarmStart(*loaded).ok());
  auto a = engine.RunAll(Lineup());
  auto b = warm.RunAll(Lineup());
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectRunsIdentical(*a, *b);
}

TEST(PersistStreamingTest, WarmStartPlusUpdateEqualsPreparePlusUpdate) {
  Dataset final = MakeDataset(/*with_domains=*/false, /*seed=*/31);
  const TripleId prefix = static_cast<TripleId>(final.num_triples() * 4 / 5);

  auto prefix1 = PrefixDataset(final, prefix);
  auto prefix2 = PrefixDataset(final, prefix);
  ASSERT_TRUE(prefix1.ok() && prefix2.ok());
  Dataset ds_prepared = std::move(*prefix1);
  Dataset ds_warm = std::move(*prefix2);

  // The engine whose state gets saved; it then moves on via Update (the
  // fresh-Prepare + Update reference).
  FusionEngine prepared(&ds_prepared, EngineOptions{});
  ASSERT_TRUE(prepared.Prepare(ds_prepared.labeled_mask()).ok());
  ASSERT_TRUE(prepared.PublishSnapshot(ServingSpecs()).ok());
  const std::string path = TempPath("persist_stream.snap");
  ASSERT_TRUE(prepared.SaveSnapshot(path).ok());
  ExpectResavesIdentically(path);

  // Warm-started twin over an identically-built dataset copy.
  FusionEngine warm(&ds_warm, EngineOptions{});
  ASSERT_TRUE(warm.WarmStart(path).ok());

  const TripleId total = static_cast<TripleId>(final.num_triples());
  const TripleId mid = prefix + (total - prefix) / 2;
  for (const auto& [lo, hi] :
       std::vector<std::pair<TripleId, TripleId>>{{prefix, mid},
                                                  {mid, total}}) {
    ObservationBatch batch = BatchForRange(final, lo, hi);
    ASSERT_TRUE(prepared.Update(batch).ok());
    ASSERT_TRUE(warm.Update(batch).ok());
  }
  EXPECT_EQ(warm.pattern_grouping_builds(), 0u)
      << "warm engine should maintain the loaded grouping incrementally";
  auto a = prepared.RunAll(Lineup());
  auto b = warm.RunAll(Lineup());
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ExpectRunsIdentical(*a, *b);
}

// ---------------------------------------------------------------------------
// Corruption paths.
// ---------------------------------------------------------------------------

class PersistCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    ds_ = MakeDataset(/*with_domains=*/true, /*seed=*/47);
    EngineOptions options;
    options.model.use_scopes = true;
    engine_ = std::make_unique<FusionEngine>(
        static_cast<const Dataset*>(&ds_), options);
    ASSERT_TRUE(engine_->Prepare(ds_.labeled_mask()).ok());
    ASSERT_TRUE(engine_->PublishSnapshot(ServingSpecs()).ok());
    path_ = TempPath("persist_corrupt.snap");
    ASSERT_TRUE(engine_->SaveSnapshot(path_).ok());
    ExpectResavesIdentically(path_);
    bytes_ = ReadBytes(path_);
    ASSERT_GT(bytes_.size(), 64u);
  }

  std::string WriteVariant(const std::string& bytes) {
    const std::string path = TempPath("persist_corrupt_variant.snap");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    return path;
  }

  Dataset ds_;
  std::unique_ptr<FusionEngine> engine_;
  std::string path_;
  std::string bytes_;
};

TEST_F(PersistCorruptionTest, MissingFileIsAnError) {
  auto loaded = LoadSnapshot(TempPath("does_not_exist.snap"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(PersistCorruptionTest, TruncationsNeverCrash) {
  // Every prefix length across the interesting boundaries: empty file,
  // mid-magic, mid-header, mid-section-table, mid-payload, one byte short.
  std::vector<size_t> cuts = {0, 1, 4, 7, 8, 12, 15, 16, 24, 40, 63};
  for (size_t fraction = 1; fraction < 8; ++fraction) {
    cuts.push_back(bytes_.size() * fraction / 8);
  }
  cuts.push_back(bytes_.size() - 1);
  for (size_t cut : cuts) {
    ASSERT_LT(cut, bytes_.size());
    const std::string path = WriteVariant(bytes_.substr(0, cut));
    auto loaded = LoadSnapshot(path);
    EXPECT_FALSE(loaded.ok()) << "truncated to " << cut << " bytes";
    EXPECT_NE(loaded.status().code(), StatusCode::kOk);
    // Attach-mode (WarmStart) must fail just as cleanly.
    FusionEngine warm(static_cast<const Dataset*>(&ds_), EngineOptions{});
    EXPECT_FALSE(warm.WarmStart(path).ok()) << "truncated to " << cut;
  }
}

TEST_F(PersistCorruptionTest, BadMagicIsInvalidArgument) {
  std::string bad = bytes_;
  bad[0] = 'X';
  auto loaded = LoadSnapshot(WriteVariant(bad));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
}

TEST_F(PersistCorruptionTest, WrongFormatVersionIsInvalidArgument) {
  std::string bad = bytes_;
  bad[8] = static_cast<char>(kSnapshotFormatVersion + 1);
  auto loaded = LoadSnapshot(WriteVariant(bad));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

constexpr size_t kHeaderFixedBytes = 16;  // magic, version, count
constexpr size_t kSectionEntryBytes = 32;  // id, reserved, offset, size, sum
constexpr uint32_t kEngineSectionId = 1;
constexpr uint32_t kServingSectionId = 5;

/// Byte offset of the section-table entry of `section_id` in the snapshot
/// image `bytes`.
size_t SectionEntryOffset(const std::string& bytes, uint32_t section_id) {
  const uint32_t count = persist::LoadU32LE(bytes.data() + 12);
  for (uint32_t i = 0; i < count; ++i) {
    const size_t entry = kHeaderFixedBytes + kSectionEntryBytes * i;
    if (persist::LoadU32LE(bytes.data() + entry) == section_id) return entry;
  }
  ADD_FAILURE() << "no section " << section_id;
  return 0;
}

uint64_t SectionSize(const std::string& bytes, uint32_t section_id) {
  return persist::LoadU64LE(bytes.data() +
                            SectionEntryOffset(bytes, section_id) + 16);
}

/// Overwrites `size` bytes at `field_offset` inside section `section_id`
/// of the snapshot image `bytes`, then recomputes that section's checksum
/// and the header checksum: the result passes every integrity check, so
/// only the decoder's validation can reject it.
std::string RewriteSectionField(std::string bytes, uint32_t section_id,
                                size_t field_offset, const void* value,
                                size_t size) {
  auto store_u64 = [](char* at, uint64_t v) {
    for (int i = 0; i < 8; ++i) at[i] = static_cast<char>(v >> (8 * i));
  };
  char* entry = bytes.data() + SectionEntryOffset(bytes, section_id);
  const uint64_t offset = persist::LoadU64LE(entry + 8);
  const uint64_t section_size = persist::LoadU64LE(entry + 16);
  std::memcpy(bytes.data() + offset + field_offset, value, size);
  store_u64(entry + 24,
            persist::Checksum64(bytes.data() + offset, section_size));
  const uint32_t count = persist::LoadU32LE(bytes.data() + 12);
  const size_t table_end = kHeaderFixedBytes + kSectionEntryBytes * count;
  store_u64(bytes.data() + table_end,
            persist::Checksum64(bytes.data(), table_end));
  return bytes;
}

TEST_F(PersistCorruptionTest, OutOfRangeEngineOptionsAreInvalidArgument) {
  // ENGINE payload offsets, from the section's field list.
  const persist::EngineSection section;
  const FieldOffsets engine_fields(section);
  const size_t kAlpha = engine_fields.Of(&section.options.model.alpha);
  const size_t kSmoothing = engine_fields.Of(&section.options.model.smoothing);
  const size_t kThreshold =
      engine_fields.Of(&section.options.decision_threshold);
  auto write = [&](size_t field, auto value) {
    return WriteVariant(RewriteSectionField(bytes_, kEngineSectionId, field,
                                            &value, sizeof(value)));
  };
  auto loads = [&](const std::string& path) {
    FusionEngine warm(static_cast<const Dataset*>(&ds_), EngineOptions{});
    Status warm_started = warm.WarmStart(path);
    EXPECT_EQ(LoadSnapshot(path).status().code(), warm_started.code());
    return warm_started;
  };
  // Rewriting fields to values an engine accepts (the saved ones) still
  // loads: the rewrite itself is sound.
  ASSERT_TRUE(loads(write(kAlpha, 0.5)).ok());
  ASSERT_TRUE(loads(write(kSmoothing, 0.0)).ok());
  ASSERT_TRUE(loads(write(kThreshold, 0.5)).ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::string, std::string>> bad = {
      {"alpha 1", write(kAlpha, 1.0)},
      {"alpha nan", write(kAlpha, nan)},
      {"smoothing -1", write(kSmoothing, -1.0)},
      {"smoothing inf", write(kSmoothing, inf)},
      {"threshold 2", write(kThreshold, 2.0)},
      {"threshold nan", write(kThreshold, nan)},
  };
  for (const auto& [what, path] : bad) {
    EXPECT_EQ(loads(path).code(), StatusCode::kInvalidArgument) << what;
  }
}

TEST_F(PersistCorruptionTest, OutOfRangeServingSpecIsInvalidArgument) {
  // SERVING entries are sorted by name, so union-50 is the last one: its
  // MethodSpec, then its dense scores (one per triple), each through its
  // field list.
  const MethodSpec spec = *ParseMethodSpec("union-50");
  const FieldOffsets spec_fields(spec);
  const size_t entry_bytes =
      spec_fields.size() +
      FieldOffsets(std::vector<double>(ds_.num_triples())).size();
  const size_t entry = SectionSize(bytes_, kServingSectionId) - entry_bytes;
  const size_t percent = entry + spec_fields.Of(&spec.union_percent);
  auto write = [&](double value) {
    return WriteVariant(RewriteSectionField(bytes_, kServingSectionId,
                                            percent, &value, sizeof(value)));
  };
  auto loads = [&](const std::string& path) {
    FusionEngine warm(static_cast<const Dataset*>(&ds_), EngineOptions{});
    Status warm_started = warm.WarmStart(path);
    EXPECT_EQ(LoadSnapshot(path).status().code(), warm_started.code());
    return warm_started;
  };
  // The offset is right: rewriting the saved percentage still loads, and a
  // valid different one loads under its own name.
  ASSERT_TRUE(loads(write(50.0)).ok());
  auto moved = LoadSnapshot(write(25.0));
  ASSERT_TRUE(moved.ok()) << moved.status();
  EXPECT_NE(moved->snapshot->FindServing("union-25"), nullptr);
  EXPECT_EQ(moved->snapshot->FindServing("union-50"), nullptr);

  for (double bad : {150.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(loads(write(bad)).code(), StatusCode::kInvalidArgument) << bad;
  }
}

constexpr uint32_t kGroupingSectionId = 4;

/// A saved six-source clustered engine (sources 0-2 correlated, so the
/// others end up in clusters of one), for rewriting its GROUPING section.
class GroupingRewriteTest : public testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    SyntheticConfig config = MakeIndependentConfig(
        /*num_sources=*/6, /*num_triples=*/1500, /*fraction_true=*/0.4,
        /*precision=*/0.72, /*recall=*/0.5, /*seed=*/19);
    config.groups_true = {{{0, 1, 2}, 0.85}};
    if (use_scopes()) config.num_domains = 12;
    auto ds = GenerateSynthetic(config);
    ASSERT_TRUE(ds.ok()) << ds.status();
    ds_ = std::move(*ds);
    EngineOptions options;
    options.model.enable_clustering = true;
    options.model.use_scopes = use_scopes();
    engine_ = std::make_unique<FusionEngine>(
        static_cast<const Dataset*>(&ds_), options);
    ASSERT_TRUE(engine_->Prepare(ds_.labeled_mask()).ok());
    ASSERT_TRUE(engine_->PublishSnapshot(ServingSpecs()).ok());
    const std::string path = TempPath("persist_grouping.snap");
    ASSERT_TRUE(engine_->SaveSnapshot(path).ok());
    ExpectResavesIdentically(path);
    bytes_ = ReadBytes(path);
  }

  bool use_scopes() const { return GetParam(); }

  /// The u64 at `offset` in the GROUPING payload of `bytes_`.
  uint64_t Read(size_t offset) const {
    const char* entry =
        bytes_.data() + SectionEntryOffset(bytes_, kGroupingSectionId);
    return persist::LoadU64LE(bytes_.data() + persist::LoadU64LE(entry + 8) +
                              offset);
  }

  /// `base` with the u64 at `offset` of its GROUPING payload set to
  /// `value`, every checksum recomputed.
  std::string Write(const std::string& base, size_t offset,
                    uint64_t value) const {
    EXPECT_LE(offset + 8, SectionSize(base, kGroupingSectionId));
    if (offset + 8 > SectionSize(base, kGroupingSectionId)) return base;
    return RewriteSectionField(base, kGroupingSectionId, offset, &value,
                               sizeof(value));
  }

  /// The load status of `bytes`, which WarmStart and LoadSnapshot agree on.
  StatusCode Loads(const std::string& bytes) const {
    const std::string path = TempPath("persist_grouping_variant.snap");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    FusionEngine warm(static_cast<const Dataset*>(&ds_), EngineOptions{});
    const Status warm_started = warm.WarmStart(path);
    EXPECT_EQ(LoadSnapshot(path).status().code(), warm_started.code());
    return warm_started.code();
  }

  Dataset ds_;
  std::unique_ptr<FusionEngine> engine_;
  std::string bytes_;
};

TEST_P(GroupingRewriteTest, ImpossiblePatternKeysAreInvalidArgument) {
  // The payload starts with the triple and cluster counts (two u64s), then
  // cluster 0's pattern keys, whose field list places the first key's
  // masks. A key no triple of its cluster could have used to load and then
  // abort the first Run: the scorers index joint statistics by its masks.
  const std::vector<PatternKey> keys(1);
  const FieldOffsets key_fields(keys);
  const size_t kProviders = 16 + key_fields.Of(&keys[0].providers);
  const size_t kNonproviders = 16 + key_fields.Of(&keys[0].nonproviders);
  const uint64_t providers = Read(kProviders);
  ASSERT_EQ(Loads(Write(bytes_, kProviders, providers)), StatusCode::kOk);

  std::vector<std::pair<std::string, std::string>> bad = {
      {"bit 40", Write(bytes_, kProviders, providers | uint64_t{1} << 40)},
      {"provides and stays silent",
       Write(Write(bytes_, kProviders, 1), kNonproviders, 1)},
  };
  if (!use_scopes()) {
    bad.emplace_back("out of scope without scopes",
                     Write(Write(bytes_, kProviders, 0), kNonproviders, 0));
  }
  for (const auto& [what, variant] : bad) {
    EXPECT_EQ(Loads(variant), StatusCode::kInvalidArgument) << what;
  }
}

TEST_P(GroupingRewriteTest, CorruptSingletonColumnsAreInvalidArgument) {
  // Walk the payload to the first singleton cluster's column: after each
  // cluster's keys come its u32 ids, or for a singleton two bitsets (a
  // u64 bit count, then the words): provided, then in-scope.
  const CorrelationModel& model = **engine_->GetModel();
  const size_t m = ds_.num_triples();
  ASSERT_NE(m % 64, 0u);
  size_t pos = 16;
  size_t single = model.clustering.clusters.size();
  for (size_t c = 0; c < model.clustering.clusters.size(); ++c) {
    pos += 8 + 16 * Read(pos);
    if (model.clustering.clusters[c].size() == 1) {
      single = c;
      break;
    }
    pos += 4 * m;
  }
  ASSERT_LT(single, model.clustering.clusters.size());
  const SourceId source = model.clustering.clusters[single][0];
  const size_t words = (m + 63) / 64;
  const size_t provided = pos + 8;
  const size_t in_scope = provided + 8 * words + 8;
  ASSERT_EQ(Read(pos), m);
  ASSERT_EQ(Read(in_scope - 8), use_scopes() ? m : 0);

  const size_t last = provided + 8 * (words - 1);
  std::vector<std::pair<std::string, std::string>> bad = {
      {"provided bit past the triple count",
       Write(bytes_, last, Read(last) | uint64_t{1} << (m % 64))},
      {"provided bit count past the triple count", Write(bytes_, pos, m + 1)},
  };
  if (use_scopes()) {
    // Clearing a triple's in-scope bit makes it out of scope: a provided
    // one then has a provided bit without its in-scope bit, a silent one
    // the code of a pattern (out of scope) this source never had.
    const auto& index = (*engine_->GetPatternGrouping())->index[single];
    ASSERT_EQ(index.count(PatternKey{0, 0}), 0u);
    TripleId provides = kInvalidTriple;
    TripleId silent = kInvalidTriple;
    for (TripleId t = 0; t < m; ++t) {
      TripleId& slot = ds_.provides(source, t) ? provides : silent;
      if (slot == kInvalidTriple) slot = t;
    }
    ASSERT_NE(provides, kInvalidTriple);
    ASSERT_NE(silent, kInvalidTriple);
    for (const auto& [what, t] :
         {std::make_pair("provided out of scope", provides),
          std::make_pair("code without a pattern", silent)}) {
      const size_t word = in_scope + 8 * (t / 64);
      const uint64_t cleared = Read(word) & ~(uint64_t{1} << (t % 64));
      bad.emplace_back(what, Write(bytes_, word, cleared));
    }
  }
  for (const auto& [what, variant] : bad) {
    EXPECT_EQ(Loads(variant), StatusCode::kInvalidArgument) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(Scopes, GroupingRewriteTest, testing::Bool());

TEST(EngineOptionsTest, PrepareRejectsOptionsNoSnapshotCouldCarry) {
  // The decoder's bounds hold at Prepare too, so an engine never saves a
  // file it cannot load.
  Dataset ds = MakeDataset(/*with_domains=*/false);
  std::vector<EngineOptions> bad(3);
  bad[0].decision_threshold = 1.5;
  bad[1].model.smoothing = std::numeric_limits<double>::infinity();
  bad[2].model.alpha = 0.0;
  for (const EngineOptions& options : bad) {
    FusionEngine engine(static_cast<const Dataset*>(&ds), options);
    EXPECT_EQ(engine.Prepare(ds.labeled_mask()).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(PersistCorruptionTest, FailedCommitIsIoErrorAndLeavesNoTmpFile) {
  // Renaming onto a non-empty directory fails after the tmp file is fully
  // written: both writers must report it and clean up.
  const std::string dir = TempPath("persist_commit_target");
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/occupant") << "x";
  EXPECT_EQ(engine_->SaveSnapshot(dir).code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));

  ShardManifest manifest;
  manifest.snapshot_format_version = kSnapshotFormatVersion;
  manifest.sharding = ShardingOptions{1};
  manifest.local_to_global.resize(1);
  EXPECT_EQ(WriteShardManifest(dir, manifest).code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(dir));
}

TEST_F(PersistCorruptionTest, PayloadFlipIsChecksumMismatch) {
  // Flip one byte deep inside the payload region (past header + table):
  // the section checksum must catch it.
  std::string bad = bytes_;
  bad[bytes_.size() / 2] = static_cast<char>(bad[bytes_.size() / 2] ^ 0x20);
  auto loaded = LoadSnapshot(WriteVariant(bad));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PersistCorruptionTest, SingleByteFlipsAlwaysFailCleanly) {
  // Fuzz-ish sweep: flip one byte at N seeded-random offsets. A full load
  // parses (and checksums) every section, so it must reject every flip;
  // none may crash or trip the sanitizers. Attach-mode WarmStart
  // deliberately skips the trailing DATASET section, so a flip there may
  // go unseen — in that case the adopted state must still be exactly the
  // uncorrupted one.
  auto reference = engine_->Run({MethodKind::kPrecRecCorr});
  ASSERT_TRUE(reference.ok());
  Rng rng(20260730);
  for (int i = 0; i < 200; ++i) {
    const size_t offset = rng.NextBounded(bytes_.size());
    const uint8_t flip =
        static_cast<uint8_t>(1u << rng.NextBounded(8));
    std::string bad = bytes_;
    bad[offset] = static_cast<char>(bad[offset] ^ flip);
    const std::string path = WriteVariant(bad);
    auto loaded = LoadSnapshot(path);
    EXPECT_FALSE(loaded.ok())
        << "flip at offset " << offset << " was not detected";
    EngineOptions options;
    options.model.use_scopes = true;
    FusionEngine warm(static_cast<const Dataset*>(&ds_), options);
    if (warm.WarmStart(path).ok()) {
      auto run = warm.Run({MethodKind::kPrecRecCorr});
      ASSERT_TRUE(run.ok());
      ASSERT_EQ(run->scores, reference->scores)
          << "flip at offset " << offset
          << " warm-started but changed the adopted state";
    }
  }
}

TEST_F(PersistCorruptionTest, DatasetVersionMismatchOnWarmStart) {
  // Stream one batch into the dataset after the save: the snapshot now
  // predates the dataset and WarmStart must refuse it. The batch only
  // relabels an existing triple, so every size still matches and the
  // version counter is the only thing standing between the stale snapshot
  // and silently wrong scores.
  Dataset mutated = MakeDataset(/*with_domains=*/true, /*seed=*/47);
  EngineOptions options;
  options.model.use_scopes = true;
  FusionEngine writer(&mutated, options);
  ASSERT_TRUE(writer.Prepare(mutated.labeled_mask()).ok());
  const std::string path = TempPath("persist_version_skew.snap");
  ASSERT_TRUE(writer.SaveSnapshot(path).ok());
  ExpectResavesIdentically(path);

  ObservationBatch batch;
  batch.labels.push_back(
      {mutated.triple(0), mutated.label(0) != Label::kTrue});
  ASSERT_TRUE(writer.Update(batch).ok());

  FusionEngine stale(static_cast<const Dataset*>(&mutated), options);
  Status warmed = stale.WarmStart(path);
  ASSERT_FALSE(warmed.ok());
  EXPECT_EQ(warmed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(warmed.message().find("dataset_version"), std::string::npos);
}

TEST_F(PersistCorruptionTest, ContentMismatchWithMatchingCountsFails) {
  // The sharpest stale-state case: a dataset with identical sizes and an
  // identical version counter (both freshly finalized) but different
  // contents — e.g. TSVs edited in place and reloaded. Only the content
  // fingerprint stands between this and silently wrong scores.
  auto build = [](bool flip_label) {
    Dataset ds;
    SourceId a = ds.AddSource("a");
    SourceId b = ds.AddSource("b");
    TripleId t0 = ds.AddTriple({"s0", "p", "o"});
    TripleId t1 = ds.AddTriple({"s1", "p", "o"});
    TripleId t2 = ds.AddTriple({"s2", "p", "o"});
    ds.Provide(a, t0);
    ds.Provide(a, t1);
    ds.Provide(b, t0);
    ds.Provide(b, t2);
    ds.SetLabel(t0, true);
    ds.SetLabel(t1, !flip_label);
    ds.SetLabel(t2, false);
    EXPECT_TRUE(ds.Finalize().ok());
    return ds;
  };
  Dataset original = build(false);
  Dataset edited = build(true);
  ASSERT_EQ(original.version(), edited.version());
  ASSERT_EQ(original.num_triples(), edited.num_triples());
  ASSERT_NE(original.ContentFingerprint(), edited.ContentFingerprint());

  FusionEngine writer(static_cast<const Dataset*>(&original),
                      EngineOptions{});
  ASSERT_TRUE(writer.Prepare(original.labeled_mask()).ok());
  const std::string path = TempPath("persist_content_skew.snap");
  ASSERT_TRUE(writer.SaveSnapshot(path).ok());
  ExpectResavesIdentically(path);

  FusionEngine same(static_cast<const Dataset*>(&original), EngineOptions{});
  EXPECT_TRUE(same.WarmStart(path).ok());
  FusionEngine stale(static_cast<const Dataset*>(&edited), EngineOptions{});
  Status warmed = stale.WarmStart(path);
  ASSERT_FALSE(warmed.ok());
  EXPECT_EQ(warmed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(warmed.message().find("fingerprint"), std::string::npos);
}

TEST_F(PersistCorruptionTest, WarmStartAgainstDifferentDatasetFails) {
  Dataset other = MakeDataset(/*with_domains=*/false, /*seed=*/48);
  FusionEngine warm(static_cast<const Dataset*>(&other), EngineOptions{});
  Status warmed = warm.WarmStart(path_);
  ASSERT_FALSE(warmed.ok());
  EXPECT_EQ(warmed.code(), StatusCode::kInvalidArgument);
}

TEST_F(PersistCorruptionTest, ExplicitStatsAreUnimplemented) {
  // Caller-supplied (non-empirical) statistics have no persistent form.
  auto clustering = SingleClusterOf(ds_.num_sources());
  ASSERT_TRUE(clustering.ok());
  auto model = std::make_shared<CorrelationModel>();
  model->clustering = std::move(*clustering);
  std::vector<JointQuality> singles(ds_.num_sources(), {0.8, 0.5, 0.1});
  model->cluster_stats.push_back(
      std::make_unique<ExplicitJointStats>(singles, 0.5));
  model->source_quality.assign(ds_.num_sources(), SourceQuality{});

  FusionSnapshot snapshot;
  snapshot.dataset_version = ds_.version();
  snapshot.num_triples = ds_.num_triples();
  snapshot.num_sources = ds_.num_sources();
  snapshot.model = model;
  Status saved = SaveSnapshot(TempPath("persist_explicit.snap"), ds_,
                              ds_.labeled_mask(), snapshot);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kUnimplemented);
}

TEST_F(PersistCorruptionTest, SaveRefusesAStaleSnapshot) {
  Dataset mutated = MakeDataset(/*with_domains=*/true, /*seed=*/47);
  FusionEngine writer(&mutated, EngineOptions{});
  ASSERT_TRUE(writer.Prepare(mutated.labeled_mask()).ok());
  auto snapshot = writer.CurrentSnapshot();
  ASSERT_NE(snapshot, nullptr);
  ObservationBatch batch;
  batch.observations.push_back(
      {std::string(mutated.source_name(0)),
       {"another-new", "p", "o"},
       "dom0"});
  ASSERT_TRUE(writer.Update(batch).ok());
  // The pinned snapshot predates the batch; persisting it against the
  // moved-on dataset would save inconsistent state.
  Status saved = SaveSnapshot(TempPath("persist_stale.snap"), mutated,
                              writer.train_mask(), *snapshot);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Zero-copy mmap attach.
// ---------------------------------------------------------------------------

/// Reuses the corruption fixture's saved snapshot (scoped model over a
/// domain-bearing dataset) for the attach-mode contracts.
class MmapAttachTest : public PersistCorruptionTest {
 protected:
  /// (offset, size) of the DATASET section, read from the section table.
  std::pair<size_t, size_t> DatasetSpan() const {
    uint32_t count = 0;
    std::memcpy(&count, bytes_.data() + 12, sizeof(count));
    for (uint32_t i = 0; i < count; ++i) {
      const char* entry = bytes_.data() + 16 + i * 32;
      uint32_t id = 0;
      std::memcpy(&id, entry, sizeof(id));
      if (id != 2) continue;  // DATASET
      uint64_t offset = 0, size = 0;
      std::memcpy(&offset, entry + 8, sizeof(offset));
      std::memcpy(&size, entry + 16, sizeof(size));
      return {static_cast<size_t>(offset), static_cast<size_t>(size)};
    }
    ADD_FAILURE() << "no DATASET section in the saved snapshot";
    return {0, 0};
  }
};

TEST_F(MmapAttachTest, AttachedScoresMatchOwned) {
  EngineOptions options;
  options.model.use_scopes = true;
  auto reference = engine_->RunAll(Lineup());
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (AttachMode mode : {AttachMode::kMmap, AttachMode::kMmapVerify}) {
    auto loaded = LoadSnapshot(path_, LoadOptions{mode});
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_NE(loaded->dataset, nullptr);
    EXPECT_TRUE(loaded->dataset->attached());
    const DatasetMemoryStats stats = loaded->dataset->MemoryStats();
    EXPECT_STREQ(stats.storage_mode, "mmap");
    EXPECT_GT(stats.mapped_bytes, 0u);
    FusionEngine warm(loaded->dataset.get(), options);
    ASSERT_TRUE(warm.WarmStart(*loaded).ok());
    auto runs = warm.RunAll(Lineup());
    ASSERT_TRUE(runs.ok()) << runs.status();
    ExpectRunsIdentical(*reference, *runs);
  }
}

TEST_F(MmapAttachTest, UpdateAfterAttachEqualsFreshPrepare) {
  // Streaming onto an attached dataset: copy-on-write promotion must leave
  // the scores byte-identical to a fresh Prepare + the same Update over an
  // owned (kCopy) dataset.
  EngineOptions options;
  options.model.use_scopes = true;
  auto copy_loaded = LoadSnapshot(path_, LoadOptions{AttachMode::kCopy});
  auto mmap_loaded = LoadSnapshot(path_, LoadOptions{AttachMode::kMmap});
  ASSERT_TRUE(copy_loaded.ok() && mmap_loaded.ok());

  ObservationBatch batch;
  batch.observations.push_back({std::string(ds_.source_name(1)),
                                Triple(ds_.triple(2)),
                                std::string(ds_.domain_name(ds_.domain(2)))});
  batch.observations.push_back(
      {"attach-new-source", {"attach-new", "p", "o"}, "attach-new-domain"});
  batch.labels.push_back({Triple(ds_.triple(5)), true});

  FusionEngine fresh(copy_loaded->dataset.get(), options);
  ASSERT_TRUE(fresh.Prepare(copy_loaded->train_mask).ok());
  ASSERT_TRUE(fresh.Update(batch).ok());

  const size_t owned_before = mmap_loaded->dataset->MemoryStats().owned_bytes;
  FusionEngine warm(mmap_loaded->dataset.get(), options);
  ASSERT_TRUE(warm.WarmStart(*mmap_loaded).ok());
  ASSERT_TRUE(warm.Update(batch).ok());
  const DatasetMemoryStats after = mmap_loaded->dataset->MemoryStats();
  EXPECT_GT(after.owned_bytes, owned_before)
      << "Update must promote the structures it grows to owned memory";
  EXPECT_EQ(std::string(after.storage_mode).substr(0, 4), "mmap");

  auto a = fresh.RunAll(Lineup());
  auto b = warm.RunAll(Lineup());
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectRunsIdentical(*a, *b);
}

TEST_F(MmapAttachTest, TruncatedMappedDatasetRejected) {
  const auto [ds_off, ds_size] = DatasetSpan();
  ASSERT_GT(ds_size, 0u);
  for (size_t cut : {bytes_.size() - 1, ds_off + ds_size / 2, ds_off + 8}) {
    const std::string path = WriteVariant(bytes_.substr(0, cut));
    for (AttachMode mode : {AttachMode::kMmap, AttachMode::kMmapVerify}) {
      auto loaded = LoadSnapshot(path, LoadOptions{mode});
      EXPECT_FALSE(loaded.ok()) << "truncated to " << cut << " bytes";
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST_F(MmapAttachTest, FlippedMappedDatasetRejected) {
  const auto [ds_off, ds_size] = DatasetSpan();
  ASSERT_GT(ds_size, 0u);
  // Deep in the column payload: only the full section checksum sees it.
  std::string payload_flip = bytes_;
  payload_flip[ds_off + ds_size * 3 / 4] ^= 0x40;
  auto verified =
      LoadSnapshot(WriteVariant(payload_flip), LoadOptions{AttachMode::kMmapVerify});
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kInvalidArgument);
  // In the scalar/meta prefix: even the trusted kMmap fast path must
  // reject it (meta checksum or layout validation).
  std::string meta_flip = bytes_;
  meta_flip[ds_off + 16] ^= 0x04;
  auto attached =
      LoadSnapshot(WriteVariant(meta_flip), LoadOptions{AttachMode::kMmap});
  ASSERT_FALSE(attached.ok());
  EXPECT_EQ(attached.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MmapAttachTest, OldFormatSnapshotIsAVersionedError) {
  // A v1-era header (the pre-columnar row codec), a v2 one (whose ENGINE
  // section still carried a precrec-corr thread count), a v3 one (whose
  // ENGINE and MODEL sections still carried the engine's thread count and
  // per-cluster options) or a v4 one (whose SERVING entries still carried
  // a name, a threshold and a pattern-based flag) or a v5 one (whose
  // GROUPING section stored u32 pattern ids for one-source clusters too)
  // must fail up front with both versions named — not a misparse of the
  // old encoding.
  for (char version : {'\1', '\2', '\3', '\4', '\5'}) {
    std::string old = bytes_;
    old[8] = version;
    old[9] = old[10] = old[11] = 0;
    for (AttachMode mode :
         {AttachMode::kCopy, AttachMode::kMmap, AttachMode::kMmapVerify}) {
      auto loaded = LoadSnapshot(WriteVariant(old), LoadOptions{mode});
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(loaded.status().message().find(
                    "unsupported snapshot format version " +
                    std::to_string(static_cast<int>(version))),
                std::string::npos)
          << loaded.status();
      EXPECT_NE(loaded.status().message().find(
                    "reads version " +
                    std::to_string(kSnapshotFormatVersion)),
                std::string::npos)
          << loaded.status();
    }
    // The sharded engine's warm start reads a plain file the same way.
    auto sharded =
        ShardedFusionEngine::WarmStart(WriteVariant(old), EngineOptions{});
    ASSERT_FALSE(sharded.ok());
    EXPECT_NE(sharded.status().message().find(
                  "unsupported snapshot format version " +
                  std::to_string(static_cast<int>(version))),
              std::string::npos)
        << sharded.status();
  }
}

}  // namespace
}  // namespace fuser
