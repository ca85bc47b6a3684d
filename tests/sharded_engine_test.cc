// Sharded engine tests. The contract under test is the strong one from
// shard/sharded_engine.h: a ShardedFusionEngine over K domain-hash shards
// produces byte-identical scores to a single unsharded FusionEngine on the
// same data — at every shard count, every thread count, with scoped and
// clustered configs, through streaming updates, through the serving
// facade, and across a save/warm-start round trip. K=1 is the unsharded
// engine itself: every method, plain single-file snapshots in
// and out, and 1-shard manifests from older saves still load.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "model/dataset.h"
#include "persist/snapshot_io.h"
#include "serving/fusion_service.h"
#include "shard/sharded_dataset.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_persist.h"
#include "shard/sharded_service.h"
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

/// Reads the manifest at `path` and writes it again: the bytes must not
/// change.
void ExpectManifestRewritesIdentically(const std::string& path) {
  auto manifest = ReadShardManifest(path);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  const std::string rewritten = path + ".rewritten";
  ASSERT_TRUE(WriteShardManifest(rewritten, *manifest).ok());
  EXPECT_TRUE(ReadBytes(rewritten) == ReadBytes(path))
      << path << " rewritten to different bytes";
}

/// Warm-starts from the save at `path` (a manifest and its shard files, or
/// one plain file at K=1) and saves again: every file must come out with
/// the bytes it went in with.
void ExpectResavesIdentically(const std::string& path) {
  auto warm = ShardedFusionEngine::WarmStart(path, EngineOptions{});
  ASSERT_TRUE(warm.ok()) << warm.status();
  const std::string resaved = path + ".resaved";
  ASSERT_TRUE((*warm)->SaveSnapshot(resaved).ok());
  EXPECT_TRUE(ReadBytes(resaved) == ReadBytes(path))
      << path << " re-saved to different bytes";
  if (!IsShardManifest(path)) return;
  ExpectManifestRewritesIdentically(path);
  for (size_t k = 0; k < (*warm)->num_shards(); ++k) {
    EXPECT_TRUE(ReadBytes(ShardSnapshotPath(resaved, k)) ==
                ReadBytes(ShardSnapshotPath(path, k)))
        << path << " shard " << k << " re-saved to different bytes";
  }
}

/// Every shardable method (cosine/3estimates/ltm are iterative
/// fixed points over the whole corpus and stay unsharded).
std::vector<MethodSpec> ShardableLineup() {
  std::vector<MethodSpec> specs;
  for (const char* name :
       {"union-50", "precrec", "precrec-corr", "aggressive", "elastic-3"}) {
    auto spec = ParseMethodSpec(name);
    EXPECT_TRUE(spec.ok()) << name;
    specs.push_back(*spec);
  }
  return specs;
}

void ExpectRunsIdentical(const std::vector<FusionRun>& sharded,
                         const std::vector<FusionRun>& unsharded) {
  ASSERT_EQ(sharded.size(), unsharded.size());
  for (size_t i = 0; i < sharded.size(); ++i) {
    ASSERT_EQ(sharded[i].scores.size(), unsharded[i].scores.size())
        << sharded[i].spec.Name();
    EXPECT_EQ(sharded[i].threshold, unsharded[i].threshold);
    for (size_t t = 0; t < sharded[i].scores.size(); ++t) {
      // Byte-identical, not approximately equal: merged integer counts must
      // finalize through the exact same arithmetic as the unsharded path.
      ASSERT_EQ(sharded[i].scores[t], unsharded[i].scores[t])
          << sharded[i].spec.Name() << " triple " << t;
    }
  }
}

enum class Variant { kPlain, kScoped, kClustered };

Dataset MakeDataset(Variant variant, uint64_t seed) {
  SyntheticConfig config = MakeIndependentConfig(
      /*num_sources=*/variant == Variant::kClustered ? 10 : 6,
      /*num_triples=*/1400, /*fraction_true=*/0.4, /*precision=*/0.7,
      /*recall=*/0.45, seed);
  if (variant == Variant::kScoped) {
    config.num_domains = 37;
  }
  auto ds = GenerateSynthetic(config);
  EXPECT_TRUE(ds.ok()) << ds.status();
  return std::move(*ds);
}

EngineOptions MakeOptions(Variant variant) {
  EngineOptions options;
  if (variant == Variant::kScoped) {
    options.model.use_scopes = true;
  }
  if (variant == Variant::kClustered) {
    options.model.enable_clustering = true;
  }
  return options;
}

class ShardedIdentityTest
    : public testing::TestWithParam<std::tuple<Variant, uint32_t>> {};

TEST_P(ShardedIdentityTest, RunAllMatchesUnshardedAtEveryThreadCount) {
  const Variant variant = std::get<0>(GetParam());
  const uint32_t num_shards = std::get<1>(GetParam());
  Dataset ds = MakeDataset(variant, /*seed=*/1201 + num_shards);

  EngineOptions reference_options = MakeOptions(variant);
  reference_options.num_threads = 1;
  FusionEngine reference(static_cast<const Dataset*>(&ds), reference_options);
  ASSERT_TRUE(reference.Prepare(ds.labeled_mask()).ok());
  auto expected = reference.RunAll(ShardableLineup());
  ASSERT_TRUE(expected.ok()) << expected.status();

  for (size_t num_threads : {size_t{1}, size_t{2}, size_t{8}}) {
    EngineOptions options = MakeOptions(variant);
    options.num_threads = num_threads;
    auto engine =
        ShardedFusionEngine::Create(ds, ShardingOptions{num_shards}, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
    auto runs = (*engine)->RunAll(ShardableLineup());
    ASSERT_TRUE(runs.ok()) << runs.status();
    ExpectRunsIdentical(*runs, *expected);

    // The router-merged quality equals the unsharded estimate exactly.
    const auto& merged = (*engine)->source_quality();
    const auto& direct = reference.source_quality();
    ASSERT_EQ(merged.size(), direct.size());
    for (size_t s = 0; s < merged.size(); ++s) {
      EXPECT_EQ(merged[s].precision, direct[s].precision);
      EXPECT_EQ(merged[s].recall, direct[s].recall);
      EXPECT_EQ(merged[s].fpr, direct[s].fpr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAndShardCounts, ShardedIdentityTest,
    testing::Combine(testing::Values(Variant::kPlain, Variant::kScoped,
                                     Variant::kClustered),
                     testing::Values(1u, 2u, 4u, 8u)));

/// Both engines apply one streaming policy: the same batches are absorbed
/// and the same ones invalidate the model.
void ExpectSameUpdatePolicy(const ShardedFusionEngine& sharded,
                            const FusionEngine& unsharded) {
  EXPECT_EQ(sharded.updates_applied(), unsharded.updates_applied());
  EXPECT_EQ(sharded.full_invalidations(), unsharded.full_invalidations());
}

/// Streams the suffix of a dataset through both the sharded router and an
/// unsharded engine, batch by batch, and demands byte-identical scores
/// and identical update counters after every batch — including batches
/// that add new sources, new domains, and relabel existing triples.
class ShardedStreamingTest
    : public testing::TestWithParam<std::tuple<Variant, uint32_t>> {};

TEST_P(ShardedStreamingTest, MatchesUnsharded) {
  const Variant variant = std::get<0>(GetParam());
  const uint32_t num_shards = std::get<1>(GetParam());
  const size_t num_threads = variant == Variant::kPlain    ? 1
                             : variant == Variant::kScoped ? 2
                                                           : 8;
  Dataset final_ds = MakeDataset(variant, /*seed=*/1501 + num_shards);
  const TripleId total = static_cast<TripleId>(final_ds.num_triples());
  const TripleId prefix = total / 2;

  auto unsharded_prefix = PrefixDataset(final_ds, prefix);
  ASSERT_TRUE(unsharded_prefix.ok()) << unsharded_prefix.status();
  Dataset unsharded_ds = std::move(*unsharded_prefix);
  EngineOptions options = MakeOptions(variant);
  options.num_threads = num_threads;
  FusionEngine unsharded(&unsharded_ds, options);
  ASSERT_TRUE(unsharded.Prepare(unsharded_ds.labeled_mask()).ok());
  ASSERT_TRUE(unsharded.RunAll(ShardableLineup()).ok());

  auto sharded_prefix = PrefixDataset(final_ds, prefix);
  ASSERT_TRUE(sharded_prefix.ok()) << sharded_prefix.status();
  auto sharded = ShardedFusionEngine::Create(
      *sharded_prefix, ShardingOptions{num_shards}, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_TRUE((*sharded)->Prepare(sharded_prefix->labeled_mask()).ok());
  ASSERT_TRUE((*sharded)->RunAll(ShardableLineup()).ok());

  const TripleId step = (total - prefix + 3) / 4;
  for (TripleId lo = prefix; lo < total; lo += step) {
    const TripleId hi = std::min<TripleId>(lo + step, total);
    ObservationBatch batch = BatchForRange(final_ds, lo, hi);
    ASSERT_TRUE(unsharded.Update(batch).ok());
    Status updated = (*sharded)->Update(batch);
    ASSERT_TRUE(updated.ok()) << updated;
    ExpectSameUpdatePolicy(**sharded, unsharded);

    auto streamed = (*sharded)->RunAll(ShardableLineup());
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    auto expected = unsharded.RunAll(ShardableLineup());
    ASSERT_TRUE(expected.ok()) << expected.status();
    ExpectRunsIdentical(*streamed, *expected);
  }
  EXPECT_EQ((*sharded)->num_triples(), final_ds.num_triples());

  // A hand-built batch: brand-new source, brand-new domain, a relabel of
  // an existing triple, and a new label for a previously unlabeled one.
  ObservationBatch batch;
  batch.observations.push_back(
      {"brand-new-source", {"etc1", "attr", "x1"}, "fresh-domain"});
  batch.observations.push_back(
      {"source-0", {"etc1", "attr", "x1"}, "fresh-domain"});
  batch.observations.push_back(
      {"brand-new-source", final_ds.triple(0),
       std::string(final_ds.domain_name(final_ds.domain(0)))});
  batch.labels.push_back({{"etc1", "attr", "x1"}, true});
  TripleId unlabeled = kInvalidTriple;
  for (TripleId t = 0; t < total; ++t) {
    if (final_ds.label(t) == Label::kUnknown) {
      unlabeled = t;
      break;
    }
  }
  if (unlabeled != kInvalidTriple) {
    batch.labels.push_back({final_ds.triple(unlabeled), false});
  }
  const size_t invalidations = unsharded.full_invalidations();
  ASSERT_TRUE(unsharded.Update(batch).ok());
  Status updated = (*sharded)->Update(batch);
  ASSERT_TRUE(updated.ok()) << updated;
  // The new source invalidates the model on both paths.
  EXPECT_EQ(unsharded.full_invalidations(), invalidations + 1);
  ExpectSameUpdatePolicy(**sharded, unsharded);
  auto streamed = (*sharded)->RunAll(ShardableLineup());
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  auto expected = unsharded.RunAll(ShardableLineup());
  ASSERT_TRUE(expected.ok()) << expected.status();
  ExpectRunsIdentical(*streamed, *expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAndShardCounts, ShardedStreamingTest,
    testing::Combine(testing::Values(Variant::kPlain, Variant::kScoped,
                                     Variant::kClustered),
                     testing::Values(1u, 2u, 4u, 8u)),
    [](const testing::TestParamInfo<std::tuple<Variant, uint32_t>>& info) {
      const Variant variant = std::get<0>(info.param);
      return std::string(variant == Variant::kPlain    ? "Plain"
                         : variant == Variant::kScoped ? "Scoped"
                                                       : "Clustered") +
             "K" + std::to_string(std::get<1>(info.param));
    });

TEST(ShardedServiceTest, PointQueriesMatchUnshardedService) {
  Dataset ds = MakeDataset(Variant::kScoped, /*seed=*/1701);
  EngineOptions options = MakeOptions(Variant::kScoped);

  FusionEngine reference(static_cast<const Dataset*>(&ds), options);
  ASSERT_TRUE(reference.Prepare(ds.labeled_mask()).ok());
  ASSERT_TRUE(reference.PublishSnapshot(ShardableLineup()).ok());
  FusionService reference_service(&reference);

  auto engine =
      ShardedFusionEngine::Create(ds, ShardingOptions{4}, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
  auto published = (*engine)->PublishSnapshot(ShardableLineup());
  ASSERT_TRUE(published.ok()) << published.status();
  ShardedFusionService service(engine->get());
  auto snapshot = service.Acquire();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->get(), published->get());

  auto reference_snapshot = reference_service.Acquire();
  ASSERT_TRUE(reference_snapshot.ok()) << reference_snapshot.status();
  std::vector<TripleId> all(ds.num_triples());
  for (TripleId t = 0; t < all.size(); ++t) all[t] = t;
  for (const MethodSpec& spec : ShardableLineup()) {
    auto sharded_scores = service.ScoreBatch(**snapshot, spec, all);
    ASSERT_TRUE(sharded_scores.ok()) << sharded_scores.status();
    auto expected_scores =
        reference_service.ScoreBatch(**reference_snapshot, spec, all);
    ASSERT_TRUE(expected_scores.ok()) << expected_scores.status();
    for (size_t t = 0; t < all.size(); ++t) {
      ASSERT_EQ((*sharded_scores)[t], (*expected_scores)[t])
          << spec.Name() << " triple " << t;
    }
    // Point reads answer from the same pinned snapshot.
    auto one = service.Score(**snapshot, spec, all.back());
    ASSERT_TRUE(one.ok()) << one.status();
    EXPECT_EQ(*one, (*sharded_scores).back());
  }

  // Ad-hoc observations go to shard 0 but carry global parameters, so the
  // answer equals the unsharded service's.
  AdHocObservation observation;
  observation.providers = {0, 2};
  observation.in_scope = {0, 1, 2, 3};
  auto spec = ParseMethodSpec("precrec-corr");
  ASSERT_TRUE(spec.ok());
  auto sharded_obs = service.ScoreObservation(**snapshot, *spec, observation);
  ASSERT_TRUE(sharded_obs.ok()) << sharded_obs.status();
  auto expected_obs = reference_service.ScoreObservation(
      **reference_snapshot, *spec, observation);
  ASSERT_TRUE(expected_obs.ok()) << expected_obs.status();
  EXPECT_EQ(*sharded_obs, *expected_obs);

  // Out-of-range triple ids are rejected, not misrouted.
  EXPECT_EQ(service.Score(**snapshot, *spec,
                          static_cast<TripleId>(ds.num_triples()))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameDoubles(const std::vector<double>& got,
                       const std::vector<double>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(Bits(got[i]), Bits(want[i])) << what << " entry " << i;
  }
}

/// Byte-for-byte equality of two posterior tables.
void ExpectSameTable(const PatternPosteriorTable& got,
                     const PatternPosteriorTable& want,
                     const std::string& what) {
  EXPECT_EQ(Bits(got.alpha), Bits(want.alpha)) << what;
  ASSERT_EQ(got.logs.size(), want.logs.size()) << what;
  for (size_t c = 0; c < got.logs.size(); ++c) {
    const std::string cluster = what + " cluster " + std::to_string(c);
    ExpectSameDoubles(got.logs[c].log_true, want.logs[c].log_true, cluster);
    ExpectSameDoubles(got.logs[c].log_false, want.logs[c].log_false, cluster);
    EXPECT_TRUE(got.logs[c].flags == want.logs[c].flags) << cluster;
  }
  ExpectSameDoubles(got.posterior, want.posterior, what + " posterior");
}

/// The router scores each pattern once per model and every shard tabulates
/// by lookup. After Prepare and after each streamed batch (scope gains
/// included, then a new source that invalidates the model), at K = 1, 2, 4
/// and 8: each shard's tables equal a build from that shard's own
/// ScorePatterns pass, ScoreBatch over every id equals an unsharded
/// engine's RunAll, and a snapshot pinned before the batch answers as it
/// did when pinned.
class ShardedPublishTest : public testing::TestWithParam<uint32_t> {};

TEST_P(ShardedPublishTest, SharedScoringMatchesPerShardScoring) {
  const uint32_t num_shards = GetParam();
  const std::vector<MethodSpec> specs = {*ParseMethodSpec("precrec-corr"),
                                         *ParseMethodSpec("elastic-2")};
  Dataset final_ds = MakeDataset(Variant::kScoped, /*seed=*/2101 + num_shards);
  const TripleId total = static_cast<TripleId>(final_ds.num_triples());
  const TripleId prefix = total / 3;
  EngineOptions options = MakeOptions(Variant::kScoped);
  options.num_threads = 2;

  auto unsharded_prefix = PrefixDataset(final_ds, prefix);
  ASSERT_TRUE(unsharded_prefix.ok()) << unsharded_prefix.status();
  Dataset unsharded_ds = std::move(*unsharded_prefix);
  FusionEngine unsharded(&unsharded_ds, options);
  ASSERT_TRUE(unsharded.Prepare(unsharded_ds.labeled_mask()).ok());

  auto sharded_prefix = PrefixDataset(final_ds, prefix);
  ASSERT_TRUE(sharded_prefix.ok()) << sharded_prefix.status();
  auto engine = ShardedFusionEngine::Create(
      *sharded_prefix, ShardingOptions{num_shards}, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ShardedFusionEngine& sharded = **engine;
  ASSERT_TRUE(sharded.Prepare(sharded_prefix->labeled_mask()).ok());
  ShardedFusionService service(&sharded);

  // Batches: 21 slices of the suffix, then the new source.
  std::vector<ObservationBatch> batches;
  const TripleId step = (total - prefix + 20) / 21;
  for (TripleId lo = prefix; lo < total; lo += step) {
    batches.push_back(
        BatchForRange(final_ds, lo, std::min<TripleId>(lo + step, total)));
  }
  ASSERT_GE(batches.size(), 20u);
  ObservationBatch new_source;
  new_source.observations.push_back(
      {"brand-new-source", final_ds.triple(0),
       std::string(final_ds.domain_name(final_ds.domain(0)))});
  new_source.observations.push_back(
      {"brand-new-source", {"etc1", "attr", "x1"}, "fresh-domain"});
  new_source.labels.push_back({{"etc1", "attr", "x1"}, true});
  batches.push_back(new_source);

  std::shared_ptr<const ShardedSnapshot> pinned;
  std::vector<std::vector<double>> pinned_scores;
  for (size_t b = 0; b <= batches.size(); ++b) {
    const std::string when =
        b == 0 ? "after Prepare" : "after batch " + std::to_string(b);
    SCOPED_TRACE(when);
    if (b > 0) {
      const ObservationBatch& batch = batches[b - 1];
      ASSERT_TRUE(unsharded.Update(batch).ok());
      Status updated = sharded.Update(batch);
      ASSERT_TRUE(updated.ok()) << updated;
    }
    auto published = sharded.PublishSnapshot(specs);
    ASSERT_TRUE(published.ok()) << published.status();

    // Each shard's tables against its own scoring pass.
    for (size_t k = 0; k < sharded.num_shards(); ++k) {
      const FusionSnapshot& shard = *(*published)->shards[k];
      ASSERT_NE(shard.grouping, nullptr);
      MethodContext context;
      context.dataset = sharded.shard_engine(k)->dataset();
      context.options = &shard.options;
      context.quality = &shard.quality;
      context.model = shard.model.get();
      context.grouping = shard.grouping.get();
      for (const MethodSpec& spec : specs) {
        const MethodServing* entry = shard.FindServing(spec.Name());
        ASSERT_NE(entry, nullptr) << spec.Name();
        auto own = BuildMethodServing(context, spec);
        ASSERT_TRUE(own.ok()) << own.status();
        ExpectSameTable(entry->table, (*own)->table,
                        spec.Name() + " shard " + std::to_string(k));
      }
    }

    // ScoreBatch over every id against the unsharded engine's RunAll.
    auto snapshot = service.Acquire();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    EXPECT_EQ(snapshot->get(), published->get());
    std::vector<TripleId> all(sharded.num_triples());
    std::iota(all.begin(), all.end(), TripleId{0});
    auto expected = unsharded.RunAll(specs);
    ASSERT_TRUE(expected.ok()) << expected.status();
    std::vector<std::vector<double>> scores;
    for (size_t i = 0; i < specs.size(); ++i) {
      auto batch_scores = service.ScoreBatch(**snapshot, specs[i], all);
      ASSERT_TRUE(batch_scores.ok()) << batch_scores.status();
      ExpectSameDoubles(*batch_scores, (*expected)[i].scores,
                        specs[i].Name());
      scores.push_back(std::move(*batch_scores));
    }

    // The snapshot pinned before this batch answers as it did.
    if (pinned != nullptr) {
      std::vector<TripleId> old_ids(pinned->num_triples);
      std::iota(old_ids.begin(), old_ids.end(), TripleId{0});
      for (size_t i = 0; i < specs.size(); ++i) {
        auto again = service.ScoreBatch(*pinned, specs[i], old_ids);
        ASSERT_TRUE(again.ok()) << again.status();
        ExpectSameDoubles(*again, pinned_scores[i],
                          "pinned " + specs[i].Name());
      }
    }
    pinned = *snapshot;
    pinned_scores = std::move(scores);
  }
  EXPECT_EQ(sharded.num_triples(), unsharded_ds.num_triples());
  EXPECT_GE(sharded.full_invalidations(), 1u);  // the new source
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedPublishTest,
                         testing::Values(1u, 2u, 4u, 8u));

TEST(ShardedPersistTest, SaveWarmStartRoundTrip) {
  Dataset ds = MakeDataset(Variant::kScoped, /*seed=*/1801);
  EngineOptions options = MakeOptions(Variant::kScoped);
  auto engine = ShardedFusionEngine::Create(ds, ShardingOptions{4}, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
  ASSERT_TRUE((*engine)->PublishSnapshot(ShardableLineup()).ok());
  auto expected = (*engine)->RunAll(ShardableLineup());
  ASSERT_TRUE(expected.ok()) << expected.status();

  const std::string path = TempPath("sharded_roundtrip.snap");
  ASSERT_TRUE((*engine)->SaveSnapshot(path).ok());
  ExpectResavesIdentically(path);

  EngineOptions warm_options;  // everything but num_threads comes from disk
  warm_options.num_threads = 2;
  auto warm = ShardedFusionEngine::WarmStart(path, warm_options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ((*warm)->num_shards(), 4u);
  EXPECT_EQ((*warm)->num_triples(), ds.num_triples());
  EXPECT_TRUE((*warm)->options().model.use_scopes);

  auto runs = (*warm)->RunAll(ShardableLineup());
  ASSERT_TRUE(runs.ok()) << runs.status();
  ExpectRunsIdentical(*runs, *expected);

  // The warm-started engine is immediately servable (serving entries were
  // published before the save).
  ShardedFusionService service(warm->get());
  auto snapshot = service.Acquire();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  auto spec = ParseMethodSpec("precrec-corr");
  ASSERT_TRUE(spec.ok());
  auto score = service.Score(**snapshot, *spec, 0);
  EXPECT_TRUE(score.ok()) << score.status();

  // And it keeps streaming: updates on top of the warm start stay exact.
  ObservationBatch batch;
  batch.observations.push_back(
      {"source-0", {"warm1", "attr", "w1"}, "warmdom"});
  batch.labels.push_back({{"warm1", "attr", "w1"}, true});
  ASSERT_TRUE((*warm)->Update(batch).ok());
  EXPECT_EQ((*warm)->num_triples(), ds.num_triples() + 1);
  EXPECT_TRUE((*warm)->RunAll(ShardableLineup()).ok());
}

TEST(ShardedPersistTest, RefusesCorruptMissingAndMixedVersionManifests) {
  Dataset ds = MakeDataset(Variant::kPlain, /*seed=*/1901);
  EngineOptions options;
  auto engine = ShardedFusionEngine::Create(ds, ShardingOptions{2}, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
  const std::string path = TempPath("sharded_refusals.snap");
  ASSERT_TRUE((*engine)->SaveSnapshot(path).ok());
  ExpectResavesIdentically(path);

  // Baseline: loads fine.
  ASSERT_TRUE(ShardedFusionEngine::WarmStart(path, options).ok());

  // Corrupt one manifest byte: the checksum refuses it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    char byte = 0;
    f.seekg(20);
    f.read(&byte, 1);
    byte ^= 0x5a;
    f.seekp(20);
    f.write(&byte, 1);
  }
  EXPECT_EQ(ShardedFusionEngine::WarmStart(path, options).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE((*engine)->SaveSnapshot(path).ok());  // restore

  // A missing shard file fails the whole warm start.
  ASSERT_EQ(std::remove(ShardSnapshotPath(path, 1).c_str()), 0);
  EXPECT_EQ(ShardedFusionEngine::WarmStart(path, options).status().code(),
            StatusCode::kIoError);
  ASSERT_TRUE((*engine)->SaveSnapshot(path).ok());  // restore

  // A manifest from a different snapshot format version is refused whole.
  auto manifest = ReadShardManifest(path);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  manifest->snapshot_format_version = kSnapshotFormatVersion + 1;
  ASSERT_TRUE(WriteShardManifest(path, *manifest).ok());
  auto mixed = ShardedFusionEngine::WarmStart(path, options);
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedEngineTest, NonShardableMethodsAreRejectedAboveOneShard) {
  Dataset ds = MakeDataset(Variant::kPlain, /*seed=*/2001);
  for (uint32_t num_shards : {2u, 4u}) {
    auto engine = ShardedFusionEngine::Create(
        ds, ShardingOptions{num_shards}, EngineOptions{});
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
    for (const char* name : {"cosine", "3estimates", "ltm"}) {
      auto spec = ParseMethodSpec(name);
      ASSERT_TRUE(spec.ok()) << name;
      EXPECT_EQ((*engine)->Run(*spec).status().code(),
                StatusCode::kUnimplemented)
          << name << " at K=" << num_shards;
      EXPECT_EQ((*engine)->PublishSnapshot({*spec}).status().code(),
                StatusCode::kUnimplemented)
          << name << " at K=" << num_shards;
    }
  }
}

/// The full method table lineup with default parameters, the couplers
/// (cosine, 3-estimates, LTM) included.
std::vector<MethodSpec> FullLineup() {
  std::vector<MethodSpec> specs;
  for (const MethodInfo& method : AllMethods()) {
    MethodSpec spec;
    spec.kind = method.kind;
    specs.push_back(spec);
  }
  return specs;
}

TEST(SingleShardTest, RunAllOverTheFullLineupMatchesFusionEngine) {
  for (Variant variant :
       {Variant::kPlain, Variant::kScoped, Variant::kClustered}) {
    Dataset ds = MakeDataset(variant, /*seed=*/2301);
    const EngineOptions options = MakeOptions(variant);
    FusionEngine reference(static_cast<const Dataset*>(&ds), options);
    ASSERT_TRUE(reference.Prepare(ds.labeled_mask()).ok());
    auto expected = reference.RunAll(FullLineup());
    ASSERT_TRUE(expected.ok()) << expected.status();

    auto engine = ShardedFusionEngine::Create(ds, ShardingOptions{1}, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
    auto runs = (*engine)->RunAll(FullLineup());
    ASSERT_TRUE(runs.ok()) << runs.status();
    ExpectRunsIdentical(*runs, *expected);
  }
}

/// Publishes `specs` on a K=1 engine warm-started from `path` and checks
/// that it serves exactly what `reference` (the engine that saved the
/// file) serves.
void ExpectWarmSingleShardServesLike(
    const std::unique_ptr<ShardedFusionEngine>& warm, FusionEngine* reference,
    const std::vector<MethodSpec>& specs) {
  ASSERT_EQ(warm->num_shards(), 1u);
  ASSERT_EQ(warm->num_triples(), reference->dataset()->num_triples());
  auto runs = warm->RunAll(specs);
  ASSERT_TRUE(runs.ok()) << runs.status();
  auto expected = reference->RunAll(specs);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ExpectRunsIdentical(*runs, *expected);

  // Immediately servable: the saved serving entries are adopted as-is.
  ShardedFusionService service(warm.get());
  FusionService reference_service(reference);
  auto snapshot = service.Acquire();
  auto reference_snapshot = reference_service.Acquire();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_TRUE(reference_snapshot.ok()) << reference_snapshot.status();
  std::vector<TripleId> all(warm->num_triples());
  std::iota(all.begin(), all.end(), TripleId{0});
  for (const MethodSpec& spec : specs) {
    auto served = service.ScoreBatch(**snapshot, spec, all);
    ASSERT_TRUE(served.ok()) << served.status();
    auto expected_scores =
        reference_service.ScoreBatch(**reference_snapshot, spec, all);
    ASSERT_TRUE(expected_scores.ok()) << expected_scores.status();
    ASSERT_EQ(*served, *expected_scores) << spec.Name();
  }
  AdHocObservation observation;
  observation.providers = {0, 2};
  observation.in_scope = {0, 1, 2, 3};
  auto served =
      service.ScoreObservation(**snapshot, specs.back(), observation);
  ASSERT_TRUE(served.ok()) << served.status();
  auto expected_obs = reference_service.ScoreObservation(
      **reference_snapshot, specs.back(), observation);
  ASSERT_TRUE(expected_obs.ok()) << expected_obs.status();
  EXPECT_EQ(*served, *expected_obs);
}

TEST(SingleShardTest, FusionEngineSnapshotWarmStartsOneShard) {
  Dataset ds = MakeDataset(Variant::kScoped, /*seed=*/2401);
  FusionEngine reference(static_cast<const Dataset*>(&ds),
                         MakeOptions(Variant::kScoped));
  ASSERT_TRUE(reference.Prepare(ds.labeled_mask()).ok());
  const std::vector<MethodSpec> specs = ShardableLineup();
  ASSERT_TRUE(reference.PublishSnapshot(specs).ok());
  const std::string path = TempPath("single_from_engine.snap");
  ASSERT_TRUE(reference.SaveSnapshot(path).ok());
  ExpectResavesIdentically(path);

  EngineOptions warm_options;  // everything but num_threads comes from disk
  warm_options.num_threads = 2;
  auto warm = ShardedFusionEngine::WarmStart(path, warm_options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE((*warm)->options().model.use_scopes);
  ExpectWarmSingleShardServesLike(*warm, &reference, specs);

  // The caller's LoadOptions reach the snapshot load: zero-copy attach.
  LoadOptions attach;
  attach.attach = AttachMode::kMmap;
  auto attached = ShardedFusionEngine::WarmStart(path, warm_options, attach);
  ASSERT_TRUE(attached.ok()) << attached.status();
  EXPECT_GT((*attached)->corpus().shard(0).MemoryStats().mapped_bytes, 0u);
  ExpectWarmSingleShardServesLike(*attached, &reference, specs);
}

TEST(SingleShardTest, SaveWritesOnePlainSnapshotFile) {
  Dataset ds = MakeDataset(Variant::kClustered, /*seed=*/2501);
  const EngineOptions options = MakeOptions(Variant::kClustered);
  auto engine = ShardedFusionEngine::Create(ds, ShardingOptions{1}, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
  const std::vector<MethodSpec> specs = ShardableLineup();
  ASSERT_TRUE((*engine)->PublishSnapshot(specs).ok());
  auto expected = (*engine)->RunAll(specs);
  ASSERT_TRUE(expected.ok()) << expected.status();
  const std::string path = TempPath("single_plain.snap");
  ASSERT_TRUE((*engine)->SaveSnapshot(path).ok());
  ExpectResavesIdentically(path);

  // No manifest and no shard files: one file in the plain format.
  EXPECT_FALSE(IsShardManifest(path));
  EXPECT_FALSE(std::ifstream(ShardSnapshotPath(path, 0)).good());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->dataset->num_triples(), ds.num_triples());
  EXPECT_EQ(loaded->snapshot->serving.size(), specs.size());

  FusionEngine plain(loaded->dataset.get(), EngineOptions{});
  ASSERT_TRUE(plain.WarmStart(*loaded).ok());
  auto runs = plain.RunAll(specs);
  ASSERT_TRUE(runs.ok()) << runs.status();
  ExpectRunsIdentical(*runs, *expected);
}

TEST(SingleShardTest, SavedFileIsByteIdenticalToFusionEngines) {
  // Every K splits the thread budget the same way and the file carries no
  // thread count, so a K=1 engine at 8 threads saves exactly the bytes of
  // a plain FusionEngine at 1 thread.
  Dataset ds = MakeDataset(Variant::kScoped, /*seed=*/2551);
  EngineOptions options = MakeOptions(Variant::kScoped);
  const std::vector<MethodSpec> specs = ShardableLineup();

  options.num_threads = 1;
  FusionEngine plain(static_cast<const Dataset*>(&ds), options);
  ASSERT_TRUE(plain.Prepare(ds.labeled_mask()).ok());
  ASSERT_TRUE(plain.PublishSnapshot(specs).ok());
  const std::string plain_path = TempPath("single_bytes_plain.snap");
  ASSERT_TRUE(plain.SaveSnapshot(plain_path).ok());

  options.num_threads = 8;
  auto sharded = ShardedFusionEngine::Create(ds, ShardingOptions{1}, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_TRUE((*sharded)->Prepare(ds.labeled_mask()).ok());
  ASSERT_TRUE((*sharded)->PublishSnapshot(specs).ok());
  const std::string sharded_path = TempPath("single_bytes_sharded.snap");
  ASSERT_TRUE((*sharded)->SaveSnapshot(sharded_path).ok());
  ExpectResavesIdentically(sharded_path);

  const std::string plain_bytes = ReadBytes(plain_path);
  ASSERT_GT(plain_bytes.size(), 64u);
  EXPECT_TRUE(ReadBytes(sharded_path) == plain_bytes)
      << "snapshot bytes differ";
}

TEST(SingleShardTest, OneShardManifestFromEarlierSavesStillWarmStarts) {
  // Earlier releases saved K=1 like any K: `<path>.shard0` plus a FUSRMANI
  // manifest with the identity id map. Write exactly that layout.
  Dataset ds = MakeDataset(Variant::kScoped, /*seed=*/2601);
  FusionEngine reference(static_cast<const Dataset*>(&ds),
                         MakeOptions(Variant::kScoped));
  ASSERT_TRUE(reference.Prepare(ds.labeled_mask()).ok());
  const std::vector<MethodSpec> specs = ShardableLineup();
  ASSERT_TRUE(reference.PublishSnapshot(specs).ok());
  const std::string path = TempPath("single_manifest.snap");
  ASSERT_TRUE(reference.SaveSnapshot(ShardSnapshotPath(path, 0)).ok());
  ShardManifest manifest;
  manifest.snapshot_format_version = kSnapshotFormatVersion;
  manifest.sharding = ShardingOptions{1};
  manifest.num_triples = ds.num_triples();
  manifest.num_sources = ds.num_sources();
  manifest.local_to_global.emplace_back(ds.num_triples());
  std::iota(manifest.local_to_global[0].begin(),
            manifest.local_to_global[0].end(), TripleId{0});
  ASSERT_TRUE(WriteShardManifest(path, manifest).ok());
  ASSERT_TRUE(IsShardManifest(path));
  ExpectManifestRewritesIdentically(path);

  auto warm = ShardedFusionEngine::WarmStart(path, EngineOptions{});
  ASSERT_TRUE(warm.ok()) << warm.status();
  ExpectWarmSingleShardServesLike(*warm, &reference, specs);

  // A 1-shard manifest whose id map is not the identity is refused.
  std::swap(manifest.local_to_global[0][0], manifest.local_to_global[0][1]);
  ASSERT_TRUE(WriteShardManifest(path, manifest).ok());
  EXPECT_EQ(ShardedFusionEngine::WarmStart(path, EngineOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedEngineTest, SketchClusteringIsRejected) {
  Dataset ds = MakeDataset(Variant::kClustered, /*seed=*/2101);
  EngineOptions options = MakeOptions(Variant::kClustered);
  options.model.clustering.use_sketch = true;
  auto engine = ShardedFusionEngine::Create(ds, ShardingOptions{2}, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
  auto spec = ParseMethodSpec("precrec-corr");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ((*engine)->Run(*spec).status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ((*engine)->PublishSnapshot({*spec}).status().code(),
            StatusCode::kUnimplemented);
}

TEST(ShardedEngineTest, ValidatesShardingOptions) {
  Dataset ds = MakeDataset(Variant::kPlain, /*seed=*/2201);
  EXPECT_FALSE(
      ShardedFusionEngine::Create(ds, ShardingOptions{0}, EngineOptions{})
          .ok());
  EXPECT_FALSE(
      ShardedFusionEngine::Create(ds, ShardingOptions{2000}, EngineOptions{})
          .ok());
}

// Two distinct triples whose fields, joined by 0x1f, read the same bytes.
// Each shard finds a triple through its own dictionary, which compares
// field by field, so the router must keep them apart.
const Triple kJoinedLeft{"a\x1f" "b", "c", "d"};
const Triple kJoinedRight{"a", "b\x1f" "c", "d"};

/// Two domain names that hash to different shards at `num_shards`, the
/// first not to shard 0 (so a label, which probes the shards in order,
/// finds its triples only past shard 0).
std::pair<std::string, std::string> DomainsOnTwoShards(uint32_t num_shards) {
  const ShardingOptions sharding{num_shards};
  std::string first;
  for (int i = 0;; ++i) {
    std::string name = "collide-" + std::to_string(i);
    const uint32_t shard = ShardOfDomain(name, sharding);
    if (first.empty()) {
      if (shard != 0) first = name;
    } else if (shard != ShardOfDomain(first, sharding)) {
      return {first, name};
    }
  }
}

/// Observations of `triple` in `domain` by two sources, plus its label.
void AddObservedTriple(const Triple& triple, const std::string& domain,
                       const char* source_a, const char* source_b,
                       bool is_true, ObservationBatch* batch) {
  batch->observations.push_back({source_a, triple, domain});
  batch->observations.push_back({source_b, triple, domain});
  batch->labels.push_back({triple, is_true});
}

TEST(ShardedCollisionTest, PartitionKeepsJoinedFieldCollisionsApart) {
  for (uint32_t num_shards : {2u, 4u}) {
    SCOPED_TRACE(num_shards);
    Dataset ds = MakeDataset(Variant::kScoped, /*seed=*/2301 + num_shards);
    const auto [left_domain, right_domain] = DomainsOnTwoShards(num_shards);
    ObservationBatch batch;
    AddObservedTriple(kJoinedLeft, left_domain, "source-0", "source-1",
                      /*is_true=*/true, &batch);
    AddObservedTriple(kJoinedRight, right_domain, "source-1", "source-2",
                      /*is_true=*/false, &batch);
    DatasetDelta delta;
    ASSERT_TRUE(ds.ApplyBatch(batch, &delta).ok());
    ASSERT_EQ(delta.new_triples.size(), 2u);

    const EngineOptions options = MakeOptions(Variant::kScoped);
    FusionEngine reference(static_cast<const Dataset*>(&ds), options);
    ASSERT_TRUE(reference.Prepare(ds.labeled_mask()).ok());
    auto expected = reference.RunAll(ShardableLineup());
    ASSERT_TRUE(expected.ok()) << expected.status();

    auto engine = ShardedFusionEngine::Create(
        ds, ShardingOptions{num_shards}, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
    auto runs = (*engine)->RunAll(ShardableLineup());
    ASSERT_TRUE(runs.ok()) << runs.status();
    ExpectRunsIdentical(*runs, *expected);

    // The saved shards hold both triples, and warm start accepts them.
    const std::string path =
        TempPath("collision_k" + std::to_string(num_shards) + ".manifest");
    ASSERT_TRUE((*engine)->SaveSnapshot(path).ok());
    auto warm = ShardedFusionEngine::WarmStart(path, options);
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ((*warm)->num_triples(), ds.num_triples());
  }
}

TEST(ShardedCollisionTest, StreamedCollisionOnAnotherShardIsANewTriple) {
  for (uint32_t num_shards : {2u, 4u}) {
    SCOPED_TRACE(num_shards);
    Dataset ds = MakeDataset(Variant::kScoped, /*seed=*/2401 + num_shards);
    const auto [left_domain, right_domain] = DomainsOnTwoShards(num_shards);
    ObservationBatch first;
    AddObservedTriple(kJoinedLeft, left_domain, "source-0", "source-1",
                      /*is_true=*/true, &first);
    DatasetDelta delta;
    ASSERT_TRUE(ds.ApplyBatch(first, &delta).ok());

    const EngineOptions options = MakeOptions(Variant::kScoped);
    auto sharded =
        ShardedFusionEngine::Create(ds, ShardingOptions{num_shards}, options);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    ASSERT_TRUE((*sharded)->Prepare(ds.labeled_mask()).ok());
    FusionEngine unsharded(&ds, options);
    ASSERT_TRUE(unsharded.Prepare(ds.labeled_mask()).ok());

    ObservationBatch second;
    AddObservedTriple(kJoinedRight, right_domain, "source-1", "source-2",
                      /*is_true=*/false, &second);
    // An existing triple observed under another shard's domain is found on
    // its own shard (its first mention fixed the domain), and so is its
    // relabel.
    second.observations.push_back({"source-2", kJoinedLeft, right_domain});
    second.labels.push_back({kJoinedLeft, false});
    ASSERT_TRUE(unsharded.Update(second).ok());
    Status updated = (*sharded)->Update(second);
    ASSERT_TRUE(updated.ok()) << updated;
    ExpectSameUpdatePolicy(**sharded, unsharded);
    EXPECT_EQ((*sharded)->num_triples(), ds.num_triples());

    auto streamed = (*sharded)->RunAll(ShardableLineup());
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    auto expected = unsharded.RunAll(ShardableLineup());
    ASSERT_TRUE(expected.ok()) << expected.status();
    ExpectRunsIdentical(*streamed, *expected);
  }
}

/// A finalized one-source shard dataset providing `triples` in order.
std::unique_ptr<Dataset> ShardOf(const std::vector<Triple>& triples) {
  auto ds = std::make_unique<Dataset>();
  ds->AddSource("s");
  for (const Triple& triple : triples) ds->Provide(0, ds->AddTriple(triple));
  EXPECT_TRUE(ds->Finalize(/*allow_empty=*/true).ok());
  return ds;
}

StatusOr<ShardedCorpus> TwoShards(
    const std::vector<Triple>& shard0, const std::vector<Triple>& shard1,
    const std::vector<std::vector<TripleId>>& local_to_global) {
  std::vector<std::unique_ptr<Dataset>> shards;
  shards.push_back(ShardOf(shard0));
  shards.push_back(ShardOf(shard1));
  return ShardedCorpus::FromShards(std::move(shards), local_to_global,
                                   ShardingOptions{2});
}

TEST(ShardedCorpusTest, FromShardsRejectsInconsistentShards) {
  const Triple x{"x", "p", "o"};
  const Triple y{"y", "p", "o"};
  const Triple z{"z", "p", "o"};

  auto valid = TwoShards({x, z}, {y}, {{0, 2}, {1}});
  ASSERT_TRUE(valid.ok()) << valid.status();
  EXPECT_EQ(valid->num_triples(), 3u);
  EXPECT_EQ(valid->Locate(1).shard, 1u);
  EXPECT_EQ(valid->Locate(2).local, 1u);
  EXPECT_EQ(valid->GlobalOf(0, 1), 2u);

  // Triples that only collide once their fields are joined are distinct.
  EXPECT_TRUE(TwoShards({kJoinedLeft}, {kJoinedRight}, {{0}, {1}}).ok());

  // One triple held by two shards.
  EXPECT_EQ(TwoShards({x, y}, {z, x}, {{0, 1}, {2, 3}}).status().code(),
            StatusCode::kInvalidArgument);
  // A map that is not a bijection onto [0, 3): id 1 twice, or out of range.
  EXPECT_EQ(TwoShards({x, z}, {y}, {{0, 1}, {1}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TwoShards({x, z}, {y}, {{0, 3}, {1}}).status().code(),
            StatusCode::kInvalidArgument);
  // A bijection, but shard 0's map is not increasing.
  EXPECT_EQ(TwoShards({x, z}, {y}, {{2, 0}, {1}}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardMapTest, SnapshotSharesChunksAndRoutesExactly) {
  ShardMapBuilder builder;
  for (size_t i = 0; i < 3 * ShardMap::kChunkSize / 2; ++i) {
    builder.Append({static_cast<uint32_t>(i % 5),
                    static_cast<TripleId>(i / 5)});
  }
  auto snapshot = builder.Snapshot();
  ASSERT_EQ(snapshot->size(), builder.size());
  // Keep appending after the snapshot: the published view is unaffected.
  const size_t frozen = snapshot->size();
  for (size_t i = 0; i < ShardMap::kChunkSize; ++i) {
    builder.Append({7, static_cast<TripleId>(i)});
  }
  EXPECT_EQ(snapshot->size(), frozen);
  for (size_t i = 0; i < frozen; ++i) {
    EXPECT_EQ(snapshot->Get(i).shard, i % 5);
    EXPECT_EQ(snapshot->Get(i).local, static_cast<TripleId>(i / 5));
  }
}

}  // namespace
}  // namespace fuser
