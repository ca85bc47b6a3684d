// Memory-layout benchmark for the columnar arena-backed Dataset and the
// zero-copy mmap snapshot attach path.
//
// Prints one JSON object (bench_util.h) so CI and scripts/check_bench.py
// can gate the layout:
//
//   ./bench_memory [full_triples] [attach_triples]
//
// Part A (full_triples, default ~1M realized): measures bytes/triple of
// the columnar dataset against an honestly built "legacy" mirror (the
// pre-columnar layout: std::string tables, an unordered_map keyed by
// owning Triples — the double-store — and vector<vector<...>> adjacency),
// times LoadSnapshot in kCopy vs kMmap mode, and asserts byte-identical
// scores between engines running over an owned dataset and an attached
// one — across plain / scoped / clustered model configs and after a
// post-attach ApplyBatch (copy-on-write promotion). It also reports the
// pattern grouping footprint per triple of two clusterings: the clustered
// config's (one large cluster, so one u32 id column) and a stricter one
// that leaves one-source clusters, whose bit columns keep it small.
//
// Part B (attach_triples, default ~10M realized): saves a quality-only
// snapshot at scale and times the mmap attach + WarmStart path; the
// acceptance bar is time-to-servable <= 10ms regardless of corpus size.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/engine.h"
#include "core/pattern_pipeline.h"
#include "model/dataset.h"
#include "persist/snapshot_io.h"
#include "synth/generator.h"

namespace fuser {
namespace {

size_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long pages = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

size_t PeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
}

/// The pre-columnar storage layout, built faithfully from a finalized
/// dataset: owning string tables, owning Triples stored twice (once in
/// the id->triple vector, once as the index key — the double-store this
/// PR removed), and one heap vector per adjacency row.
struct LegacyMirror {
  std::vector<std::string> source_names;
  std::vector<std::string> domain_names;
  std::vector<Triple> triples;
  std::unordered_map<Triple, TripleId, TripleHash> index;
  std::vector<DomainId> domains;
  std::vector<uint8_t> labels;
  std::vector<std::vector<SourceId>> providers;
  std::vector<std::vector<SourceId>> domain_sources;
  std::vector<std::vector<TripleId>> domain_triples;
};

void FillLegacyMirror(const Dataset& ds, LegacyMirror* legacy) {
  const size_t m = ds.num_triples();
  legacy->source_names.reserve(ds.num_sources());
  for (SourceId s = 0; s < ds.num_sources(); ++s) {
    legacy->source_names.emplace_back(ds.source_name(s));
  }
  legacy->domain_names.reserve(ds.num_domains());
  for (DomainId d = 0; d < ds.num_domains(); ++d) {
    legacy->domain_names.emplace_back(ds.domain_name(d));
  }
  legacy->triples.reserve(m);
  legacy->index.reserve(m);
  legacy->domains.reserve(m);
  legacy->labels.reserve(m);
  legacy->providers.resize(m);
  for (TripleId t = 0; t < m; ++t) {
    legacy->triples.emplace_back(ds.triple(t));
    legacy->index.emplace(legacy->triples.back(), t);
    legacy->domains.push_back(ds.domain(t));
    legacy->labels.push_back(static_cast<uint8_t>(ds.label(t)));
    legacy->providers[t] = ds.providers(t).ToVector();
  }
  legacy->domain_sources.resize(ds.num_domains());
  legacy->domain_triples.resize(ds.num_domains());
  for (DomainId d = 0; d < ds.num_domains(); ++d) {
    legacy->domain_sources[d] = ds.domain_sources_table().row(d).ToVector();
    legacy->domain_triples[d] = ds.domain_triples_table().row(d).ToVector();
  }
}

std::vector<MethodSpec> IdentityLineup() {
  std::vector<MethodSpec> specs;
  for (const char* name : {"precrec", "precrec-corr"}) {
    auto spec = ParseMethodSpec(name);
    FUSER_CHECK(spec.ok()) << spec.status();
    specs.push_back(*spec);
  }
  return specs;
}

/// RunAll over the identity lineup with the given options; aborts on any
/// engine error so a silent setup failure can't pass as "identical".
std::vector<FusionRun> ScoresOf(const Dataset& ds,
                                   const EngineOptions& options) {
  FusionEngine engine(static_cast<const Dataset*>(&ds), options);
  FUSER_CHECK(engine.Prepare(ds.labeled_mask()).ok());
  auto runs = engine.RunAll(IdentityLineup());
  FUSER_CHECK(runs.ok()) << runs.status();
  return std::move(*runs);
}

/// Bytes per triple of the pattern grouping an engine with `options`
/// builds over `ds`: its id columns, bit columns and distinct patterns.
/// `singletons`, when set, receives the number of one-source clusters.
double GroupingBytesPerTriple(const Dataset& ds, const EngineOptions& options,
                              size_t* singletons = nullptr) {
  FusionEngine engine(&ds, options);
  FUSER_CHECK(engine.Prepare(ds.labeled_mask()).ok());
  auto grouping = engine.GetPatternGrouping();
  FUSER_CHECK(grouping.ok()) << grouping.status();
  size_t bytes = 0;
  for (size_t c = 0; c < (*grouping)->num_clusters(); ++c) {
    const PatternColumn& column = (*grouping)->columns[c];
    if (singletons != nullptr && column.singleton) ++*singletons;
    bytes += column.ids.capacity() * sizeof(uint32_t) +
             (column.provided.num_words() + column.in_scope.num_words()) *
                 sizeof(uint64_t) +
             (*grouping)->distinct[c].size() * sizeof(PatternKey);
  }
  return static_cast<double>(bytes) / static_cast<double>(ds.num_triples());
}

bool SameScores(const std::vector<FusionRun>& a,
                const std::vector<FusionRun>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].scores != b[i].scores) return false;
  }
  return true;
}

/// A streaming batch touching every mutable structure: a new source, new
/// observations of existing triples, one brand-new triple, and a label.
ObservationBatch PromotionBatch(const Dataset& ds) {
  ObservationBatch batch;
  batch.observations.reserve(17);
  const std::string source = "stream-src";
  for (TripleId t = 0; t < 16 && t < ds.num_triples(); ++t) {
    batch.observations.push_back(
        {source, Triple(ds.triple(t)),
         std::string(ds.domain_name(ds.domain(t)))});
  }
  const Triple fresh{"bench-memory-new-subject", "predicate", "object"};
  batch.observations.push_back(
      {source, fresh, std::string(ds.domain_name(ds.domain(0)))});
  batch.labels.push_back({fresh, /*is_true=*/true});
  return batch;
}

SyntheticConfig ConfigFor(size_t num_triples, uint64_t seed) {
  SyntheticConfig config = MakeIndependentConfig(
      /*num_sources=*/10, num_triples, /*fraction_true=*/0.4,
      /*precision=*/0.7, /*recall=*/0.45, seed);
  config.groups_true = {{{0, 1, 2}, 0.85}};
  config.groups_false = {{{3, 4, 5}, 0.8}};
  config.num_domains = 16;
  return config;
}

/// Progress note on stderr (stdout carries only the JSON result); the
/// full-scale run takes minutes, so each phase reports as it lands.
void Note(const char* phase, double seconds) {
  std::fprintf(stderr, "[bench_memory] %-28s %8.2fs\n", phase, seconds);
}

int Main(int argc, char** argv) {
  // Universe sizes; triples nobody provides are dropped, so the realized
  // dataset is ~80% of this (1.25M -> ~1M, 12.5M -> ~10M).
  size_t full_triples =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1250000;
  size_t attach_triples =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 12500000;
  WallTimer phase_timer;

  // ---- Part A: layout + attach identity at full_triples ----

  auto dataset_or = GenerateSynthetic(ConfigFor(full_triples, /*seed=*/101));
  FUSER_CHECK(dataset_or.ok()) << dataset_or.status();
  Dataset ds = std::move(*dataset_or);
  Note("generate(full)", phase_timer.ElapsedSeconds());
  phase_timer.Reset();
  const size_t m = ds.num_triples();

  const DatasetMemoryStats stats = ds.MemoryStats();
  const double bytes_per_triple =
      static_cast<double>(stats.total_bytes) / static_cast<double>(m);

  // Legacy mirror, measured as the RSS the process grows by while
  // building it (the mirror's heap is all fresh allocation on top of a
  // warmed-up process).
  double legacy_bytes_per_triple = 0.0;
  {
    auto legacy = std::make_unique<LegacyMirror>();
    const size_t rss_before = CurrentRssBytes();
    FillLegacyMirror(ds, legacy.get());
    const size_t rss_after = CurrentRssBytes();
    const size_t legacy_bytes =
        rss_after > rss_before ? rss_after - rss_before : 0;
    legacy_bytes_per_triple =
        static_cast<double>(legacy_bytes) / static_cast<double>(m);
  }
  Note("legacy mirror", phase_timer.ElapsedSeconds());
  phase_timer.Reset();
  const double memory_reduction =
      bytes_per_triple > 0.0 ? legacy_bytes_per_triple / bytes_per_triple
                             : 0.0;

  // The construction replayed by phase: every AddTriple (string and
  // triple interning), then every Provide (output bits), then Finalize
  // (the derived indexes). Labels are set untimed between the phases.
  double build_add_seconds = 0.0;
  double build_provide_seconds = 0.0;
  double finalize_seconds = 0.0;
  {
    Dataset rebuilt;
    for (SourceId s = 0; s < ds.num_sources(); ++s) {
      rebuilt.AddSource(ds.source_name(s));
    }
    WallTimer timer;
    for (TripleId t = 0; t < m; ++t) {
      FUSER_CHECK_EQ(
          rebuilt.AddTriple(ds.triple(t), ds.domain_name(ds.domain(t))), t);
    }
    build_add_seconds = timer.ElapsedSeconds();
    for (TripleId t = 0; t < m; ++t) {
      if (ds.label(t) != Label::kUnknown) {
        rebuilt.SetLabel(t, ds.label(t) == Label::kTrue);
      }
    }
    timer.Reset();
    for (TripleId t = 0; t < m; ++t) {
      for (SourceId s : ds.providers(t)) rebuilt.Provide(s, t);
    }
    build_provide_seconds = timer.ElapsedSeconds();
    timer.Reset();
    FUSER_CHECK(rebuilt.Finalize().ok());
    finalize_seconds = timer.ElapsedSeconds();
    FUSER_CHECK_EQ(rebuilt.ContentFingerprint(), ds.ContentFingerprint());
  }

  Note("construction replay", phase_timer.ElapsedSeconds());
  phase_timer.Reset();

  // Persist a fully served snapshot, then race the two load modes.
  EngineOptions options;
  std::vector<MethodSpec> serving_specs;
  serving_specs.push_back(*ParseMethodSpec("precrec-corr"));
  serving_specs.push_back(*ParseMethodSpec("elastic-3"));
  FusionEngine original(static_cast<const Dataset*>(&ds), options);
  FUSER_CHECK(original.Prepare(ds.labeled_mask()).ok());
  FUSER_CHECK(original.PublishSnapshot(serving_specs).ok());
  const std::string path = "bench_memory.tmp.snap";
  FUSER_CHECK(original.SaveSnapshot(path).ok());

  Note("prepare+publish+save", phase_timer.ElapsedSeconds());
  phase_timer.Reset();

  double copy_load_seconds = 0.0;
  double mmap_attach_seconds = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer timer;
    auto loaded = LoadSnapshot(path, LoadOptions{AttachMode::kCopy});
    const double copy_s = timer.ElapsedSeconds();
    FUSER_CHECK(loaded.ok()) << loaded.status();
    timer.Reset();
    auto attached = LoadSnapshot(path, LoadOptions{AttachMode::kMmap});
    const double mmap_s = timer.ElapsedSeconds();
    FUSER_CHECK(attached.ok()) << attached.status();
    if (rep == 0 || copy_s < copy_load_seconds) copy_load_seconds = copy_s;
    if (rep == 0 || mmap_s < mmap_attach_seconds) mmap_attach_seconds = mmap_s;
  }
  const double attach_speedup =
      mmap_attach_seconds > 0.0 ? copy_load_seconds / mmap_attach_seconds
                                : 0.0;

  Note("load race", phase_timer.ElapsedSeconds());
  phase_timer.Reset();

  // Identity gate: owned (kCopy) vs attached (kMmap) datasets must score
  // byte-identically under every model configuration...
  bool identical = true;
  auto copy_loaded = LoadSnapshot(path, LoadOptions{AttachMode::kCopy});
  auto mmap_loaded = LoadSnapshot(path, LoadOptions{AttachMode::kMmap});
  FUSER_CHECK(copy_loaded.ok() && mmap_loaded.ok());
  EngineOptions clustered;
  clustered.model.enable_clustering = true;
  {
    EngineOptions plain;
    EngineOptions scoped;
    scoped.model.use_scopes = true;
    for (const EngineOptions& opts : {plain, scoped, clustered}) {
      if (!SameScores(ScoresOf(*copy_loaded->dataset, opts),
                      ScoresOf(*mmap_loaded->dataset, opts))) {
        identical = false;
      }
    }
  }
  Note("identity (3 configs)", phase_timer.ElapsedSeconds());
  phase_timer.Reset();

  // ...and stay identical after a post-attach ApplyBatch, which must
  // promote the mapped columns to owned memory (copy-on-write) without
  // perturbing a single byte of the existing state.
  {
    const ObservationBatch batch = PromotionBatch(*copy_loaded->dataset);
    const size_t owned_before = mmap_loaded->dataset->MemoryStats().owned_bytes;
    DatasetDelta copy_delta, mmap_delta;
    FUSER_CHECK(copy_loaded->dataset->ApplyBatch(batch, &copy_delta).ok());
    FUSER_CHECK(mmap_loaded->dataset->ApplyBatch(batch, &mmap_delta).ok());
    // ApplyBatch promotes exactly the structures it grows, so the dataset
    // stays attached but its owned footprint must rise.
    const DatasetMemoryStats after = mmap_loaded->dataset->MemoryStats();
    FUSER_CHECK(std::strncmp(after.storage_mode, "mmap", 4) == 0 &&
                after.owned_bytes > owned_before)
        << "ApplyBatch on an attached dataset did not promote storage";
    if (!SameScores(ScoresOf(*copy_loaded->dataset, options),
                    ScoresOf(*mmap_loaded->dataset, options))) {
      identical = false;
    }
  }
  std::remove(path.c_str());
  Note("identity (post-batch)", phase_timer.ElapsedSeconds());
  phase_timer.Reset();

  const double grouping_bytes_per_triple =
      GroupingBytesPerTriple(ds, clustered);
  // The clustered config puts (nearly) every source into one cluster. A
  // stricter threshold keeps only the two correlated groups together and
  // leaves the independent sources alone, so this footprint includes
  // one-source bit columns.
  EngineOptions strict = clustered;
  strict.model.clustering.correlation_threshold = 0.5;
  size_t singleton_clusters = 0;
  const double grouping_bytes_per_triple_singletons =
      GroupingBytesPerTriple(ds, strict, &singleton_clusters);
  FUSER_CHECK_GT(singleton_clusters, 0u)
      << "the strict clustering left no one-source cluster";
  Note("grouping footprint", phase_timer.ElapsedSeconds());
  phase_timer.Reset();

  // ---- Part B: attach latency at scale ----

  size_t attach_realized = 0;
  double attach_ms_at_scale = 0.0;
  {
    auto big_or = GenerateSynthetic(ConfigFor(attach_triples, /*seed=*/202));
    FUSER_CHECK(big_or.ok()) << big_or.status();
    Dataset big = std::move(*big_or);
    Note("generate(attach)", phase_timer.ElapsedSeconds());
    phase_timer.Reset();
    attach_realized = big.num_triples();
    FusionEngine engine(static_cast<const Dataset*>(&big), options);
    FUSER_CHECK(engine.Prepare(big.labeled_mask()).ok());
    FUSER_CHECK(engine.PublishSnapshot({}).ok());
    const std::string big_path = "bench_memory_scale.tmp.snap";
    FUSER_CHECK(engine.SaveSnapshot(big_path).ok());
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer timer;
      auto loaded = LoadSnapshot(big_path, LoadOptions{AttachMode::kMmap});
      const double load_ms = timer.ElapsedMillis();
      FUSER_CHECK(loaded.ok()) << loaded.status();
      FusionEngine warm(loaded->dataset.get(), options);
      FUSER_CHECK(warm.WarmStart(*loaded).ok());
      const double ms = timer.ElapsedMillis();
      std::fprintf(stderr,
                   "[bench_memory]   attach rep %d: load %.3fms, "
                   "warm-start %.3fms\n",
                   rep, load_ms, ms - load_ms);
      if (rep == 0 || ms < attach_ms_at_scale) attach_ms_at_scale = ms;
    }
    std::remove(big_path.c_str());
    Note("attach race", phase_timer.ElapsedSeconds());
  }
  const bool attach_ms_bound_ok = attach_ms_at_scale <= 10.0;

  bench::JsonLine("memory")
      .Int("num_triples", m)
      .Int("num_sources", ds.num_sources())
      .Num("bytes_per_triple", bytes_per_triple, 1)
      .Num("legacy_bytes_per_triple", legacy_bytes_per_triple, 1)
      .Num("memory_reduction", memory_reduction, 2)
      .Int("arena_bytes", stats.arena_bytes)
      .Int("csr_bytes", stats.csr_bytes)
      .Num("grouping_bytes_per_triple", grouping_bytes_per_triple, 2)
      .Num("grouping_bytes_per_triple_singletons",
           grouping_bytes_per_triple_singletons, 2)
      .Num("build_add_seconds", build_add_seconds)
      .Num("build_provide_seconds", build_provide_seconds)
      .Num("finalize_seconds", finalize_seconds)
      .Num("copy_load_seconds", copy_load_seconds)
      .Num("mmap_attach_seconds", mmap_attach_seconds)
      .Num("attach_speedup", attach_speedup, 1)
      .Int("attach_triples", attach_realized)
      .Num("attach_ms_at_scale", attach_ms_at_scale, 3)
      .Bool("attach_ms_bound_ok", attach_ms_bound_ok)
      .Int("peak_rss_bytes", PeakRssBytes())
      .Bool("scores_identical", identical)
      .Print();
  FUSER_CHECK(identical) << "attached scores diverged from owned scores";
  return 0;
}

}  // namespace
}  // namespace fuser

int main(int argc, char** argv) { return fuser::Main(argc, argv); }
