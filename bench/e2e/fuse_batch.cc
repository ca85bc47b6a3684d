// fuse_batch: the paper's offline truth-finding job, whose runtime the
// paper reports in Fig. 5(b).
//
// A ~1.0M-triple corpus of 48 sources — three positively correlated groups
// on true triples, two on false ones, one complementary (partitioned)
// pair, 64 entity domains, 10% labeled — is built into a Dataset (set-up).
// Each rep then runs a fresh 2-thread FusionEngine through
// Prepare -> GetModel -> GetPatternGrouping -> Run x 5 -> PublishSnapshot.
// core does almost all of the work and net/serving/shard none, so a model,
// grouping or kernel change shows here and nowhere else.
#include <algorithm>
#include <memory>

#include "bench.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "trace.h"

namespace fuser {
namespace e2e {
namespace {

struct MethodStage {
  const char* method;
  const char* span;
};

/// The set-up time is the median of this many Dataset builds (~1.1 s each
/// on a 4-core x86 VM).
constexpr int kSetupBuilds = 7;

constexpr MethodStage kMethods[] = {
    {"union-50", "core.run.union-50"},
    {"precrec", "core.run.precrec"},
    {"precrec-corr", "core.run.precrec-corr"},
    {"aggressive", "core.run.aggressive"},
    {"elastic-2", "core.run.elastic-2"},
};

SyntheticConfig FuseBatchConfig(size_t universe, uint64_t seed) {
  SyntheticConfig config = LadderConfig(
      /*num_sources=*/48, universe, /*precision_lo=*/0.65,
      /*precision_hi=*/0.85, /*recall_lo=*/0.2, /*recall_hi=*/0.4, seed);
  config.groups_true = {
      {{0, 1, 2, 3}, 0.85}, {{4, 5, 6}, 0.8}, {{7, 8, 9}, 0.75}};
  config.groups_false = {{{10, 11, 12}, 0.8}, {{13, 14, 15, 16}, 0.75}};
  // Sources 46 and 47 split the true universe between them.
  config.true_partition_fractions = {0.5, 0.5};
  config.sources[46].true_partition = 0;
  config.sources[47].true_partition = 1;
  config.num_domains = 64;
  return config;
}

}  // namespace

Result RunFuseBatch(const RunOptions& opt) {
  Result result;
  const size_t universe = opt.smoke ? 20000 : 1000000;
  auto raw = GenerateRawCorpus(FuseBatchConfig(universe, opt.seed),
                               opt.seed * 0x9E3779B97F4A7C15ULL + 1);
  if (!raw.ok()) {
    result.Fail("corpus: " + raw.status().ToString());
    return result;
  }
  const double base_rss = ProcStatusMb(0, "VmRSS");
  ResetPeakRss();

  // Set-up: Dataset build from the raw observation arrays, kSetupBuilds
  // times.
  std::vector<double> setup;
  std::unique_ptr<Dataset> dataset;
  for (int i = 0; i < kSetupBuilds; ++i) {
    dataset.reset();
    const Clock::time_point start = Clock::now();
    StatusOr<Dataset> built = Status::Internal("unset");
    {
      Span span("model.build");
      built = BuildDataset(*raw, 0, raw->rows());
    }
    setup.push_back(SecondsSince(start));
    if (!built.ok()) {
      result.Fail("dataset build: " + built.status().ToString());
      return result;
    }
    dataset = std::make_unique<Dataset>(std::move(*built));
  }

  EngineOptions options;
  options.num_threads = 2;
  options.model.use_scopes = true;
  options.model.enable_clustering = true;
  std::vector<MethodSpec> specs;
  for (const MethodStage& m : kMethods) {
    specs.push_back(*ParseMethodSpec(m.method));
  }
  const std::vector<MethodSpec> serving = {*ParseMethodSpec("precrec-corr"),
                                           *ParseMethodSpec("elastic-2")};

  // One warm-up rep, then timed reps; the rep count follows --seconds
  // (12 at the default 20 s) so the measured work is fixed per setting.
  const size_t reps =
      opt.smoke ? 3
                : std::max<size_t>(5, static_cast<size_t>(opt.seconds * 0.6));
  std::vector<double> rep_seconds;
  uint64_t first_fingerprint = 0;
  double peak_rss = 0.0;
  PassShape shape;
  for (size_t rep = 0; rep <= reps; ++rep) {
    ++result.attempted;
    const Clock::time_point start = Clock::now();
    uint64_t fingerprint = 0;
    Status status;
    {
      Span rep_span("synth.rep", rep);
      std::unique_ptr<FusionEngine> engine;
      {
        Span span("core.create");
        engine = std::make_unique<FusionEngine>(dataset.get(), options);
      }
      {
        Span span("core.prepare");
        status = engine->Prepare(dataset->labeled_mask());
      }
      StatusOr<const CorrelationModel*> model = Status::Internal("unset");
      if (status.ok()) {
        Span span("core.model");
        model = engine->GetModel();
        status = model.status();
      }
      StatusOr<const PatternGrouping*> grouping = Status::Internal("unset");
      if (status.ok()) {
        Span span("core.grouping");
        grouping = engine->GetPatternGrouping();
        status = grouping.status();
      }
      for (size_t m = 0; m < specs.size() && status.ok(); ++m) {
        Span span(kMethods[m].span);
        auto run = engine->Run(specs[m]);
        status = run.status();
        if (run.ok()) fingerprint = HashScores(run->scores, fingerprint);
      }
      if (status.ok()) {
        Span span("core.publish");
        status = engine->PublishSnapshot(serving).status();
      }
      if (status.ok()) shape = ShapeOf(*dataset, **model, **grouping);
      Span span("core.release");
      engine.reset();
    }
    const double seconds = SecondsSince(start);
    if (!status.ok()) {
      result.Fail("rep: " + status.ToString());
      continue;
    }
    if (rep == 0) {
      // Peak memory of set-up plus one pass. Later passes reuse freed
      // memory; their peaks differ only by when the allocator adds an arena.
      peak_rss = ProcStatusMb(0, "VmHWM");
      first_fingerprint = fingerprint;
      continue;  // warm-up
    }
    rep_seconds.push_back(seconds);
    if (fingerprint != first_fingerprint) {
      result.Fail("scores differ between reps");
    }
  }
  result.fingerprint = StrFormat(
      "%016llx", static_cast<unsigned long long>(first_fingerprint));

  // A pass lasts ~1.5 s, long enough to average over the seconds-long
  // stretches in which other tenants of a shared machine slow memory-bound
  // work, so the median pass repeats (6-12% spread over ten runs on a
  // 4-core x86 VM, against 6-15% for the 25th percentile and 10-11% for
  // the fastest pass).
  const double fuse_s = Median(rep_seconds);
  const double triples = static_cast<double>(dataset->num_triples());
  const size_t n = rep_seconds.size();
  // No percentile above the median has ten passes beyond it, so the tail
  // is the slowest pass.
  const double slowest_s =
      n > 0 ? *std::max_element(rep_seconds.begin(), rep_seconds.end()) : 0.0;
  result.end_to_end = {
      {"setup_s", {Median(setup), "s", setup.size()}},
      {"op_ms", {fuse_s * 1e3, "ms", n}},
      {"op_tail_ms", {slowest_s * 1e3, "ms", n}},
      {"work_per_s", {fuse_s > 0 ? triples / fuse_s : 0.0, "1/s", n}},
      {"rss_mb", {peak_rss - base_rss, "MB", 0}},
  };
  result.details = {
      {"triples", {triples, "count", 0}},
      {"sources", {static_cast<double>(dataset->num_sources()), "count", 0}},
  };
  if (opt.trace) {
    // Rep 0 is the warm-up: its spans are skipped in the per-rep medians.
    FillLayers(shape, /*skip=*/1, "synth.rep", &result);
    for (const MethodStage& m : kMethods) {
      std::vector<double> d = SpanDurations(m.span);
      if (!d.empty()) d.erase(d.begin());
      result.stages[std::string("core.run_s.") + m.method] = {Median(d), "s"};
    }
  }
  return result;
}

}  // namespace e2e
}  // namespace fuser
