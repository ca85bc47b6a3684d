// ingest_serve: streaming writes beside reads.
//
// A K=4 ShardedFusionEngine (scopes on, one writer thread) is bootstrapped
// on half of a ~1.33M-triple, 12-source, 96-domain corpus (set-up: Create +
// Prepare + first PublishSnapshot). The writer then streams domain-local
// 64-triple batches closed-loop through Update -> PublishSnapshot, with
// four SaveSnapshot checkpoints spread over the stream, while two reader
// threads run closed-loop Acquire + ScoreBatch(32 ids). The writer's
// commits are the foreground operation and the gated one; the readers load
// the same serving state, and their throughput and latency are details: a
// gain for readers that costs the writer, or the reverse, shows here.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_service.h"
#include "trace.h"

namespace fuser {
namespace e2e {
namespace {

constexpr uint32_t kShards = 4;
constexpr size_t kBatchTriples = 64;
constexpr size_t kCheckpoints = 4;
constexpr size_t kReadBatch = 32;
constexpr size_t kReaders = 2;
/// The set-up time is the median of this many set-ups (~1 s each on a
/// 4-core x86 VM).
constexpr int kSetupReps = 7;
/// Reads run at ~2x10^5/s per thread: one in kReadSampleEvery is timed,
/// kept in a reservoir of kReadSamples per reader (so memory does not grow
/// with throughput), and one in kReadTraceEvery is traced.
constexpr uint64_t kReadSampleEvery = 8;
constexpr size_t kReadSamples = size_t{1} << 17;
constexpr uint64_t kReadTraceEvery = 256;

SyntheticConfig IngestConfig(size_t universe, uint64_t seed) {
  SyntheticConfig config = LadderConfig(
      /*num_sources=*/12, universe, /*precision_lo=*/0.6,
      /*precision_hi=*/0.8, /*recall_lo=*/0.35, /*recall_hi=*/0.55, seed);
  config.groups_true = {{{0, 1, 2}, 0.8}};
  config.num_domains = 96;
  return config;
}

/// Domain-local batches over rows [begin, rows): each batch holds
/// kBatchTriples consecutive rows of one domain; domains take turns in a
/// seeded order so every shard keeps receiving writes.
std::vector<std::vector<uint32_t>> PlanBatches(const RawCorpus& raw,
                                               size_t begin, size_t count,
                                               uint64_t seed) {
  std::vector<std::vector<uint32_t>> by_domain(raw.domain_names.size());
  for (size_t row = begin; row < raw.rows(); ++row) {
    by_domain[raw.domain[row]].push_back(static_cast<uint32_t>(row));
  }
  std::vector<size_t> order(by_domain.size());
  for (size_t d = 0; d < order.size(); ++d) order[d] = d;
  Rng rng(seed);
  rng.Shuffle(&order);
  std::vector<size_t> next(by_domain.size(), 0);
  std::vector<std::vector<uint32_t>> batches;
  bool progress = true;
  while (batches.size() < count && progress) {
    progress = false;
    for (size_t d : order) {
      if (batches.size() == count) break;
      const std::vector<uint32_t>& rows = by_domain[d];
      if (next[d] + kBatchTriples > rows.size()) continue;
      batches.emplace_back(rows.begin() + next[d],
                           rows.begin() + next[d] + kBatchTriples);
      next[d] += kBatchTriples;
      progress = true;
    }
  }
  return batches;
}

struct ReaderStats {
  uint64_t reads = 0;
  uint64_t failed = 0;
  uint64_t timed = 0;
  std::vector<double> latency_s;  // uniform sample of the timed reads
};

void ReadLoop(const ShardedFusionService& service,
              const std::vector<MethodSpec>& specs, uint64_t seed,
              const std::atomic<bool>& stop, ReaderStats* stats) {
  Rng rng(seed);
  Rng reservoir(seed + 1);
  std::vector<TripleId> ids(kReadBatch);
  stats->latency_s.reserve(kReadSamples);
  while (!stop.load(std::memory_order_relaxed)) {
    const bool sampled = stats->reads % kReadSampleEvery == 0;
    const bool traced = stats->reads % kReadTraceEvery == 0;
    const MethodSpec& spec = specs[rng.NextBounded(4) == 0 ? 1 : 0];
    const Clock::time_point start =
        sampled ? Clock::now() : Clock::time_point();
    bool ok = false;
    {
      Span read(traced ? "synth.read" : nullptr, stats->reads);
      StatusOr<std::shared_ptr<const ShardedSnapshot>> snapshot =
          Status::Internal("unset");
      {
        Span span(traced ? "serving.acquire" : nullptr);
        snapshot = service.Acquire();
      }
      if (snapshot.ok() && (*snapshot)->num_triples > 0) {
        for (TripleId& t : ids) {
          t = static_cast<TripleId>(rng.NextBounded((*snapshot)->num_triples));
        }
        Span span(traced ? "serving.score" : nullptr);
        auto scores = service.ScoreBatch(**snapshot, spec, ids);
        ok = scores.ok() && scores->size() == ids.size();
        for (size_t i = 0; ok && i < scores->size(); ++i) {
          ok = (*scores)[i] >= 0.0 && (*scores)[i] <= 1.0;
        }
      }
    }
    if (sampled) {
      const double latency = SecondsSince(start);
      if (stats->latency_s.size() < kReadSamples) {
        stats->latency_s.push_back(latency);
      } else {
        const uint64_t slot = reservoir.NextBounded(stats->timed + 1);
        if (slot < kReadSamples) stats->latency_s[slot] = latency;
      }
      ++stats->timed;
    }
    ++stats->reads;
    if (!ok) ++stats->failed;
  }
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The unsharded dataset the sharded corpus represents, in global id order.
StatusOr<Dataset> MaterializeGlobal(const ShardedCorpus& corpus) {
  Dataset global;
  const Dataset& first = corpus.shard(0);
  for (SourceId s = 0; s < first.num_sources(); ++s) {
    global.AddSource(first.source_name(s));
  }
  for (TripleId t = 0; t < corpus.num_triples(); ++t) {
    const ShardLocation loc = corpus.Locate(t);
    const Dataset& shard = corpus.shard(loc.shard);
    const TripleId nt = global.AddTriple(
        shard.triple(loc.local), shard.domain_name(shard.domain(loc.local)));
    for (SourceId s : shard.providers(loc.local)) global.Provide(s, nt);
    if (shard.label(loc.local) != Label::kUnknown) {
      global.SetLabel(nt, shard.label(loc.local) == Label::kTrue);
    }
  }
  FUSER_RETURN_IF_ERROR(global.Finalize());
  return global;
}

}  // namespace

Result RunIngestServe(const RunOptions& opt) {
  Result result;
  const size_t universe = opt.smoke ? 30000 : 1500000;
  auto raw = GenerateRawCorpus(IngestConfig(universe, opt.seed),
                               opt.seed * 0x9E3779B97F4A7C15ULL + 3);
  if (!raw.ok()) {
    result.Fail("corpus: " + raw.status().ToString());
    return result;
  }
  const size_t half = raw->rows() / 2;
  // A commit takes ~30 ms on a 4-core x86 VM, so 30 batches per second of
  // --seconds (600 at 20 s) keep the stream near the requested length while
  // the work stays fixed per setting.
  const size_t num_batches =
      opt.smoke ? 40 : static_cast<size_t>(opt.seconds * 30.0 + 0.5);
  const size_t checkpoint_every =
      std::max<size_t>(1, num_batches / kCheckpoints);
  const std::vector<std::vector<uint32_t>> plan =
      PlanBatches(*raw, half, num_batches, opt.seed + 17);
  if (plan.size() < num_batches) {
    result.Fail("corpus too small for the batch plan");
    return result;
  }
  StatusOr<Dataset> bootstrap = Status::Internal("unset");
  {
    Span span("model.build");
    bootstrap = BuildDataset(*raw, 0, half);
  }
  if (!bootstrap.ok()) {
    result.Fail("bootstrap: " + bootstrap.status().ToString());
    return result;
  }
  const double base_rss = ProcStatusMb(0, "VmRSS");
  ResetPeakRss();

  EngineOptions options;
  options.num_threads = 1;
  options.model.use_scopes = true;
  const std::vector<MethodSpec> specs = {*ParseMethodSpec("precrec-corr"),
                                         *ParseMethodSpec("elastic-2")};

  // Set-up, kSetupReps times: Create + Prepare + first PublishSnapshot.
  std::vector<double> setup;
  std::unique_ptr<ShardedFusionEngine> engine;
  for (int i = 0; i < kSetupReps; ++i) {
    engine.reset();
    const Clock::time_point start = Clock::now();
    Status status;
    {
      Span setup_span("synth.setup");
      StatusOr<std::unique_ptr<ShardedFusionEngine>> created =
          Status::Internal("unset");
      {
        Span span("shard.create");
        created = ShardedFusionEngine::Create(
            *bootstrap, ShardingOptions{kShards}, options);
      }
      status = created.status();
      if (status.ok()) {
        engine = std::move(*created);
        Span span("shard.prepare");
        status = engine->Prepare(bootstrap->labeled_mask());
      }
      if (status.ok()) {
        Span span("shard.publish");
        status = engine->PublishSnapshot(specs).status();
      }
    }
    setup.push_back(SecondsSince(start));
    if (!status.ok()) {
      result.Fail("set-up: " + status.ToString());
      return result;
    }
  }

  ShardedFusionService service(engine.get());
  std::atomic<bool> stop{false};
  std::vector<ReaderStats> readers(kReaders);
  std::vector<std::thread> threads;
  const Clock::time_point readers_start = Clock::now();
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back(ReadLoop, std::cref(service), std::cref(specs),
                         opt.seed * 31 + r, std::cref(stop), &readers[r]);
  }

  const std::string checkpoint = opt.work_dir + "/ingest_checkpoint.snap";
  std::vector<double> commit_s;
  size_t observations = 0;
  const Clock::time_point writer_start = Clock::now();
  {
    Span writer("synth.writer");
    for (size_t b = 0; b < plan.size(); ++b) {
      ++result.attempted;
      ObservationBatch batch;
      {
        Span span("synth.batch");
        batch = MakeBatch(*raw, plan[b]);
      }
      observations += batch.observations.size();
      const Clock::time_point start = Clock::now();
      Status status;
      {
        Span commit("synth.commit", b);
        {
          Span span("shard.update");
          status = engine->Update(batch);
        }
        if (status.ok()) {
          Span span("shard.publish");
          status = engine->PublishSnapshot(specs).status();
        }
        if (status.ok() && (b + 1) % checkpoint_every == 0) {
          Span span("persist.save");
          status = engine->SaveSnapshot(checkpoint);
        }
      }
      commit_s.push_back(SecondsSince(start));
      if (!status.ok()) result.Fail("commit: " + status.ToString());
    }
  }
  const double writer_s = SecondsSince(writer_start);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double readers_s = SecondsSince(readers_start);
  const double peak_rss = ProcStatusMb(0, "VmHWM");

  std::vector<double> read_latency;
  for (const ReaderStats& r : readers) {
    result.attempted += r.reads;
    if (r.failed > 0) {
      result.Fail("reads failed or scored out of [0, 1]", r.failed);
    }
    read_latency.insert(read_latency.end(), r.latency_s.begin(),
                        r.latency_s.end());
  }

  // Gate: the sharded engine's RunAll equals a fresh unsharded engine
  // prepared on the final dataset with the sharded engine's train mask.
  ++result.attempted;
  const std::vector<MethodSpec> gate_specs = {*ParseMethodSpec("precrec"),
                                              specs[0], specs[1]};
  static constexpr const char* kGateSpans[] = {
      "core.run.precrec", "core.run.precrec-corr", "core.run.elastic-2"};
  PassShape shape;
  {
    Span gate("synth.gate");
    StatusOr<std::vector<FusionRun>> sharded = Status::Internal("unset");
    {
      Span span("shard.run_all");
      sharded = engine->RunAll(gate_specs);
    }
    StatusOr<Dataset> built = Status::Internal("unset");
    {
      Span span("model.build_global");
      built = MaterializeGlobal(engine->corpus());
    }
    Status status = sharded.ok() ? built.status() : sharded.status();
    if (status.ok()) {
      const Dataset* global = &*built;
      EngineOptions fresh_options = options;
      fresh_options.num_threads = 2;
      std::unique_ptr<FusionEngine> fresh;
      {
        Span span("core.create");
        fresh = std::make_unique<FusionEngine>(global, fresh_options);
      }
      {
        Span span("core.prepare");
        status = fresh->Prepare(engine->train_mask());
      }
      StatusOr<const CorrelationModel*> model = Status::Internal("unset");
      if (status.ok()) {
        Span span("core.model");
        model = fresh->GetModel();
        status = model.status();
      }
      StatusOr<const PatternGrouping*> grouping = Status::Internal("unset");
      if (status.ok()) {
        Span span("core.grouping");
        grouping = fresh->GetPatternGrouping();
        status = grouping.status();
      }
      for (size_t m = 0; m < gate_specs.size() && status.ok(); ++m) {
        Span span(kGateSpans[m]);
        auto run = fresh->Run(gate_specs[m]);
        status = run.status();
        if (run.ok() && !SameBytes(run->scores, (*sharded)[m].scores)) {
          result.Fail("sharded " + gate_specs[m].Name() +
                      " scores differ from the unsharded engine");
        }
      }
      if (status.ok()) {
        Span span("core.publish");
        status = fresh->PublishSnapshot(specs).status();
      }
      if (status.ok()) shape = ShapeOf(*global, **model, **grouping);
    }
    if (!status.ok()) result.Fail("gate: " + status.ToString());
  }
  std::remove(checkpoint.c_str());
  for (uint32_t k = 0; k < kShards; ++k) {
    std::remove(StrFormat("%s.shard%u", checkpoint.c_str(), k).c_str());
  }

  uint64_t reads = 0;
  for (const ReaderStats& r : readers) reads += r.reads;
  const size_t n_commit = commit_s.size();
  const size_t n_read = read_latency.size();
  // Commits run at one of two speeds, ~31 ms and ~55 ms on a 4-core x86
  // VM, switching every few seconds as other tenants load the machine's
  // memory, and the share of commits run at the slow speed differs from run
  // to run. Percentiles in between (p25, p50) follow that share: over ten
  // runs they spread by 15-22%. The p2 (12 commits below it) falls among
  // fast commits and the p90 (60 above it) among slow ones in nearly every
  // run; both spread by 2-6%. The readers' throughput spread by 3-13% and
  // is a detail.
  const double commit_fast_s = Percentile(commit_s, 0.02);
  const double obs_per_commit =
      n_commit > 0 ? static_cast<double>(observations) / n_commit : 0.0;
  result.end_to_end = {
      {"setup_s", {Median(setup), "s", setup.size()}},
      {"op_ms", {commit_fast_s * 1e3, "ms", n_commit}},
      {"op_tail_ms", {Percentile(commit_s, 0.90) * 1e3, "ms", n_commit}},
      {"work_per_s",
       {commit_fast_s > 0 ? obs_per_commit / commit_fast_s : 0.0, "1/s",
        n_commit}},
      {"rss_mb", {peak_rss - base_rss, "MB", 0}},
  };
  result.details = {
      {"ingest_obs_per_s",
       {static_cast<double>(observations) / writer_s, "obs/s", n_commit}},
      {"commit_p50_ms", {Median(commit_s) * 1e3, "ms", n_commit}},
      {"commit_p99_ms", {Percentile(commit_s, 0.99) * 1e3, "ms", n_commit}},
      {"read_rps", {static_cast<double>(reads) / readers_s, "req/s", reads}},
      {"read_p50_us", {Median(read_latency) * 1e6, "us", n_read}},
      {"read_p99_us", {Percentile(read_latency, 0.99) * 1e6, "us", n_read}},
      {"observations", {static_cast<double>(observations), "count", 0}},
      {"triples", {static_cast<double>(engine->num_triples()), "count", 0}},
      {"core.updates_applied",
       {static_cast<double>(engine->updates_applied()), "count", 0}},
      {"core.full_invalidations",
       {static_cast<double>(engine->full_invalidations()), "count", 0}},
  };
  if (opt.trace) {
    FillLayers(shape, /*skip=*/0, "synth.writer", &result);
    // The first shard.publish spans belong to the set-up repetitions.
    std::vector<double> publish = SpanDurations("shard.publish");
    publish.erase(publish.begin(),
                  publish.begin() + std::min(setup.size(), publish.size()));
    const std::vector<double> update = SpanDurations("shard.update");
    auto ms = [](const std::vector<double>& d, double p) {
      return Metric{Percentile(d, p) * 1e3, "ms", d.size()};
    };
    auto us = [](const char* name) {
      return Metric{Median(SpanDurations(name)) * 1e6, "us", 0};
    };
    MetricMap& st = result.stages;
    st["shard.update_ms_p50"] = ms(update, 0.5);
    st["shard.update_ms_p99"] = ms(update, 0.99);
    st["shard.publish_ms_p50"] = ms(publish, 0.5);
    st["shard.publish_ms_p99"] = ms(publish, 0.99);
    st["persist.save_s"] = {Median(SpanDurations("persist.save")), "s"};
    st["serving.acquire_us"] = us("serving.acquire");
    st["serving.score_us"] = us("serving.score");
    st["trace.commit_coverage"] = {ChildCoverage("synth.commit"), "ratio"};
  }
  return result;
}

}  // namespace e2e
}  // namespace fuser
