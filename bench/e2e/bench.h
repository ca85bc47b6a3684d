// Shared pieces of the end-to-end benchmark binary (fuser_bench): run
// options, the result every workload reports, the seeded raw corpus the
// workloads build their inputs from, and timing / memory helpers.
//
// fuser_bench plays the user: it generates inputs from a seed, drives the
// library (and, for serve_tcp, a separate fuser_cli server process) through
// public APIs only, checks every output, and reports what a user waits for.
#ifndef FUSER_BENCH_E2E_BENCH_H_
#define FUSER_BENCH_E2E_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/correlation_model.h"
#include "core/pattern_pipeline.h"
#include "model/dataset.h"
#include "synth/generator.h"

namespace fuser {
namespace e2e {

struct RunOptions {
  uint64_t seed = 1;
  /// Length of the measured phase; workloads derive their work from it.
  double seconds = 20.0;
  /// ~1/50 scale inputs, same code paths and checks.
  bool smoke = false;
  /// Record spans (trace.h) and report per-layer metrics.
  bool trace = false;
  /// Directory for the workload's files (snapshots, trace output).
  std::string work_dir;
  /// The fuser_cli binary serve_tcp starts as its server.
  std::string cli_path;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  /// How many samples the value was computed from (0 = a single reading).
  size_t samples = 0;
};

using MetricMap = std::map<std::string, Metric>;

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failed gate or kind of failed operation.
  std::vector<std::string> failures;
  /// The metrics BENCHMARK.json names, reported by every workload.
  MetricMap end_to_end;
  /// The workload's own metrics under their descriptive names
  /// (read_p99_us_hi, commit_p50_ms, ...); printed, not gated.
  MetricMap details;
  /// Per-layer metrics (traced runs only).
  MetricMap layers;
  /// Workload-specific per-layer numbers that only some workloads have
  /// (net.*, serving.*, shard.*, persist.*); written to the trace summary.
  MetricMap stages;
  /// Score fingerprint (fuse_batch), "" otherwise.
  std::string fingerprint;

  /// Counts `count` failed operations and records `why` once.
  void Fail(const std::string& why, uint64_t count = 1);
};

Result RunFuseBatch(const RunOptions& options);
Result RunServeTcp(const RunOptions& options);
Result RunIngestServe(const RunOptions& options);

// ---- Inputs ---------------------------------------------------------------

/// A corpus as flat observation arrays — the form data arrives in before
/// any Dataset exists. Rows are observed triples in a seeded shuffled order,
/// so every prefix mixes true and false, labeled and unlabeled triples.
struct RawCorpus {
  std::vector<std::string> source_names;
  std::vector<std::string> domain_names;
  std::string predicate = "attr";
  /// Subject and object text of every row, back to back.
  std::string text;
  std::vector<uint32_t> text_offsets;  // 2 * rows + 1 entries
  std::vector<uint16_t> domain;        // index into domain_names
  std::vector<Label> label;
  std::vector<uint32_t> provider_offsets;  // rows + 1 entries
  std::vector<SourceId> providers;

  size_t rows() const { return domain.size(); }
  TripleView triple(size_t row) const;
  std::string_view domain_name(size_t row) const {
    return domain_names[domain[row]];
  }
};

/// `num_sources` independent sources whose precision and recall step
/// through fixed ladders by source index — [precision_lo, precision_hi] in
/// 7 steps, [recall_lo, recall_hi] in 5, so the two vary independently.
/// Qualities differ between sources but not between seeds: a seed changes
/// which triples a source provides, not how good the source is.
SyntheticConfig LadderConfig(size_t num_sources, size_t universe,
                             double precision_lo, double precision_hi,
                             double recall_lo, double recall_hi,
                             uint64_t seed);

/// Runs the synthetic generator and shuffles its rows with `shuffle_seed`.
StatusOr<RawCorpus> GenerateRawCorpus(const SyntheticConfig& config,
                                      uint64_t shuffle_seed);

/// Builds a finalized Dataset from rows [begin, end); every source is
/// registered, so streaming later rows adds no sources.
StatusOr<Dataset> BuildDataset(const RawCorpus& corpus, size_t begin,
                               size_t end);

/// The observations and labels of `rows` as one streamed micro-batch.
ObservationBatch MakeBatch(const RawCorpus& corpus,
                           const std::vector<uint32_t>& rows);

// ---- Measurement helpers --------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(const std::vector<double>& values);

/// Resident-set figures in MB from /proc/<pid>/status ("VmRSS", "VmHWM");
/// pid 0 = this process. Negative when unavailable.
double ProcStatusMb(int pid, const char* field);
/// Resets this process's peak-RSS mark so VmHWM measures from now on.
void ResetPeakRss();

/// FNV-1a over the raw bytes of `scores`, chained through `seed` so a
/// lineup of runs hashes to one value.
uint64_t HashScores(const std::vector<double>& scores, uint64_t seed);

/// The size of one offline fusion pass's inputs.
struct PassShape {
  double bytes_per_triple = 0.0;  // Dataset memory per triple
  size_t clusters = 0;            // correlation clusters of the model
  size_t distinct = 0;            // distinct (cluster, pattern) pairs
};

PassShape ShapeOf(const Dataset& dataset, const CorrelationModel& model,
                  const PatternGrouping& grouping);

/// Fills the per-layer metrics every workload reports from the spans
/// recorded so far: one Dataset build (model.*) and one offline fusion
/// pass (core.*; medians over the instances after the first `skip`). Adds
/// to the stages the share of `parent_span` its child spans cover and the
/// span count.
void FillLayers(const PassShape& shape, size_t skip, const char* parent_span,
                Result* result);

}  // namespace e2e
}  // namespace fuser

#endif  // FUSER_BENCH_E2E_BENCH_H_
