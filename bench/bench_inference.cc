// Inference hot-path benchmark: the word-parallel scoring pipeline vs. the
// retained pre-optimization reference path on a synthetic 8-source dataset,
// default ~100k triples.
//
// Five sections, all score-identical by construction (verified at the end
// and reported in the JSON):
//
//  * grouping:  BuildPatternGrouping (word-level bit-matrix transpose,
//               chunked parallel build) vs BuildPatternGroupingScalar (one
//               GetClusterObservation + hash emplace per cluster x triple);
//  * methods:   per-method scoring through the engine (batched
//               ScoreAllPatterns + precomputed-log combine + persistent
//               pool) vs the legacy composition (one per-pattern
//               likelihood call per distinct pattern, each a rescan of the
//               training patterns, + serial reference combine);
//  * runall:    the sums of the above across the method lineup — the
//               paper's many-methods workload (Fig. 4/6/7). Grouping is
//               excluded from both sides, exactly as FusionRun.seconds
//               excludes the shared inputs.
//  * kernels:   the dispatched SIMD kernels (masked AND+popcount, 64x64
//               bit transpose, pattern-table gather) vs the scalar oracle
//               table, with a byte-identity check; on machines without
//               AVX2 both tables are the scalar one and the ratios are ~1.
//  * model:     the correlation-model build split into its stages, with
//               clustering and scopes on — source quality, the training
//               view plus pairwise counts and clustering, every cluster's
//               joint statistics — against the full-corpus reference
//               build (support/model_reference.h); model_identical holds
//               when both models are byte-identical.
//
// Prints one JSON object (bench_util.h) so CI and scripts can track the
// speedup. Every measurement is the minimum over `reps` runs (steady
// state):
//
//   ./bench_inference [num_triples] [num_threads] [reps]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/bitset.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/clustering.h"
#include "core/correlation.h"
#include "core/engine.h"
#include "core/pattern_pipeline.h"
#include "core/precrec_corr.h"
#include "support/elastic_oracle.h"
#include "support/model_reference.h"
#include "support/pattern_oracles.h"
#include "synth/generator.h"

namespace fuser {
namespace {

/// The pre-optimization scoring path for one pattern method, composed from
/// the retained reference pieces: per-pattern likelihood scoring (one
/// DirectPatternLikelihood call, an O(#patterns) rescan, per distinct
/// pattern) and the serial 2-logs-per-(cluster,triple) combine. Grouping is passed in,
/// mirroring how FusionRun.seconds excludes the shared inputs.
std::vector<double> LegacyScores(const CorrelationModel& model,
                                 const PatternGrouping& grouping,
                                 const MethodSpec& spec, size_t num_threads) {
  PatternScorer scorer;
  double alpha = model.alpha;
  if (spec.kind == MethodKind::kPrecRecCorr) {
    scorer = [&model](size_t c, const PatternKey& key, double* given_true,
                      double* given_false) -> Status {
      return model.cluster_stats[c]->DirectPatternLikelihood(
          key.providers, key.nonproviders, /*calibrated=*/true, given_true,
          given_false);
    };
    alpha = model.cluster_stats[0]->EmpiricalPriorTrue();
  } else {
    const int level = spec.elastic_level;
    scorer = [&model, level](size_t c, const PatternKey& key,
                             double* given_true,
                             double* given_false) -> Status {
      return ReferenceElasticLikelihood(*model.cluster_stats[c],
                                        key.providers, key.nonproviders, level,
                                        given_true, given_false);
    };
  }
  auto likelihood = ScorePatterns(grouping.distinct, num_threads, scorer);
  FUSER_CHECK(likelihood.ok()) << likelihood.status();
  return CombinePatternScoresReference(grouping, *likelihood, alpha);
}

int Main(int argc, char** argv) {
  // Universe size; triples nobody provides are dropped, so the realized
  // dataset is ~80% of this (125k keeps it at ~100k provided triples).
  size_t num_triples = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 125000;
  size_t num_threads = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8;
  size_t reps = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 3;
  if (reps == 0) reps = 1;

  SyntheticConfig config = MakeIndependentConfig(
      /*num_sources=*/8, num_triples, /*fraction_true=*/0.4,
      /*precision=*/0.7, /*recall=*/0.45, /*seed=*/71);
  config.groups_true = {{{0, 1, 2}, 0.85}};
  config.groups_false = {{{3, 4, 5}, 0.8}};
  auto dataset_or = GenerateSynthetic(config);
  FUSER_CHECK(dataset_or.ok()) << dataset_or.status();
  const Dataset& dataset = *dataset_or;

  EngineOptions options;
  options.num_threads = num_threads;
  FusionEngine engine(&dataset, options);
  Status prepared = engine.Prepare(dataset.labeled_mask());
  FUSER_CHECK(prepared.ok()) << prepared;
  auto model_or = engine.GetModel();
  FUSER_CHECK(model_or.ok()) << model_or.status();
  const CorrelationModel& model = **model_or;

  // ---- Grouping build: scalar reference vs word-parallel. ----
  double grouping_scalar_seconds = 0.0;
  double grouping_word_seconds = 0.0;
  StatusOr<PatternGrouping> scalar_grouping = Status::Internal("unset");
  StatusOr<PatternGrouping> word_grouping = Status::Internal("unset");
  ThreadPool pool(num_threads);
  for (size_t rep = 0; rep < reps; ++rep) {
    WallTimer scalar_timer;
    scalar_grouping = BuildPatternGroupingScalar(dataset, model);
    const double scalar_seconds = scalar_timer.ElapsedSeconds();
    FUSER_CHECK(scalar_grouping.ok()) << scalar_grouping.status();
    WallTimer word_timer;
    word_grouping = BuildPatternGrouping(dataset, model, num_threads, &pool);
    const double word_seconds = word_timer.ElapsedSeconds();
    FUSER_CHECK(word_grouping.ok()) << word_grouping.status();
    grouping_scalar_seconds =
        rep == 0 ? scalar_seconds
                 : std::min(grouping_scalar_seconds, scalar_seconds);
    grouping_word_seconds =
        rep == 0 ? word_seconds
                 : std::min(grouping_word_seconds, word_seconds);
  }
  bool grouping_identical =
      word_grouping->distinct == scalar_grouping->distinct &&
      SamePatternIds(*word_grouping, *scalar_grouping);

  // ---- Per-method scoring + RunAll: legacy pieces vs engine. ----
  const std::vector<MethodSpec> lineup = {
      {MethodKind::kPrecRecCorr},
      {MethodKind::kElastic, 50.0, 1},
      {MethodKind::kElastic, 50.0, 2},
  };
  std::vector<double> before_seconds(lineup.size(), 0.0);
  std::vector<double> after_seconds(lineup.size(), 0.0);
  std::vector<std::vector<double>> before_scores(lineup.size());
  std::vector<FusionRun> last_runs;
  for (size_t rep = 0; rep < reps; ++rep) {
    for (size_t i = 0; i < lineup.size(); ++i) {
      WallTimer timer;
      before_scores[i] =
          LegacyScores(model, *scalar_grouping, lineup[i], num_threads);
      const double seconds = timer.ElapsedSeconds();
      before_seconds[i] =
          rep == 0 ? seconds : std::min(before_seconds[i], seconds);
    }
    auto runs = engine.RunAll(lineup);
    FUSER_CHECK(runs.ok()) << runs.status();
    for (size_t i = 0; i < lineup.size(); ++i) {
      after_seconds[i] = rep == 0
                             ? (*runs)[i].seconds
                             : std::min(after_seconds[i], (*runs)[i].seconds);
    }
    last_runs = std::move(*runs);
  }
  double runall_before_seconds = 0.0;
  double runall_after_seconds = 0.0;
  bool scores_identical = grouping_identical;
  for (size_t i = 0; i < lineup.size(); ++i) {
    runall_before_seconds += before_seconds[i];
    runall_after_seconds += after_seconds[i];
    if (last_runs[i].scores != before_scores[i]) scores_identical = false;
  }

  // ---- SIMD kernels: scalar oracle vs the active dispatch level. ----
  const simd::Kernels& scalar_kernels = simd::KernelsFor(simd::Level::kScalar);
  const simd::Kernels& active_kernels = simd::ActiveKernels();
  Rng rng(97);
  const size_t kWords = size_t{1} << 14;  // 1M bits per operand
  AlignedWordVector wa(kWords), wb(kWords), wc(kWords);
  for (size_t i = 0; i < kWords; ++i) {
    wa[i] = rng.NextUint64();
    wb[i] = rng.NextUint64();
    wc[i] = rng.NextUint64();
  }
  std::vector<double> table(4096);
  for (double& v : table) v = rng.NextDouble() * 2.0 - 1.0;
  std::vector<uint32_t> idx(size_t{1} << 16);
  for (uint32_t& i : idx) {
    i = static_cast<uint32_t>(rng.NextBounded(table.size()));
  }

  // Byte-identity of every kernel before timing anything.
  bool kernels_identical =
      scalar_kernels.and_count(wa.data(), wb.data(), kWords) ==
          active_kernels.and_count(wa.data(), wb.data(), kWords) &&
      scalar_kernels.and_count3(wa.data(), wb.data(), wc.data(), kWords) ==
          active_kernels.and_count3(wa.data(), wb.data(), wc.data(), kWords);
  for (size_t k : {size_t{7}, size_t{33}, size_t{64}}) {
    uint64_t cols_scalar[64], cols_active[64];
    scalar_kernels.transpose_bit_columns(wa.data(), k, cols_scalar);
    active_kernels.transpose_bit_columns(wa.data(), k, cols_active);
    for (size_t j = 0; j < 64; ++j) {
      if (cols_scalar[j] != cols_active[j]) kernels_identical = false;
    }
  }
  {
    std::vector<double> out_scalar(idx.size()), out_active(idx.size());
    scalar_kernels.gather_doubles(table.data(), idx.data(), idx.size(),
                                  out_scalar.data());
    active_kernels.gather_doubles(table.data(), idx.data(), idx.size(),
                                  out_active.data());
    if (out_scalar != out_active) kernels_identical = false;
  }

  // Min-of-reps timing; the volatile sink keeps the loops from folding.
  volatile uint64_t sink = 0;
  auto time_min = [&](auto&& fn) {
    double best = 0.0;
    for (size_t rep = 0; rep < reps; ++rep) {
      WallTimer timer;
      fn();
      const double seconds = timer.ElapsedSeconds();
      best = rep == 0 ? seconds : std::min(best, seconds);
    }
    return best;
  };
  auto time_and_count = [&](const simd::Kernels& kernels) {
    return time_min([&] {
      for (size_t it = 0; it < 200; ++it) {
        sink = sink + kernels.and_count(wa.data(), wb.data(), kWords);
      }
    });
  };
  auto time_transpose = [&](const simd::Kernels& kernels) {
    return time_min([&] {
      uint64_t cols[64];
      for (size_t block = 0; block + 64 <= kWords; block += 64) {
        kernels.transpose_bit_columns(wa.data() + block, 64, cols);
        sink = sink + cols[0];
      }
    });
  };
  auto time_gather = [&](const simd::Kernels& kernels) {
    std::vector<double> out(idx.size());
    return time_min([&] {
      for (size_t it = 0; it < 50; ++it) {
        kernels.gather_doubles(table.data(), idx.data(), idx.size(),
                               out.data());
        sink = sink + static_cast<uint64_t>(out[0] != 0.0);
      }
    });
  };
  const double and_scalar = time_and_count(scalar_kernels);
  const double and_active = time_and_count(active_kernels);
  const double transpose_scalar = time_transpose(scalar_kernels);
  const double transpose_active = time_transpose(active_kernels);
  const double gather_scalar = time_gather(scalar_kernels);
  const double gather_active = time_gather(active_kernels);
  auto ratio = [](double scalar_s, double active_s) {
    return active_s > 0.0 ? scalar_s / active_s : 0.0;
  };

  // ---- Model build: quality -> view + pairwise + clustering -> joint
  // statistics, against the full-corpus reference. ----
  ModelOptions model_options;
  model_options.use_scopes = true;
  model_options.enable_clustering = true;
  const JointStatsOptions stats_options = model_options.ToJointStatsOptions();
  std::vector<SourceId> all_sources(dataset.num_sources());
  for (SourceId s = 0; s < dataset.num_sources(); ++s) all_sources[s] = s;
  const DynamicBitset& train = dataset.labeled_mask();
  StatusOr<std::vector<SourceQuality>> quality = Status::Internal("unset");
  StatusOr<TrainingView> view = Status::Internal("unset");
  StatusOr<SourceClustering> clustering = Status::Internal("unset");
  StatusOr<std::vector<EmpiricalJointStatsState>> states =
      Status::Internal("unset");
  StatusOr<CorrelationModel> reference_model = Status::Internal("unset");
  const double model_quality_seconds = time_min([&] {
    quality = EstimateSourceQuality(dataset, train,
                                    model_options.ToQualityOptions());
  });
  FUSER_CHECK(quality.ok()) << quality.status();
  const double model_pairwise_seconds = time_min([&] {
    view = BuildTrainingView(dataset, train, num_threads, &pool);
    FUSER_CHECK(view.ok()) << view.status();
    auto counts = ComputePairwiseCounts(*view, all_sources);
    FUSER_CHECK(counts.ok()) << counts.status();
    clustering = ClusterSourcesFromCounts(dataset.num_sources(), *counts,
                                          stats_options,
                                          model_options.clustering);
  });
  FUSER_CHECK(clustering.ok()) << clustering.status();
  const double model_joint_seconds = time_min([&] {
    states = CountClusterPatterns(*view, clustering->clusters, stats_options,
                                  num_threads, &pool);
  });
  FUSER_CHECK(states.ok()) << states.status();
  const double model_reference_seconds = time_min([&] {
    reference_model = ReferenceCorrelationModel(dataset, train, model_options);
  });
  FUSER_CHECK(reference_model.ok()) << reference_model.status();
  auto model_built = BuildCorrelationModel(
      {{&dataset, &train}}, *quality, model_options, num_threads, &pool);
  FUSER_CHECK(model_built.ok()) << model_built.status();
  bool model_identical =
      model_built->clustering.clusters ==
          reference_model->clustering.clusters &&
      model_built->cluster_stats.size() == states->size();
  for (size_t s = 0; model_identical && s < quality->size(); ++s) {
    const SourceQuality& a = model_built->source_quality[s];
    const SourceQuality& b = reference_model->source_quality[s];
    model_identical = a.provided_true == b.provided_true &&
                      a.provided_labeled == b.provided_labeled &&
                      a.scope_true == b.scope_true &&
                      a.precision == b.precision && a.recall == b.recall &&
                      a.fpr == b.fpr;
  }
  for (size_t c = 0; model_identical && c < states->size(); ++c) {
    const auto& got = static_cast<const EmpiricalJointStats&>(
                          *model_built->cluster_stats[c])
                          .ExportState();
    const auto& want = static_cast<const EmpiricalJointStats&>(
                           *reference_model->cluster_stats[c])
                           .ExportState();
    auto same = [](const auto& x, const auto& y) {
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (x[i].providers != y[i].providers || x[i].scope != y[i].scope ||
            x[i].count != y[i].count) {
          return false;
        }
      }
      return true;
    };
    model_identical = got.total_true == want.total_true &&
                      got.total_false == want.total_false &&
                      same(got.true_patterns, want.true_patterns) &&
                      same(got.false_patterns, want.false_patterns) &&
                      same((*states)[c].true_patterns, got.true_patterns) &&
                      same((*states)[c].false_patterns, got.false_patterns);
  }

  const double grouping_speedup =
      grouping_word_seconds > 0.0
          ? grouping_scalar_seconds / grouping_word_seconds
          : 0.0;
  const double runall_speedup = runall_after_seconds > 0.0
                                    ? runall_before_seconds /
                                          runall_after_seconds
                                    : 0.0;
  bench::JsonLine json("inference");
  json.Int("num_triples", dataset.num_triples())
      .Int("num_sources", dataset.num_sources())
      .Int("num_threads", num_threads)
      .Int("distinct_patterns", word_grouping->TotalDistinct())
      .Num("grouping_scalar_seconds", grouping_scalar_seconds)
      .Num("grouping_word_seconds", grouping_word_seconds)
      .Num("grouping_speedup", grouping_speedup, 2)
      .Object("methods");
  for (size_t i = 0; i < lineup.size(); ++i) {
    json.Object(lineup[i].Name())
        .Num("before_seconds", before_seconds[i])
        .Num("after_seconds", after_seconds[i])
        .Num("speedup", ratio(before_seconds[i], after_seconds[i]), 2)
        .End();
  }
  json.End()
      .Num("runall_before_seconds", runall_before_seconds)
      .Num("runall_after_seconds", runall_after_seconds)
      .Num("runall_speedup", runall_speedup, 2)
      .Str("simd_level", simd::LevelName(simd::ActiveLevel()))
      .Object("kernels")
      .Num("and_count_scalar_seconds", and_scalar)
      .Num("and_count_active_seconds", and_active)
      .Num("and_count_speedup", ratio(and_scalar, and_active), 2)
      .Num("transpose_scalar_seconds", transpose_scalar)
      .Num("transpose_active_seconds", transpose_active)
      .Num("transpose_speedup", ratio(transpose_scalar, transpose_active), 2)
      .Num("gather_scalar_seconds", gather_scalar)
      .Num("gather_active_seconds", gather_active)
      .Num("gather_speedup", ratio(gather_scalar, gather_active), 2)
      .End()
      .Object("model")
      .Num("model_quality_seconds", model_quality_seconds)
      .Num("model_pairwise_seconds", model_pairwise_seconds)
      .Num("model_joint_seconds", model_joint_seconds)
      .Num("model_reference_seconds", model_reference_seconds)
      .End()
      .Bool("kernels_identical", kernels_identical)
      .Bool("model_identical", model_identical)
      .Bool("scores_identical", scores_identical)
      .Print();
  FUSER_CHECK(scores_identical)
      << "optimized scores diverged from the reference path";
  FUSER_CHECK(kernels_identical)
      << "dispatched kernels diverged from the scalar oracle";
  FUSER_CHECK(model_identical)
      << "the model build diverged from the full-corpus reference";
  return 0;
}

}  // namespace
}  // namespace fuser

int main(int argc, char** argv) { return fuser::Main(argc, argv); }
