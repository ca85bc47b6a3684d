// Correlation discovery at scale: exact O(S^2 * m) pairwise discovery vs
// the sketch estimator (stats/correlation_sketch.h) on synthetic datasets
// of 64 / 256 / 1024 sources with planted correlated groups.
//
// Prints a single JSON object (bench_util.h) on the last stdout line so
// CI and scripts/check_bench.py can track the speedups and the
// estimation-error contract:
//
//   ./bench_correlation [universe] [sketch_size] [reps] [scales_csv]
//
// Per scale S it reports exact_seconds_S, sketch_seconds_S,
// sketch_speedup_S, the abs joint-rate error quantiles of the raw
// estimates vs exact (err_p50/p95/max_S), error_within_bound_S (max
// error <= the Hoeffding bound for the configured sketch_size), and
// topk_agreement_S (overlap between the sketch's exact-rescored top-k
// and the exact ranking by the same significance signal). The
// acceptance bar is sketch_speedup_256 >= 10 with all error bounds
// holding.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/simd.h"
#include "common/timer.h"
#include "core/correlation.h"
#include "stats/correlation_sketch.h"
#include "synth/generator.h"

namespace fuser {
namespace {

std::vector<size_t> ParseScales(const char* csv) {
  std::vector<size_t> scales;
  const char* p = csv;
  while (*p != '\0') {
    char* end = nullptr;
    unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p) break;
    if (v > 0) scales.push_back(static_cast<size_t>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return scales;
}

/// The clustering pre-screen's significance signal, replicated here to
/// rank the *exact* pairs the same way the sketch path ranks its
/// estimates (core/clustering.cc and ComputePairwiseCorrelationsApprox).
std::vector<double> SignificanceStrength(
    const std::vector<PairwiseCorrelation>& pairs) {
  auto coverage_ratio = [&](bool on_true) {
    double obs = 0.0;
    double expected = 0.0;
    for (const PairwiseCorrelation& pc : pairs) {
      obs += static_cast<double>(on_true ? pc.joint_true_count
                                         : pc.joint_false_count);
      expected += on_true ? pc.indep_true_count : pc.indep_false_count;
    }
    return expected > 0.0 ? std::max(obs / expected, 1e-3) : 1.0;
  };
  const double kappa_true = coverage_ratio(true);
  const double kappa_false = coverage_ratio(false);
  auto deviation = [](double observed, double expected, double kappa) {
    const double baseline = kappa * expected;
    const double dev = std::fabs(std::log((observed + 0.5) / (baseline + 0.5)));
    return dev - 2.0 / std::sqrt(std::max(1.0, baseline));
  };
  std::vector<double> strength(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const PairwiseCorrelation& pc = pairs[i];
    strength[i] = std::max(
        deviation(static_cast<double>(pc.joint_true_count),
                  pc.indep_true_count, kappa_true),
        deviation(static_cast<double>(pc.joint_false_count),
                  pc.indep_false_count, kappa_false));
  }
  return strength;
}

struct ScaleResult {
  size_t num_sources = 0;
  size_t num_triples = 0;
  double exact_seconds = 0.0;
  double sketch_seconds = 0.0;
  double speedup = 0.0;
  double err_p50 = 0.0;
  double err_p95 = 0.0;
  double err_max = 0.0;
  bool error_within_bound = false;
  double topk_agreement = 0.0;
  double planted_recall = 0.0;
};

ScaleResult RunScale(size_t num_sources, size_t universe, size_t sketch_size,
                     int reps, double error_bound) {
  SyntheticConfig config =
      MakeManySourcesConfig(num_sources, universe, /*seed=*/42 + num_sources);
  auto dataset_or = GenerateSynthetic(config);
  FUSER_CHECK(dataset_or.ok()) << dataset_or.status();
  Dataset ds = std::move(*dataset_or);
  std::vector<SourceId> all(ds.num_sources());
  for (SourceId s = 0; s < ds.num_sources(); ++s) all[s] = s;
  const JointStatsOptions stats_options;

  ScaleResult result;
  result.num_sources = ds.num_sources();
  result.num_triples = ds.num_triples();

  // The generator's planted within-group pairs (the signal discovery
  // must find; also sizes the oracle budget below).
  std::set<std::pair<SourceId, SourceId>> planted_pairs;
  auto collect_groups = [&](const std::vector<GroupSpec>& groups) {
    for (const GroupSpec& g : groups) {
      for (size_t i = 0; i < g.members.size(); ++i) {
        for (size_t j = i + 1; j < g.members.size(); ++j) {
          planted_pairs.insert(
              {static_cast<SourceId>(std::min(g.members[i], g.members[j])),
               static_cast<SourceId>(std::max(g.members[i], g.members[j]))});
        }
      }
    }
  };
  collect_groups(config.groups_true);
  collect_groups(config.groups_false);

  // Exact path, min-of-reps.
  std::vector<PairwiseCorrelation> exact;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    auto pairs =
        ComputePairwiseCorrelations(ds, ds.labeled_mask(), all, stats_options);
    const double seconds = timer.ElapsedSeconds();
    FUSER_CHECK(pairs.ok()) << pairs.status();
    if (rep == 0 || seconds < result.exact_seconds) {
      result.exact_seconds = seconds;
    }
    exact = std::move(*pairs);
  }

  // Sketch path (with the exact-oracle top-k rescore it ships with),
  // min-of-reps.
  ApproxOptions approx;
  approx.sketch_size = sketch_size;
  // Oracle budget: at least the default, and 2x the planted signal so
  // the rescored set is not capped below what discovery should find.
  approx.exact_top_k = std::max<size_t>(64, 2 * planted_pairs.size());
  ApproxDiscoveryReport report;
  std::vector<PairwiseCorrelation> approx_pairs;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    auto pairs = ComputePairwiseCorrelationsApprox(
        ds, ds.labeled_mask(), all, stats_options, approx, &report);
    const double seconds = timer.ElapsedSeconds();
    FUSER_CHECK(pairs.ok()) << pairs.status();
    if (rep == 0 || seconds < result.sketch_seconds) {
      result.sketch_seconds = seconds;
    }
    approx_pairs = std::move(*pairs);
  }
  result.speedup = result.sketch_seconds > 0.0
                       ? result.exact_seconds / result.sketch_seconds
                       : 0.0;

  // Raw-estimate error quantiles: a separate run with the oracle rescore
  // disabled, so every pair's counts are pure sketch estimates. The
  // bounded quantity is the absolute joint *rate* error per class.
  ApproxOptions raw = approx;
  raw.exact_top_k = 0;
  auto raw_pairs = ComputePairwiseCorrelationsApprox(
      ds, ds.labeled_mask(), all, stats_options, raw, nullptr);
  FUSER_CHECK(raw_pairs.ok()) << raw_pairs.status();
  FUSER_CHECK_EQ(raw_pairs->size(), exact.size());
  const double total_true = static_cast<double>(report.total_true);
  const double total_false = static_cast<double>(report.total_false);
  std::vector<double> errors;
  errors.reserve(2 * exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    if (total_true > 0.0) {
      errors.push_back(std::fabs(static_cast<double>(
                           (*raw_pairs)[i].joint_true_count) -
                       static_cast<double>(exact[i].joint_true_count)) /
                       total_true);
    }
    if (total_false > 0.0) {
      errors.push_back(std::fabs(static_cast<double>(
                           (*raw_pairs)[i].joint_false_count) -
                       static_cast<double>(exact[i].joint_false_count)) /
                       total_false);
    }
  }
  if (!errors.empty()) {
    std::sort(errors.begin(), errors.end());
    result.err_p50 = errors[errors.size() / 2];
    result.err_p95 = errors[static_cast<size_t>(
        0.95 * static_cast<double>(errors.size() - 1))];
    result.err_max = errors.back();
  }
  result.error_within_bound = result.err_max <= error_bound;

  // Top-k agreement: the pairs the sketch path re-scored exactly
  // (estimated == false) vs the exact ranking by the same significance
  // signal, over the strongest 16 exact pairs (beyond the planted signal
  // both rankings order statistical noise, so deep-tail overlap is not
  // informative).
  std::set<std::pair<SourceId, SourceId>> rescored;
  for (const PairwiseCorrelation& pc : approx_pairs) {
    if (!pc.estimated) rescored.insert({pc.a, pc.b});
  }
  if (!rescored.empty()) {
    std::vector<double> strength = SignificanceStrength(exact);
    std::vector<size_t> order(exact.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    const size_t top_k =
        std::min({size_t{16}, rescored.size(), order.size()});
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(top_k),
                      order.end(), [&](size_t x, size_t y) {
                        if (strength[x] != strength[y]) {
                          return strength[x] > strength[y];
                        }
                        if (exact[x].a != exact[y].a) {
                          return exact[x].a < exact[y].a;
                        }
                        return exact[x].b < exact[y].b;
                      });
    size_t hits = 0;
    for (size_t i = 0; i < top_k; ++i) {
      const PairwiseCorrelation& pc = exact[order[i]];
      if (rescored.count({pc.a, pc.b}) > 0) ++hits;
    }
    result.topk_agreement =
        static_cast<double>(hits) / static_cast<double>(top_k);
  }

  // Planted-pair recall: every within-group pair the generator injected
  // should be in the oracle-rescored set.
  const size_t planted = planted_pairs.size();
  size_t planted_hits = 0;
  for (const auto& pair : planted_pairs) {
    if (rescored.count(pair) > 0) ++planted_hits;
  }
  result.planted_recall =
      planted > 0 ? static_cast<double>(planted_hits) /
                        static_cast<double>(planted)
                  : 1.0;

  std::printf(
      "scale %zu: %zu triples, exact %.4fs, sketch %.4fs (%.1fx), "
      "err p50/p95/max %.4f/%.4f/%.4f (bound %.4f), top-16 agreement %.2f, "
      "planted recall %.2f (%zu/%zu)\n",
      result.num_sources, result.num_triples, result.exact_seconds,
      result.sketch_seconds, result.speedup, result.err_p50, result.err_p95,
      result.err_max, error_bound, result.topk_agreement,
      result.planted_recall, planted_hits, planted);
  return result;
}

int Main(int argc, char** argv) {
  // Universe size per class-pair pool; triples nobody provides are
  // dropped, so the realized dataset is somewhat smaller.
  size_t universe = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 125000;
  size_t sketch_size =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2048;
  int reps = argc > 3 ? static_cast<int>(std::strtol(argv[3], nullptr, 10)) : 3;
  if (reps < 1) reps = 1;
  std::vector<size_t> scales =
      ParseScales(argc > 4 ? argv[4] : "64,256,1024");
  FUSER_CHECK(!scales.empty());

  const double error_bound = SketchErrorBound(sketch_size, /*delta=*/1e-4);
  std::printf("bench_correlation: universe=%zu sketch_size=%zu (bound %.4f) "
              "simd=%s\n",
              universe, sketch_size, error_bound,
              simd::LevelName(simd::ActiveLevel()));

  std::vector<ScaleResult> results;
  for (size_t scale : scales) {
    results.push_back(
        RunScale(scale, universe, sketch_size, reps, error_bound));
  }

  bench::JsonLine json("correlation");
  json.Int("universe", universe)
      .Int("sketch_size", sketch_size)
      .Num("error_bound", error_bound)
      .Str("simd_level", simd::LevelName(simd::ActiveLevel()));
  bool all_within_bound = true;
  for (const ScaleResult& r : results) {
    const std::string n = "_" + std::to_string(r.num_sources);
    json.Int("num_triples" + n, r.num_triples)
        .Num("exact_seconds" + n, r.exact_seconds)
        .Num("sketch_seconds" + n, r.sketch_seconds)
        .Num("sketch_speedup" + n, r.speedup, 2)
        .Num("err_p50" + n, r.err_p50)
        .Num("err_p95" + n, r.err_p95)
        .Num("err_max" + n, r.err_max)
        .Bool("error_within_bound" + n, r.error_within_bound)
        .Num("topk_agreement" + n, r.topk_agreement, 4)
        .Num("planted_recall" + n, r.planted_recall, 4);
    all_within_bound = all_within_bound && r.error_within_bound;
  }
  json.Print();
  FUSER_CHECK(all_within_bound)
      << "sketch estimation error exceeded the configured bound";
  return 0;
}

}  // namespace
}  // namespace fuser

int main(int argc, char** argv) { return fuser::Main(argc, argv); }
