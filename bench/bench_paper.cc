// The paper's experiments (Section 5) in one standalone binary:
//
//   ./bench_paper
//
// Prints the tables of Fig. 1 (the motivating example), Fig. 4 (REVERB,
// RESTAURANT, BOOK), Fig. 5a/5b (elastic levels, runtimes), Figs. 6-7
// (synthetic independent and correlated sources), the correlations
// discovered in Sec. 5.1, three ablations and a scaling sweep. The last
// stdout line is one JSON object (bench_util.h) holding every F-measure and
// AUC, the cluster counts, the ablation and scaling rows, and each "paper
// shape" sentence as a boolean claim_*.
//
// The three real datasets are simulated (synth/paper_datasets.h), so
// absolute numbers differ from the paper; the shape (who wins, what
// collapses) is the reproduction target. Inputs are seeded and scores are
// thread-invariant, so every F-measure, AUC and count is deterministic:
// scripts/check_bench.py gates them against BENCH_paper.json to 1e-9, and
// a claim_* that holds there must keep holding. A claim that does not hold
// on the simulated data is recorded as false. Timings, and the
// timing_claim_* shapes of Fig. 5b and the ablations, are reported only.
// Fig. 1's numbers are asserted by tests/paper_example_test.cc instead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/aggressive.h"
#include "core/clustering.h"
#include "core/correlation.h"
#include "core/elastic.h"
#include "core/engine.h"
#include "core/precrec.h"
#include "core/precrec_corr.h"
#include "model/split.h"
#include "stats/curves.h"
#include "synth/generator.h"
#include "synth/motivating_example.h"
#include "synth/paper_datasets.h"

namespace fuser {
namespace {

/// "close", "comparable", "flat": F-measures within this of each other.
constexpr double kClose = 0.05;
/// "recall collapses", "low recall": recall below this.
constexpr double kCollapsedRecall = 0.5;
/// "high quality", "do well": F-measure at least this.
constexpr double kHighF1 = 0.8;
/// Decimals of the gated values in the JSON (gated to 1e-9).
constexpr int kExact = 12;

/// JSON key fragment for a method name: "precrec-corr" -> "precrec_corr".
std::string KeyOf(std::string name) {
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

std::string Fixed(double value, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

MethodSpec Spec(const std::string& name) {
  auto spec = ParseMethodSpec(name);
  FUSER_CHECK(spec.ok()) << spec.status();
  return *spec;
}

Dataset Unwrap(StatusOr<Dataset> dataset) {
  FUSER_CHECK(dataset.ok()) << dataset.status();
  return std::move(*dataset);
}

std::unique_ptr<FusionEngine> PreparedEngine(const Dataset& dataset,
                                             const EngineOptions& options,
                                             const DynamicBitset& train) {
  auto engine = std::make_unique<FusionEngine>(&dataset, options);
  Status prepared = engine->Prepare(train);
  FUSER_CHECK(prepared.ok()) << prepared;
  return engine;
}

EvalSummary RunAndEvaluate(FusionEngine& engine, const MethodSpec& spec,
                           const DynamicBitset& eval_mask) {
  auto eval = engine.RunAndEvaluate(spec, eval_mask);
  FUSER_CHECK(eval.ok()) << spec.Name() << ": " << eval.status();
  return *eval;
}

struct MethodResult {
  std::string name;
  EvalSummary eval;
  std::vector<double> scores;
};

/// Runs `methods` on a prepared engine, evaluated on the full gold
/// standard (the paper's setup).
std::vector<MethodResult> RunMethods(FusionEngine& engine,
                                     const Dataset& dataset,
                                     const std::vector<std::string>& methods) {
  std::vector<MethodResult> results;
  for (const std::string& name : methods) {
    auto run = engine.Run(Spec(name));
    FUSER_CHECK(run.ok()) << name << ": " << run.status();
    auto eval = engine.Evaluate(*run, dataset.labeled_mask());
    FUSER_CHECK(eval.ok()) << name << ": " << eval.status();
    results.push_back({name, *eval, std::move(run->scores)});
  }
  return results;
}

const MethodResult& Find(const std::vector<MethodResult>& results,
                         const std::string& name) {
  for (const MethodResult& r : results) {
    if (r.name == name) return r;
  }
  FUSER_CHECK(false) << "no result for " << name;
  return results.front();
}

/// True when `name` scores at least as high as every other method on
/// `metric` (ties count as best).
bool IsBest(const std::vector<MethodResult>& results, const std::string& name,
            double EvalSummary::*metric) {
  const double own = Find(results, name).eval.*metric;
  for (const MethodResult& r : results) {
    if (r.eval.*metric > own) return false;
  }
  return true;
}

bool BestAucs(const std::vector<MethodResult>& results,
              const std::string& name) {
  return IsBest(results, name, &EvalSummary::auc_pr) &&
         IsBest(results, name, &EvalSummary::auc_roc);
}

double Range(const std::vector<double>& values) {
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return *hi - *lo;
}

void PrintResultsTable(const std::string& title,
                       const std::vector<MethodResult>& results) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-14s %9s %9s %9s %9s %9s %10s\n", "method", "precision",
              "recall", "F1", "AUC-PR", "AUC-ROC", "time(s)");
  for (const MethodResult& r : results) {
    std::printf("%-14s %9.3f %9.3f %9.3f %9.3f %9.3f %10.4f\n",
                r.name.c_str(), r.eval.precision, r.eval.recall, r.eval.f1,
                r.eval.auc_pr, r.eval.auc_roc, r.eval.seconds);
  }
}

/// Prints a curve as (x y) pairs, subsampled to about `max_points`.
void PrintCurve(const std::string& label,
                const std::vector<CurvePoint>& curve,
                size_t max_points = 12) {
  std::printf("%s:", label.c_str());
  size_t step = curve.size() > max_points ? curve.size() / max_points : 1;
  for (size_t i = 0; i < curve.size(); i += step) {
    std::printf(" (%.2f,%.2f)", curve[i].x, curve[i].y);
  }
  if (!curve.empty()) {
    std::printf(" (%.2f,%.2f)", curve.back().x, curve.back().y);
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Fig. 1b/1c, Fig. 3 and the worked probabilities of Examples 3.3-4.10.
// ---------------------------------------------------------------------------

void PrintFigure1() {
  Dataset dataset = MakeMotivatingExample();
  auto quality = EstimateSourceQuality(dataset, dataset.labeled_mask(), {});
  FUSER_CHECK(quality.ok());
  std::printf("\n== Figure 1b: source quality ==\n");
  std::printf("%-6s %9s %9s %9s\n", "source", "precision", "recall",
              "fpr(q)");
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    std::printf("%-6s %9.2f %9.2f %9.2f\n",
                std::string(dataset.source_name(s)).c_str(),
                (*quality)[s].precision, (*quality)[s].recall,
                (*quality)[s].fpr);
  }
  std::vector<SourceId> all = {0, 1, 2, 3, 4};
  auto stats =
      EmpiricalJointStats::Create(dataset, dataset.labeled_mask(), all, {});
  FUSER_CHECK(stats.ok());
  std::printf("\n%-10s %10s %9s\n", "subset", "joint-prec", "joint-rec");
  struct Row {
    const char* name;
    Mask mask;
  };
  for (const Row& row : {Row{"S2S3", 0b00110}, Row{"S1S3", 0b00101},
                         Row{"S1S2S4", 0b01011}, Row{"S1S4S5", 0b11001}}) {
    JointQuality joint = (*stats)->Get(row.mask);
    std::printf("%-10s %10.2f %9.2f\n", row.name, joint.precision,
                joint.recall);
  }

  auto engine = PreparedEngine(dataset, {}, dataset.labeled_mask());
  PrintResultsTable(
      "Figure 1c + Section 2.3: voting vs PrecRec vs PrecRecCorr",
      RunMethods(*engine, dataset,
                 {"union-25", "union-50", "union-75", "precrec",
                  "precrec-corr"}));
  std::printf("(paper: union-25 F1=0.67, union-50 F1=0.77, union-75 "
              "F1=0.55, precrec F1=0.86, precrec-corr F1=0.91)\n");

  CorrelationModel model = MakeExampleModel();
  AggressiveFactors factors =
      ComputeAggressiveFactors(*model.cluster_stats[0]);
  std::printf("\n== Figure 3: aggressive correlation factors ==\n");
  std::printf("%-4s", "");
  for (int i = 1; i <= 5; ++i) std::printf(" %7s%d", "S", i);
  std::printf("\n%-4s", "C+");
  for (double c : factors.c_plus) std::printf(" %8.2f", c);
  std::printf("\n%-4s", "C-");
  for (double c : factors.c_minus) std::printf(" %8.2f", c);
  std::printf("\n(paper: C+ = 1, 1, 0.75, 1.5, 1.5; C- = 2, 1, 1, 3, 3)\n");

  auto indep = PrecRecScores(dataset, MakeExampleSourceQuality(), {});
  auto exact_plan = MakePrecRecCorrPlan(model, {});
  FUSER_CHECK(exact_plan.ok());
  auto exact = ScorePlan(dataset, model, *exact_plan);
  auto aggressive = AggressiveScores(dataset, model);
  FUSER_CHECK(indep.ok());
  FUSER_CHECK(exact.ok());
  FUSER_CHECK(aggressive.ok());
  std::printf("\n== Worked probabilities for t8 (false triple) ==\n");
  std::printf("independent (Ex 3.3):  Pr = %.2f   (paper: 0.62)\n",
              (*indep)[7]);
  std::printf("exact corr. (Ex 4.4):  Pr = %.2f   (paper: 0.37)\n",
              (*exact)[7]);
  std::printf("aggressive  (Ex 4.7):  Pr = %.2f   (paper: 0.23)\n",
              (*aggressive)[7]);
  for (int level = 0; level <= 1; ++level) {
    StatusOr<PatternScoringPlan> plan = MakeElasticPlan(model, level);
    FUSER_CHECK(plan.ok());
    double r = 0.0;
    double q = 0.0;
    FUSER_CHECK(plan->scorer(0, PatternKey{0b11011, 0b00100}, &r, &q).ok());
    std::printf("elastic level %d (Ex 4.10): mu = %.2f   (paper: %s)\n",
                level, r / q, level == 0 ? "0.6" : "0.59");
  }
}

// ---------------------------------------------------------------------------
// Fig. 4 (fusion quality), Fig. 5a (elastic levels) and Fig. 5b (runtimes)
// on the three simulated datasets, one prepared engine per dataset.
// ---------------------------------------------------------------------------

/// Fig. 4's lineup (cosine included: the paper names it as applicable).
const std::vector<std::string> kPaperLineup = {
    "union-25", "union-50", "union-75", "3estimates",
    "cosine",   "ltm",      "precrec",  "precrec-corr"};

constexpr int kMaxElasticLevel = 6;

struct RealDataset {
  std::string key;  // JSON prefix
  Dataset dataset;
  EngineOptions options;
  std::string title;
  std::string shape;  // the paper-shape line printed under the table
  std::vector<std::string> curve_methods;
  std::vector<MethodResult> results;  // kPaperLineup order
  /// Fig. 5a: aggressive, elastic levels 0..kMaxElasticLevel, exact.
  std::vector<double> fig5a_f1;
  double elastic3_seconds = 0.0;
};

std::vector<RealDataset> MakeRealDatasets() {
  std::vector<RealDataset> datasets(3);
  RealDataset& reverb = datasets[0];
  reverb.key = "reverb";
  reverb.dataset = Unwrap(MakeReverbDataset(42));
  reverb.options.ltm.burn_in = 50;
  reverb.options.ltm.samples = 50;
  reverb.title = "Figure 4a: REVERB (simulated)";
  reverb.shape =
      "(paper shape: precrec-corr best F1/AUCs by a wide margin; "
      "3estimates/cosine recall collapses; union-75 recall collapses; low "
      "absolute quality overall)";
  reverb.curve_methods = {"union-50", "ltm", "precrec", "precrec-corr"};

  RealDataset& restaurant = datasets[1];
  restaurant.key = "restaurant";
  restaurant.dataset = Unwrap(MakeRestaurantDataset(42));
  restaurant.title = "Figure 4b: RESTAURANT (simulated)";
  restaurant.shape =
      "(paper shape: high quality across methods; precrec-corr best AUCs; "
      "3estimates recall collapses)";
  restaurant.curve_methods = {"union-50", "ltm", "precrec", "precrec-corr"};

  RealDataset& book = datasets[2];
  book.key = "book";
  book.dataset = Unwrap(MakeBookDataset(42));
  book.options.model.enable_clustering = true;  // >64 sources need clusters
  book.options.model.clustering.max_cluster_size = 20;
  // A seller has an opinion only about books it lists (Section 2.2).
  book.options.model.use_scopes = true;
  book.options.num_threads = 4;
  // The paper's 10-iteration LTM budget on its largest dataset.
  book.options.ltm.burn_in = 5;
  book.options.ltm.samples = 5;
  book.title = "Figure 4c: BOOK (simulated)";
  book.shape =
      "(paper shape: precrec-corr best; ltm/union-25 comparable to precrec "
      "on F1 but weaker curves)";
  book.curve_methods = {"union-50", "precrec", "precrec-corr"};
  return datasets;
}

void RunRealDataset(RealDataset* d) {
  const DynamicBitset& gold = d->dataset.labeled_mask();
  auto engine = PreparedEngine(d->dataset, d->options, gold);
  d->results = RunMethods(*engine, d->dataset, kPaperLineup);
  PrintResultsTable(d->title, d->results);
  std::printf("%s\n", d->shape.c_str());
  for (const std::string& name : d->curve_methods) {
    auto curves = ComputeRankedCurves(d->dataset, Find(d->results, name).scores,
                                      gold);
    FUSER_CHECK(curves.ok()) << curves.status();
    PrintCurve("  PR  " + name, curves->pr);
    PrintCurve("  ROC " + name, curves->roc);
  }

  d->fig5a_f1.push_back(
      RunAndEvaluate(*engine, {MethodKind::kAggressive}, gold).f1);
  for (int level = 0; level <= kMaxElasticLevel; ++level) {
    MethodSpec spec{MethodKind::kElastic};
    spec.elastic_level = level;
    const EvalSummary eval = RunAndEvaluate(*engine, spec, gold);
    d->fig5a_f1.push_back(eval.f1);
    if (level == 3) d->elastic3_seconds = eval.seconds;
  }
  d->fig5a_f1.push_back(Find(d->results, "precrec-corr").eval.f1);
}

void ReportFigure4(const std::vector<RealDataset>& datasets,
                   bench::JsonLine* json) {
  for (const RealDataset& d : datasets) {
    for (const MethodResult& r : d.results) {
      const std::string key = d.key + "_" + KeyOf(r.name);
      json->Num(key + "_f1", r.eval.f1, kExact)
          .Num(key + "_auc_pr", r.eval.auc_pr, kExact)
          .Num(key + "_auc_roc", r.eval.auc_roc, kExact);
    }
  }
  const auto& reverb = datasets[0].results;
  const auto& restaurant = datasets[1].results;
  const auto& book = datasets[2].results;
  auto f1 = [](const std::vector<MethodResult>& results,
               const std::string& name) { return Find(results, name).eval.f1; };
  auto recall = [](const std::vector<MethodResult>& results,
                   const std::string& name) {
    return Find(results, name).eval.recall;
  };
  auto best_f1 = [](const std::vector<MethodResult>& results) {
    double best = 0.0;
    for (const MethodResult& r : results) best = std::max(best, r.eval.f1);
    return best;
  };
  auto comparable_to_precrec = [&](const std::vector<MethodResult>& results,
                                   const std::string& name) {
    return std::abs(f1(results, name) - f1(results, "precrec")) <= kClose;
  };
  auto worse_curves_than_precrec = [](const std::vector<MethodResult>& results,
                                      const std::string& name) {
    const EvalSummary& own = Find(results, name).eval;
    const EvalSummary& precrec = Find(results, "precrec").eval;
    return own.auc_pr < precrec.auc_pr && own.auc_roc < precrec.auc_roc;
  };

  // Fig. 4a: precrec and precrec-corr clearly beat 3estimates and ltm on
  // F1; precrec-corr is best on F1 and the AUCs; union-25 is the best
  // union, close to precrec on F1 but worse on the curves; 3estimates,
  // cosine and union-75 recall collapses; low absolute quality overall.
  json->Bool("claim_reverb_precrec_beats_3estimates_ltm_f1",
             std::min(f1(reverb, "precrec"), f1(reverb, "precrec-corr")) >
                 std::max(f1(reverb, "3estimates"), f1(reverb, "ltm")))
      .Bool("claim_reverb_corr_best_f1",
            IsBest(reverb, "precrec-corr", &EvalSummary::f1))
      .Bool("claim_reverb_corr_best_auc", BestAucs(reverb, "precrec-corr"))
      .Bool("claim_reverb_union25_best_union",
            f1(reverb, "union-25") >= f1(reverb, "union-50") &&
                f1(reverb, "union-25") >= f1(reverb, "union-75"))
      .Bool("claim_reverb_union25_close_to_precrec_f1",
            comparable_to_precrec(reverb, "union-25"))
      .Bool("claim_reverb_union25_worse_curves_than_precrec",
            worse_curves_than_precrec(reverb, "union-25"))
      .Bool("claim_reverb_3estimates_cosine_recall_collapses",
            recall(reverb, "3estimates") < kCollapsedRecall &&
                recall(reverb, "cosine") < kCollapsedRecall)
      .Bool("claim_reverb_union75_recall_collapses",
            recall(reverb, "union-75") < kCollapsedRecall)
      .Bool("claim_reverb_low_quality",
            best_f1(reverb) < best_f1(restaurant) &&
                best_f1(reverb) < best_f1(book));

  // Fig. 4b: most methods do well; ltm and union-25 are comparable to
  // precrec on F1; precrec-corr has the best AUCs; 3estimates recall
  // collapses.
  size_t high_quality = 0;
  for (const MethodResult& r : restaurant) {
    if (r.eval.f1 >= kHighF1) ++high_quality;
  }
  json->Bool("claim_restaurant_high_quality",
             2 * high_quality > restaurant.size())
      .Bool("claim_restaurant_ltm_union25_comparable_f1",
            comparable_to_precrec(restaurant, "ltm") &&
                comparable_to_precrec(restaurant, "union-25"))
      .Bool("claim_restaurant_corr_best_auc",
            BestAucs(restaurant, "precrec-corr"))
      .Bool("claim_restaurant_3estimates_recall_collapses",
            recall(restaurant, "3estimates") < kCollapsedRecall);

  // Fig. 4c: precrec-corr best; 3estimates low recall; ltm and union-25
  // comparable to precrec on F1 but with weaker curves.
  json->Bool("claim_book_corr_best_f1",
             IsBest(book, "precrec-corr", &EvalSummary::f1))
      .Bool("claim_book_corr_best_auc", BestAucs(book, "precrec-corr"))
      .Bool("claim_book_3estimates_low_recall",
            recall(book, "3estimates") < kCollapsedRecall)
      .Bool("claim_book_ltm_union25_comparable_f1",
            comparable_to_precrec(book, "ltm") &&
                comparable_to_precrec(book, "union-25"))
      .Bool("claim_book_ltm_union25_weaker_curves",
            worse_curves_than_precrec(book, "ltm") &&
                worse_curves_than_precrec(book, "union-25"));
}

void ReportFigure5a(const std::vector<RealDataset>& datasets,
                    bench::JsonLine* json) {
  std::printf("\n== Figure 5a: elastic approximation levels (F-measure) "
              "==\n");
  std::printf("%-12s %9s", "dataset", "aggress.");
  for (int level = 0; level <= kMaxElasticLevel; ++level) {
    std::printf("   level-%d", level);
  }
  std::printf(" %9s\n", "exact");
  bool aggressive_below_exact = true;
  bool level3_close = true;
  for (const RealDataset& d : datasets) {
    std::printf("%-12s", d.key.c_str());
    for (double f1 : d.fig5a_f1) std::printf(" %9.3f", f1);
    std::printf("\n");
    const double exact = d.fig5a_f1.back();
    json->Num("fig5a_" + d.key + "_aggressive_f1", d.fig5a_f1[0], kExact);
    for (int level = 0; level <= kMaxElasticLevel; ++level) {
      json->Num("fig5a_" + d.key + "_level" + std::to_string(level) + "_f1",
                d.fig5a_f1[1 + level], kExact);
    }
    json->Num("fig5a_" + d.key + "_exact_f1", exact, kExact);
    if (d.key != "book") {
      aggressive_below_exact &= d.fig5a_f1[0] < exact;
    }
    level3_close &= std::abs(d.fig5a_f1[1 + 3] - exact) <= kClose;
  }
  std::printf("(paper shape: aggressive below exact on reverb/restaurant; "
              "level-3 close to exact everywhere)\n");
  json->Bool("claim_fig5a_aggressive_below_exact", aggressive_below_exact)
      .Bool("claim_fig5a_level3_close_to_exact", level3_close);
}

/// Fig. 5b reuses the timed runs of Fig. 4 and Fig. 5a: FusionRun.seconds
/// covers the scoring only, never the shared model and grouping.
void ReportFigure5b(const std::vector<RealDataset>& datasets,
                    bench::JsonLine* json) {
  std::vector<std::string> methods = kPaperLineup;
  methods.push_back("elastic-3");
  auto seconds = [&](const RealDataset& d, const std::string& name) {
    return name == "elastic-3" ? d.elastic3_seconds
                               : Find(d.results, name).eval.seconds;
  };
  std::printf("\n== Figure 5b: runtimes in seconds ==\n");
  std::printf("%-14s %10s %12s %10s\n", "method", "reverb", "restaurant",
              "book");
  for (const std::string& name : methods) {
    std::printf("%-14s %10.4f %12.4f %10.4f\n", name.c_str(),
                seconds(datasets[0], name), seconds(datasets[1], name),
                seconds(datasets[2], name));
    for (const RealDataset& d : datasets) {
      json->Num("fig5b_" + d.key + "_" + KeyOf(name) + "_seconds",
                seconds(d, name));
    }
  }
  std::printf("(paper shape: union fastest; ltm slowest of the baselines; "
              "precrec-corr most expensive, elastic-3 cheaper)\n");
  bool union_fastest = true;
  bool ltm_slowest_baseline = true;
  bool corr_most_expensive = true;
  bool elastic3_cheaper = true;
  for (const RealDataset& d : datasets) {
    auto t = [&](const std::string& name) { return seconds(d, name); };
    const double slowest_union =
        std::max({t("union-25"), t("union-50"), t("union-75")});
    for (const std::string& name : methods) {
      if (name.rfind("union-", 0) != 0) {
        union_fastest &= slowest_union <= t(name);
      }
    }
    ltm_slowest_baseline &=
        t("ltm") >= std::max({slowest_union, t("3estimates"), t("cosine")});
    for (const std::string& name : kPaperLineup) {
      corr_most_expensive &= t("precrec-corr") >= t(name);
    }
    elastic3_cheaper &= t("elastic-3") < t("precrec-corr");
  }
  json->Bool("timing_claim_union_fastest", union_fastest)
      .Bool("timing_claim_ltm_slowest_baseline", ltm_slowest_baseline)
      .Bool("timing_claim_corr_most_expensive", corr_most_expensive)
      .Bool("timing_claim_elastic3_cheaper_than_exact", elastic3_cheaper);
}

// ---------------------------------------------------------------------------
// Figs. 6-7: synthetic sources, mean F-measure over 10 generator seeds (as
// in the paper: "we averaged 10 repetitions").
// ---------------------------------------------------------------------------

constexpr int kReps = 10;

/// Mean F-measure of each of `methods` over kReps datasets from `config`.
std::vector<double> MeanF1s(const std::vector<std::string>& methods,
                            const std::function<SyntheticConfig(int)>& config) {
  EngineOptions options;
  options.ltm.burn_in = 30;
  options.ltm.samples = 30;
  std::vector<std::vector<double>> f1s(methods.size());
  for (int rep = 0; rep < kReps; ++rep) {
    Dataset dataset = Unwrap(GenerateSynthetic(config(rep)));
    auto engine = PreparedEngine(dataset, options, dataset.labeled_mask());
    for (size_t m = 0; m < methods.size(); ++m) {
      f1s[m].push_back(
          RunAndEvaluate(*engine, Spec(methods[m]), dataset.labeled_mask())
              .f1);
    }
  }
  std::vector<double> means;
  for (const std::vector<double>& values : f1s) means.push_back(Mean(values));
  return means;
}

struct Sweep {
  const char* key;
  const char* title;
  std::vector<double> precisions;
  std::vector<double> recalls;
  double fraction_true;
};

void ReportFigure6(bench::JsonLine* json) {
  const std::vector<std::string> methods = {
      "union-50", "union-25", "union-75", "3estimates",
      "ltm",      "precrec",  "precrec-corr"};
  const std::vector<Sweep> sweeps = {
      {"fig6a", "Figure 6a: low precision (p=0.1), 25% true",
       {0.1, 0.1, 0.1, 0.1, 0.1}, {0.025, 0.075, 0.125, 0.175, 0.225}, 0.25},
      {"fig6b", "Figure 6b: high precision (p=0.75), 50% true",
       {0.75, 0.75, 0.75, 0.75, 0.75}, {0.075, 0.225, 0.375, 0.525, 0.675},
       0.5},
      {"fig6c", "Figure 6c: low recall (r=0.25), 25% true",
       {0.1, 0.3, 0.5, 0.7, 0.9}, {0.25, 0.25, 0.25, 0.25, 0.25}, 0.25},
  };
  const size_t kUnion25 = 1, k3Estimates = 3, kLtm = 4, kPrecRec = 5,
               kCorr = 6;
  bool grow_with_quality = true;
  bool union25_fragile = true;
  bool ltm_flat = true;
  bool three_estimates_trails = true;
  for (const Sweep& sweep : sweeps) {
    const size_t points = sweep.precisions.size();
    // f1[point][method]
    std::vector<std::vector<double>> f1;
    for (size_t i = 0; i < points; ++i) {
      f1.push_back(MeanF1s(methods, [&](int rep) {
        return MakeIndependentConfig(
            5, 1000, sweep.fraction_true, sweep.precisions[i],
            sweep.recalls[i], 1000 + static_cast<uint64_t>(rep) * 7919);
      }));
    }
    std::printf("\n== %s ==\n", sweep.title);
    std::printf("%-14s", "method");
    for (size_t i = 0; i < points; ++i) {
      std::printf("  p=%.2f/r=%.3f", sweep.precisions[i], sweep.recalls[i]);
    }
    std::printf("\n");
    for (size_t m = 0; m < methods.size(); ++m) {
      std::printf("%-14s", methods[m].c_str());
      for (size_t i = 0; i < points; ++i) std::printf("  %13.3f", f1[i][m]);
      std::printf("\n");
    }

    bool corr_leads = true;
    std::vector<double> ltm;
    for (size_t i = 0; i < points; ++i) {
      const std::string point = std::string(sweep.key) + "_p" +
                                Fixed(sweep.precisions[i], 2) + "_r" +
                                Fixed(sweep.recalls[i], 3) + "_";
      for (size_t m = 0; m < methods.size(); ++m) {
        json->Num(point + KeyOf(methods[m]) + "_f1", f1[i][m], kExact);
        corr_leads &= f1[i][kCorr] >= f1[i][m];
      }
      three_estimates_trails &= f1[i][k3Estimates] < f1[i][kPrecRec];
      ltm.push_back(f1[i][kLtm]);
    }
    json->Bool("claim_" + std::string(sweep.key) + "_corr_leads", corr_leads);
    grow_with_quality &= f1.back()[kPrecRec] > f1.front()[kPrecRec] &&
                         f1.back()[kCorr] > f1.front()[kCorr];
    union25_fragile &= f1.front()[kUnion25] < f1.front()[kPrecRec];
    ltm_flat &= Range(ltm) <= kClose;
  }
  std::printf("\n(paper shape: precrec/precrec-corr lead and grow with "
              "quality; union-25 fragile at low quality; ltm flat)\n");
  json->Bool("claim_fig6_precrec_methods_grow_with_quality", grow_with_quality)
      .Bool("claim_fig6_union25_fragile_at_low_quality", union25_fragile)
      .Bool("claim_fig6_ltm_flat", ltm_flat)
      .Bool("claim_fig6_3estimates_trails_precrec", three_estimates_trails);
}

void ReportFigure7(bench::JsonLine* json) {
  const std::vector<std::string> methods = {
      "union-25", "union-50", "union-75", "3estimates",
      "ltm",      "precrec",  "precrec-corr"};
  // Four of five sources positively correlated on true triples.
  const std::vector<double> correlated = MeanF1s(methods, [](int rep) {
    SyntheticConfig config = MakeIndependentConfig(
        5, 1000, 0.4, 0.55, 0.4, 2000 + static_cast<uint64_t>(rep) * 104729);
    config.groups_true = {{{0, 1, 2, 3}, 0.9}};
    return config;
  });
  // Complementary mistakes: each source draws false triples from its own
  // slice of the false universe.
  const std::vector<double> anti = MeanF1s(methods, [](int rep) {
    SyntheticConfig config = MakeIndependentConfig(
        5, 1000, 0.4, 0.55, 0.4, 2000 + static_cast<uint64_t>(rep) * 104729);
    config.false_partition_fractions = {0.2, 0.2, 0.2, 0.2, 0.2};
    for (size_t s = 0; s < 5; ++s) {
      config.sources[s].false_partition = static_cast<int>(s);
    }
    return config;
  });
  std::printf("\n== Figure 7: correlated sources (mean F-measure, %d reps) "
              "==\n",
              kReps);
  std::printf("%-14s %12s %17s\n", "method", "correlation",
              "anti-correlation");
  for (size_t m = 0; m < methods.size(); ++m) {
    std::printf("%-14s %12.3f %17.3f\n", methods[m].c_str(), correlated[m],
                anti[m]);
    json->Num("fig7_correlation_" + KeyOf(methods[m]) + "_f1", correlated[m],
              kExact)
        .Num("fig7_anti_correlation_" + KeyOf(methods[m]) + "_f1", anti[m],
             kExact);
  }
  std::printf("(paper shape: precrec-corr best in both columns)\n");
  // precrec-corr is the last method; a tie counts as best.
  json->Bool("claim_fig7_corr_best_correlation",
             correlated.back() >= *std::max_element(correlated.begin(),
                                                    correlated.end()))
      .Bool("claim_fig7_corr_best_anti_correlation",
            anti.back() >= *std::max_element(anti.begin(), anti.end()));
}

// ---------------------------------------------------------------------------
// Sec. 5.1 "Discovered correlations": the structure the model finds in
// each simulated dataset.
// ---------------------------------------------------------------------------

void PrintPairs(const Dataset& dataset,
                const std::vector<PairwiseCorrelation>& pairs, bool on_true) {
  for (const PairwiseCorrelation& pc : pairs) {
    std::printf("(%s,%s C=%.2f) ",
                std::string(dataset.source_name(pc.a)).c_str(),
                std::string(dataset.source_name(pc.b)).c_str(),
                on_true ? pc.factors.on_true : pc.factors.on_false);
  }
  std::printf("\n");
}

std::vector<SourceId> AllSources(const Dataset& dataset) {
  std::vector<SourceId> all(dataset.num_sources());
  for (SourceId s = 0; s < dataset.num_sources(); ++s) all[s] = s;
  return all;
}

void PrintTopPairs(const Dataset& dataset, const char* title) {
  auto pairs = ComputePairwiseCorrelations(dataset, dataset.labeled_mask(),
                                           AllSources(dataset), {});
  FUSER_CHECK(pairs.ok());
  CorrelationRanking ranking = RankCorrelations(*pairs, 3);
  std::printf("\n-- %s --\n", title);
  std::printf("  strongest true-correlations: ");
  PrintPairs(dataset, ranking.strongest_true, true);
  std::printf("  most anti-correlated (true): ");
  PrintPairs(dataset, ranking.most_anti_true, true);
  std::printf("  strongest false-correlations: ");
  PrintPairs(dataset, ranking.strongest_false, false);
  std::printf("  most anti-correlated (false): ");
  PrintPairs(dataset, ranking.most_anti_false, false);
}

/// Prints and returns the number of non-trivial clusters.
size_t PrintClusters(const Dataset& dataset, const char* title,
                     ClusteringOptions options) {
  auto clustering = ClusterSourcesByCorrelation(
      dataset, dataset.labeled_mask(), {}, options);
  FUSER_CHECK(clustering.ok());
  std::vector<size_t> sizes;
  for (const auto& cluster : clustering->clusters) {
    if (cluster.size() > 1) sizes.push_back(cluster.size());
  }
  std::sort(sizes.rbegin(), sizes.rend());
  std::printf("  %s: %zu non-trivial clusters, sizes:", title, sizes.size());
  for (size_t s : sizes) std::printf(" %zu", s);
  std::printf("\n");
  return sizes.size();
}

void ReportDiscoveredCorrelations(const std::vector<RealDataset>& datasets,
                                  bench::JsonLine* json) {
  const Dataset& reverb = datasets[0].dataset;
  const Dataset& restaurant = datasets[1].dataset;
  const Dataset& book = datasets[2].dataset;
  std::printf("\n== Section 5.1: discovered correlations ==\n");
  PrintTopPairs(reverb,
                "REVERB (paper: 2-group + 3-group on true; two pairs on "
                "false; one source anti-correlated with all)");
  json->Int("reverb_clusters", PrintClusters(reverb, "reverb clusters", {}));
  PrintTopPairs(restaurant,
                "RESTAURANT (paper: 4-group on true; anti-correlated pair; "
                "6-group on false)");
  json->Int("restaurant_clusters",
            PrintClusters(restaurant, "restaurant clusters", {}));
  ClusteringOptions book_options;
  book_options.max_cluster_size = 25;
  std::printf("\n-- BOOK (paper: clusters of ~22/3/2 on true, ~22/3/2/2 on "
              "false) --\n");
  json->Int("book_clusters",
            PrintClusters(book, "book clusters", book_options));

  // The pairwise pass over the paper's largest dataset.
  WallTimer timer;
  auto pairs = ComputePairwiseCorrelations(book, book.labeled_mask(),
                                           AllSources(book), {});
  FUSER_CHECK(pairs.ok());
  json->Int("book_sources", book.num_sources())
      .Num("book_pairwise_seconds", timer.ElapsedSeconds());
}

// ---------------------------------------------------------------------------
// Ablations: A1 clustering choices (BOOK), A2 alpha (REVERB), A4 training
// fraction (synthetic, held-out evaluation).
// ---------------------------------------------------------------------------

struct ClusteringCell {
  size_t clusters = 0;  // non-trivial
  size_t largest = 0;
  double f1 = 0.0;
  double build_seconds = 0.0;
  double score_seconds = 0.0;
};

/// Builds and scores one clustering choice; `keep` (optional) receives the
/// prepared engine, model built.
ClusteringCell RunClusteringCell(
    const Dataset& dataset, double threshold, size_t max_size,
    std::unique_ptr<FusionEngine>* keep = nullptr) {
  EngineOptions options;
  options.model.enable_clustering = true;
  options.model.use_scopes = true;
  options.model.clustering.correlation_threshold = threshold;
  options.model.clustering.max_cluster_size = max_size;
  options.num_threads = 4;
  auto engine = PreparedEngine(dataset, options, dataset.labeled_mask());
  ClusteringCell cell;
  WallTimer build_timer;
  auto model = engine->GetModel();
  FUSER_CHECK(model.ok()) << model.status();
  cell.build_seconds = build_timer.ElapsedSeconds();
  for (const auto& cluster : (*model)->clustering.clusters) {
    if (cluster.size() > 1) ++cell.clusters;
    cell.largest = std::max(cell.largest, cluster.size());
  }
  const EvalSummary eval = RunAndEvaluate(
      *engine, {MethodKind::kPrecRecCorr}, dataset.labeled_mask());
  cell.f1 = eval.f1;
  cell.score_seconds = eval.seconds;
  std::printf("%9.2f %8zu %9zu %8zu %8.3f %10.3f %10.3f\n", threshold,
              max_size, cell.clusters, cell.largest, cell.f1,
              cell.build_seconds, cell.score_seconds);
  if (keep != nullptr) *keep = std::move(engine);
  return cell;
}

void ReportCell(const std::string& key, const ClusteringCell& cell,
                bench::JsonLine* json) {
  json->Int(key + "_clusters", cell.clusters)
      .Int(key + "_largest", cell.largest)
      .Num(key + "_f1", cell.f1, kExact)
      .Num(key + "_build_seconds", cell.build_seconds)
      .Num(key + "_score_seconds", cell.score_seconds);
}

void ReportClusteringAblation(const Dataset& book, bench::JsonLine* json) {
  std::printf("\n== A1: clustering ablation on BOOK (precrec-corr) ==\n");
  std::printf("%9s %8s %9s %8s %8s %10s %10s\n", "threshold", "max_size",
              "clusters", "largest", "F1", "build(s)", "score(s)");
  std::vector<ClusteringCell> by_threshold;
  const std::vector<double> thresholds = {0.1, 0.25, 0.5, 1.0};
  // The engines of thresholds 0.10 and 0.25, for the timing claim.
  std::unique_ptr<FusionEngine> compared[2];
  for (size_t i = 0; i < thresholds.size(); ++i) {
    by_threshold.push_back(RunClusteringCell(
        book, thresholds[i], 20, i < 2 ? &compared[i] : nullptr));
    ReportCell("clustering_threshold_" + Fixed(thresholds[i], 2),
               by_threshold.back(), json);
  }
  std::vector<ClusteringCell> by_cap;
  const std::vector<size_t> caps = {2, 5, 10, 20, 40};
  for (size_t cap : caps) {
    by_cap.push_back(RunClusteringCell(book, 0.25, cap));
    ReportCell("clustering_cap_" + std::to_string(cap), by_cap.back(), json);
  }
  std::printf("(shape: too-low thresholds over-merge and slow scoring; "
              "caps below the true cartel size cost accuracy)\n");
  // One scoring run takes a few ms at either threshold, so a single run
  // each decides nothing: compare the medians of alternating runs over
  // the two models already built.
  constexpr int kScoringRounds = 7;
  std::vector<double> score_seconds[2];
  for (int round = 0; round < kScoringRounds; ++round) {
    for (int i = 0; i < 2; ++i) {
      auto run = compared[i]->Run({MethodKind::kPrecRecCorr});
      FUSER_CHECK(run.ok()) << run.status();
      score_seconds[i].push_back(run->seconds);
    }
  }
  const double median_low = bench::Median(score_seconds[0]);
  const double median_high = bench::Median(score_seconds[1]);
  std::printf("threshold 0.10 vs 0.25, median of %d alternating scoring runs: "
              "%.2f vs %.2f ms\n",
              kScoringRounds, median_low * 1e3, median_high * 1e3);
  // BOOK's largest copying group has ~22 sellers: every cap but 40 is
  // below it.
  bool small_caps_cost = true;
  for (size_t i = 0; i + 1 < caps.size(); ++i) {
    small_caps_cost &= by_cap[i].f1 < by_cap.back().f1;
  }
  json->Bool("claim_clustering_low_threshold_merges_more",
             by_threshold[0].clusters > by_threshold[1].clusters)
      .Bool("claim_clustering_small_caps_cost_accuracy", small_caps_cost)
      .Bool("timing_claim_low_threshold_slows_scoring",
            median_low > median_high);
}

void ReportAlphaAblation(const Dataset& reverb, bench::JsonLine* json) {
  std::printf("\n== A2: alpha sensitivity on REVERB ==\n");
  std::printf("%7s %12s %14s\n", "alpha", "precrec-F1", "precrec-corr-F1");
  std::vector<double> precrec_f1;
  std::vector<double> corr_f1;
  for (double alpha : {0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9}) {
    EngineOptions options;
    options.model.alpha = alpha;
    auto engine = PreparedEngine(reverb, options, reverb.labeled_mask());
    precrec_f1.push_back(RunAndEvaluate(*engine, {MethodKind::kPrecRec},
                                        reverb.labeled_mask())
                             .f1);
    corr_f1.push_back(RunAndEvaluate(*engine, {MethodKind::kPrecRecCorr},
                                     reverb.labeled_mask())
                          .f1);
    std::printf("%7.2f %12.3f %14.3f\n", alpha, precrec_f1.back(),
                corr_f1.back());
    const std::string key = "alpha_" + Fixed(alpha, 2);
    json->Num(key + "_precrec_f1", precrec_f1.back(), kExact)
        .Num(key + "_precrec_corr_f1", corr_f1.back(), kExact);
  }
  std::printf("(shape: precrec is sensitive to alpha because Theorem 3.5's "
              "q scales with alpha/(1-alpha); the calibrated exact method "
              "is nearly flat)\n");
  json->Bool("claim_alpha_precrec_sensitive_corr_flat",
             Range(precrec_f1) > kClose && Range(corr_f1) <= kClose);
}

void ReportTrainingAblation(bench::JsonLine* json) {
  SyntheticConfig config =
      MakeIndependentConfig(6, 4000, 0.35, 0.6, 0.4, /*seed=*/5);
  config.groups_true = {{{0, 1, 2}, 0.85}};
  config.groups_false = {{{3, 4}, 0.8}};
  Dataset dataset = Unwrap(GenerateSynthetic(config));
  // Fixed evaluation half; the training half is subsampled.
  Rng split_rng(99);
  auto halves = StratifiedSplit(dataset, 0.5, &split_rng);
  FUSER_CHECK(halves.ok());

  std::printf("\n== A4: training fraction vs F1 (held-out eval) ==\n");
  std::printf("%10s %12s %10s %14s\n", "fraction", "train-size",
              "precrec-F1", "precrec-corr-F1");
  std::vector<double> precrec_f1;
  std::vector<double> corr_f1;
  for (double fraction : {0.05, 0.1, 0.25, 0.5, 1.0}) {
    DynamicBitset train(dataset.num_triples());
    Rng rng(static_cast<uint64_t>(fraction * 1000) + 3);
    halves->train.ForEach([&](size_t t) {
      if (rng.NextBernoulli(fraction)) train.Set(t);
    });
    if (!train.Any()) continue;
    auto engine = PreparedEngine(dataset, {}, train);
    precrec_f1.push_back(
        RunAndEvaluate(*engine, {MethodKind::kPrecRec}, halves->test).f1);
    corr_f1.push_back(
        RunAndEvaluate(*engine, {MethodKind::kPrecRecCorr}, halves->test).f1);
    std::printf("%10.2f %12zu %10.3f %14.3f\n", fraction, train.Count(),
                precrec_f1.back(), corr_f1.back());
    const std::string key = "training_" + Fixed(fraction, 2);
    json->Int(key + "_train_size", train.Count())
        .Num(key + "_precrec_f1", precrec_f1.back(), kExact)
        .Num(key + "_precrec_corr_f1", corr_f1.back(), kExact);
  }
  std::printf("(shape: precrec stabilizes with little training data; the "
              "joint statistics of precrec-corr profit from more)\n");
  bool precrec_stable = true;
  for (double f1 : precrec_f1) {
    precrec_stable &= std::abs(f1 - precrec_f1.back()) <= kClose;
  }
  json->Bool("claim_training_precrec_stable", precrec_stable)
      .Bool("claim_training_corr_profits_from_more_data",
            corr_f1.back() - corr_f1.front() > kClose);
}

// ---------------------------------------------------------------------------
// A3: scaling with the number of triples and sources, and of the elastic
// approximation with its level (Proposition 4.11's O(m * n^lambda)). One
// timed Run per size; the model and grouping are built outside the clock.
// ---------------------------------------------------------------------------

Dataset MakeScaled(size_t sources, size_t triples) {
  SyntheticConfig config = MakeIndependentConfig(
      sources, triples, 0.35, 0.6, std::min(0.4, 8.0 / sources), 17);
  if (sources >= 4) config.groups_true = {{{0, 1, 2, 3}, 0.8}};
  return Unwrap(GenerateSynthetic(config));
}

double TimedRun(FusionEngine& engine, const MethodSpec& spec) {
  auto run = engine.Run(spec);
  FUSER_CHECK(run.ok()) << spec.Name() << ": " << run.status();
  return run->seconds;
}

void ReportScaling(bench::JsonLine* json) {
  std::printf("\n== A3: scaling (seconds of one Run) ==\n");
  std::printf("%-10s %10s %13s %11s\n", "triples", "precrec", "precrec-corr",
              "aggressive");
  for (size_t triples : {1000, 4000, 16000, 64000}) {
    Dataset dataset = MakeScaled(6, triples);
    auto engine = PreparedEngine(dataset, {}, dataset.labeled_mask());
    const double precrec = TimedRun(*engine, {MethodKind::kPrecRec});
    const double corr = TimedRun(*engine, {MethodKind::kPrecRecCorr});
    const double aggressive = TimedRun(*engine, {MethodKind::kAggressive});
    std::printf("%-10zu %10.4f %13.4f %11.4f\n", triples, precrec, corr,
                aggressive);
    const std::string key = "scaling_triples_" + std::to_string(triples);
    json->Num(key + "_precrec_seconds", precrec)
        .Num(key + "_precrec_corr_seconds", corr)
        .Num(key + "_aggressive_seconds", aggressive);
  }
  std::printf("%-10s %13s   (4000 triples)\n", "sources", "precrec-corr");
  for (size_t sources : {4, 8, 16, 32}) {
    Dataset dataset = MakeScaled(sources, 4000);
    auto engine = PreparedEngine(dataset, {}, dataset.labeled_mask());
    const double corr = TimedRun(*engine, {MethodKind::kPrecRecCorr});
    std::printf("%-10zu %13.4f\n", sources, corr);
    json->Num("scaling_sources_" + std::to_string(sources) +
                  "_precrec_corr_seconds",
              corr);
  }
  std::printf("%-10s %13s   (10 sources, 4000 triples)\n", "level",
              "elastic");
  Dataset dataset = MakeScaled(10, 4000);
  auto engine = PreparedEngine(dataset, {}, dataset.labeled_mask());
  for (int level = 0; level <= 8; ++level) {
    MethodSpec spec{MethodKind::kElastic};
    spec.elastic_level = level;
    const double seconds = TimedRun(*engine, spec);
    std::printf("%-10d %13.4f\n", level, seconds);
    json->Num("scaling_elastic_level" + std::to_string(level) + "_seconds",
              seconds);
  }
}

int Main() {
  PrintFigure1();
  bench::JsonLine json("paper");
  std::vector<RealDataset> datasets = MakeRealDatasets();
  for (RealDataset& d : datasets) RunRealDataset(&d);
  ReportFigure4(datasets, &json);
  ReportFigure5a(datasets, &json);
  ReportFigure5b(datasets, &json);
  ReportFigure6(&json);
  ReportFigure7(&json);
  ReportDiscoveredCorrelations(datasets, &json);
  ReportClusteringAblation(datasets[2].dataset, &json);
  ReportAlphaAblation(datasets[0].dataset, &json);
  ReportTrainingAblation(&json);
  ReportScaling(&json);
  json.Print();
  return 0;
}

}  // namespace
}  // namespace fuser

int main() { return fuser::Main(); }
