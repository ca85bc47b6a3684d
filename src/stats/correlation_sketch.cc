#include "stats/correlation_sketch.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/bit_util.h"
#include "common/logging.h"
#include "common/simd.h"

namespace fuser {

namespace {

/// Bottom-k coordinated sample of the set bits of `class_mask`: the `k`
/// ids with the smallest hash values (ties broken by id), returned in
/// ascending id order. Every source sees the same sample — that
/// coordination is what makes pair overlap within the sample
/// representative of pair overlap in the class.
std::vector<TripleId> BottomKSample(const DynamicBitset& class_mask, size_t k,
                                    uint64_t seed) {
  std::vector<std::pair<uint64_t, TripleId>> hashed;
  hashed.reserve(class_mask.Count());
  class_mask.ForEach([&](size_t t) {
    hashed.emplace_back(MixMaskPair(static_cast<uint64_t>(t), seed),
                        static_cast<TripleId>(t));
  });
  if (hashed.size() > k) {
    std::nth_element(hashed.begin(), hashed.begin() + static_cast<long>(k),
                     hashed.end());
    hashed.resize(k);
  }
  std::vector<TripleId> sample;
  sample.reserve(hashed.size());
  for (const auto& [h, t] : hashed) sample.push_back(t);
  std::sort(sample.begin(), sample.end());
  return sample;
}

/// Row stride in words for a k-bit row, rounded up to a multiple of 8
/// words (64 bytes) so every row starts cache-line aligned.
size_t AlignedRowWords(size_t k) {
  const size_t words = (k + 63) / 64;
  return (words + 7) & ~size_t{7};
}

}  // namespace

double SketchErrorBound(size_t sketch_size, double delta) {
  if (sketch_size == 0) return 1.0;
  return std::sqrt(std::log(2.0 / delta) /
                   (2.0 * static_cast<double>(sketch_size)));
}

StatusOr<CorrelationSketch> CorrelationSketch::Build(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const std::vector<SourceId>& sources, size_t sketch_size, uint64_t seed) {
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset not finalized");
  }
  if (sketch_size == 0) {
    return Status::InvalidArgument("sketch_size must be > 0");
  }
  DynamicBitset train_true = dataset.true_mask();
  train_true.AndWith(train_mask);
  DynamicBitset train_false = dataset.labeled_mask();
  train_false.AndWith(train_mask);
  train_false.AndNotWith(dataset.true_mask());

  CorrelationSketch sketch;
  sketch.num_sources_ = sources.size();

  // Position of each global source id among the sketch rows; -1 = not
  // tracked (its observations are skipped during the fill).
  std::vector<int32_t> row_of(dataset.num_sources(), -1);
  for (size_t i = 0; i < sources.size(); ++i) {
    row_of[sources[i]] = static_cast<int32_t>(i);
  }

  auto build_class = [&](const DynamicBitset& class_mask, size_t* total,
                         size_t* realized_k, double* scale, size_t* row_words,
                         AlignedWordVector* bits, uint64_t class_seed) {
    std::vector<TripleId> sample =
        BottomKSample(class_mask, sketch_size, class_seed);
    *total = class_mask.Count();
    *realized_k = sample.size();
    *scale = sample.empty() ? 1.0
                            : static_cast<double>(*total) /
                                  static_cast<double>(sample.size());
    *row_words = AlignedRowWords(std::max<size_t>(sample.size(), 1));
    bits->assign(sources.size() * *row_words, 0);
    // One pass over the sampled triples' provider lists fills every
    // source's row: bit j of row i <=> source i provides sample[j].
    for (size_t j = 0; j < sample.size(); ++j) {
      for (SourceId s : dataset.providers(sample[j])) {
        const int32_t row = row_of[s];
        if (row < 0) continue;
        (*bits)[static_cast<size_t>(row) * *row_words + (j >> 6)] |=
            uint64_t{1} << (j & 63);
      }
    }
  };

  build_class(train_true, &sketch.total_true_, &sketch.k_true_,
              &sketch.scale_true_, &sketch.words_true_, &sketch.bits_true_,
              seed);
  build_class(train_false, &sketch.total_false_, &sketch.k_false_,
              &sketch.scale_false_, &sketch.words_false_, &sketch.bits_false_,
              seed ^ 0x9E3779B97F4A7C15ULL);
  return sketch;
}

size_t CorrelationSketch::JointCount(const AlignedWordVector& bits,
                                     size_t words, size_t a, size_t b) const {
  FUSER_CHECK_LT(a, num_sources_);
  FUSER_CHECK_LT(b, num_sources_);
  if (words == 0) return 0;
  return static_cast<size_t>(simd::AndCountWords(
      bits.data() + a * words, bits.data() + b * words, words));
}

StatusOr<std::vector<PairwiseCorrelation>> ComputePairwiseCorrelationsApprox(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const std::vector<SourceId>& sources, const JointStatsOptions& options,
    const ApproxOptions& approx, ApproxDiscoveryReport* report) {
  if (approx.sketch_size == 0) {
    return Status::InvalidArgument("sketch_size must be > 0");
  }
  // Exact linear-cost marginals (the few oracle rescores below AND-count
  // the raw outputs against their class masks with the three-way kernel),
  // then the sketch for the O(S^2) joint counts.
  FUSER_ASSIGN_OR_RETURN(
      PairwiseMarginals marginals,
      ComputePairwiseMarginals(dataset, train_mask, sources, options));
  FUSER_ASSIGN_OR_RETURN(
      CorrelationSketch sketch,
      CorrelationSketch::Build(dataset, train_mask, sources,
                               approx.sketch_size, approx.seed));

  const size_t n = sources.size();
  std::vector<PairwiseCorrelation> result;
  std::vector<std::pair<size_t, size_t>> positions;  // source positions
  std::vector<std::pair<uint64_t, uint64_t>> sampled;  // raw joint overlaps
  result.reserve(n * (n - 1) / 2);
  positions.reserve(n * (n - 1) / 2);
  sampled.reserve(n * (n - 1) / 2);
  // Dispatch resolved once; the estimate loop is the hot O(S^2) part.
  const simd::Kernels& kernels = simd::ActiveKernels();
  const uint64_t* true_rows = sketch.true_rows();
  const uint64_t* false_rows = sketch.false_rows();
  const size_t wt = sketch.true_row_words();
  const size_t wf = sketch.false_row_words();
  for (size_t a = 0; a < n; ++a) {
    const uint64_t* ta = true_rows + a * wt;
    const uint64_t* fa = false_rows + a * wf;
    for (size_t b = a + 1; b < n; ++b) {
      const uint64_t st = kernels.and_count(ta, true_rows + b * wt, wt);
      const uint64_t sf = kernels.and_count(fa, false_rows + b * wf, wf);
      PairwiseCorrelation pc = MakePairwiseCorrelation(
          marginals, a, b, static_cast<double>(st) * sketch.scale_true(),
          static_cast<double>(sf) * sketch.scale_false());
      pc.estimated = true;
      result.push_back(pc);
      positions.emplace_back(a, b);
      sampled.emplace_back(st, sf);
    }
  }

  // Rank pairs by the clustering pre-screen's significance signal —
  // deviation of the joint count from coverage-adjusted independence,
  // minus a Poisson noise allowance — and re-score the top
  // `exact_top_k` with the exact bitset oracle. The signal is evaluated
  // in *sample space* (integer sampled overlaps against the down-scaled
  // baseline): scaled estimates move in jumps of `scale`, which would
  // turn one sampled co-occurrence against a sub-1 baseline into a huge
  // fake deviation; in sample space the noise allowance prices that
  // single observation correctly.
  size_t rescored = 0;
  if (approx.exact_top_k > 0 && !result.empty()) {
    auto coverage_ratio = [&](bool on_true) {
      double obs = 0.0;
      double expected = 0.0;
      for (const PairwiseCorrelation& pc : result) {
        obs += static_cast<double>(on_true ? pc.joint_true_count
                                           : pc.joint_false_count);
        expected += on_true ? pc.indep_true_count : pc.indep_false_count;
      }
      return expected > 0.0 ? std::max(obs / expected, 1e-3) : 1.0;
    };
    const double kappa_true = coverage_ratio(true);
    const double kappa_false = coverage_ratio(false);
    auto deviation = [](double sampled_obs, double sampled_baseline) {
      const double dev = std::fabs(
          std::log((sampled_obs + 0.5) / (sampled_baseline + 0.5)));
      return dev - 2.0 / std::sqrt(std::max(1.0, sampled_baseline));
    };
    std::vector<size_t> order;
    order.reserve(result.size());
    std::vector<double> strength(result.size());
    for (size_t i = 0; i < result.size(); ++i) {
      const PairwiseCorrelation& pc = result[i];
      strength[i] = std::max(
          deviation(static_cast<double>(sampled[i].first),
                    kappa_true * pc.indep_true_count / sketch.scale_true()),
          deviation(static_cast<double>(sampled[i].second),
                    kappa_false * pc.indep_false_count /
                        sketch.scale_false()));
      // Pairs whose deviation is inside the noise allowance are not
      // worth an oracle call.
      if (strength[i] > 0.0) order.push_back(i);
    }
    const size_t top_k = std::min(approx.exact_top_k, order.size());
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(top_k),
                      order.end(), [&](size_t x, size_t y) {
                        if (strength[x] != strength[y]) {
                          return strength[x] > strength[y];
                        }
                        return positions[x] < positions[y];
                      });
    const WordSpan tt = marginals.train_true.word_span();
    const WordSpan tf = marginals.train_false.word_span();
    for (size_t i = 0; i < top_k; ++i) {
      const size_t pair = order[i];
      const auto [a, b] = positions[pair];
      const WordSpan oa = dataset.output(sources[a]).word_span();
      const WordSpan ob = dataset.output(sources[b]).word_span();
      const double joint_true = static_cast<double>(
          kernels.and_count3(oa.data, ob.data, tt.data, tt.size));
      const double joint_false = static_cast<double>(
          kernels.and_count3(oa.data, ob.data, tf.data, tf.size));
      result[pair] =
          MakePairwiseCorrelation(marginals, a, b, joint_true, joint_false);
      ++rescored;
    }
  }

  if (report != nullptr) {
    report->sampled_true = sketch.sampled_true();
    report->sampled_false = sketch.sampled_false();
    report->total_true = sketch.total_true();
    report->total_false = sketch.total_false();
    report->error_bound = approx.error_bound > 0.0
                              ? approx.error_bound
                              : SketchErrorBound(approx.sketch_size,
                                                 approx.delta);
    report->rescored_pairs = rescored;
  }
  return result;
}

CorrelationRanking RankCorrelations(
    const std::vector<PairwiseCorrelation>& pairs, size_t top_n,
    size_t min_support) {
  std::vector<PairwiseCorrelation> supported;
  supported.reserve(pairs.size());
  for (const PairwiseCorrelation& pc : pairs) {
    if (pc.support >= min_support) supported.push_back(pc);
  }
  CorrelationRanking ranking;
  auto fill = [&](bool on_true, bool strongest,
                  std::vector<PairwiseCorrelation>* out) {
    std::vector<PairwiseCorrelation> sorted = supported;
    std::sort(sorted.begin(), sorted.end(),
              [&](const PairwiseCorrelation& x, const PairwiseCorrelation& y) {
                const double fx = on_true ? x.factors.on_true
                                          : x.factors.on_false;
                const double fy = on_true ? y.factors.on_true
                                          : y.factors.on_false;
                if (fx != fy) return strongest ? fx > fy : fx < fy;
                if (x.a != y.a) return x.a < y.a;  // deterministic ties
                return x.b < y.b;
              });
    const size_t count = std::min(top_n, sorted.size());
    out->assign(sorted.begin(), sorted.begin() + static_cast<long>(count));
  };
  fill(true, true, &ranking.strongest_true);
  fill(false, true, &ranking.strongest_false);
  fill(true, false, &ranking.most_anti_true);
  fill(false, false, &ranking.most_anti_false);
  return ranking;
}

}  // namespace fuser
