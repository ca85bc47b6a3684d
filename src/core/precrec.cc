#include "core/precrec.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/simd.h"
#include "common/thread_pool.h"

namespace fuser {

double SourceLogContribution(const SourceQuality& quality, bool provides) {
  double r = ClampProb(quality.recall);
  double q = ClampProb(quality.fpr);
  if (provides) {
    return std::log(r) - std::log(q);
  }
  return std::log(1.0 - r) - std::log(1.0 - q);
}

std::vector<double> IndependentSourceScores(
    const Dataset& dataset, const std::vector<double>& log_provide,
    const std::vector<double>& log_silent, bool use_scopes, double alpha,
    size_t num_threads, ThreadPool* pool) {
  const size_t n = dataset.num_sources();
  const size_t m = dataset.num_triples();
  FUSER_CHECK_EQ(log_provide.size(), n);
  FUSER_CHECK_EQ(log_silent.size(), n);
  std::vector<double> swap_in(n);
  // contrib[2 * s + provides]: a branch-free pick per in-scope source.
  // With scopes, quad[s][nibble][k] picks four lanes at once, lane k's
  // being contrib[2 * s + bit k of nibble].
  std::vector<double> contrib(2 * n);
  std::vector<std::array<std::array<double, 4>, 16>> quad(use_scopes ? n : 0);
  std::vector<const uint64_t*> words(n);
  double total_silent = 0.0;
  for (size_t s = 0; s < n; ++s) {
    swap_in[s] = log_provide[s] - log_silent[s];
    contrib[2 * s] = log_silent[s];
    contrib[2 * s + 1] = log_provide[s];
    total_silent += log_silent[s];
    words[s] = dataset.output(s).words();
    if (!use_scopes) continue;
    for (unsigned nibble = 0; nibble < 16; ++nibble) {
      for (unsigned k = 0; k < 4; ++k) {
        quad[s][nibble][k] = contrib[2 * s + ((nibble >> k) & 1)];
      }
    }
  }

  // Scoped: domains whose in_scope_sources rows are equal share a row
  // class (numbered over the domains sorted by row), so a word whose 64
  // triples share one class can sum its lanes against that one row.
  std::vector<uint32_t> class_of_domain;
  std::vector<Span<SourceId>> class_row;
  if (use_scopes && dataset.num_domains() > 0) {
    const CsrTable<SourceId>& rows = dataset.domain_sources_table();
    std::vector<DomainId> order(dataset.num_domains());
    std::iota(order.begin(), order.end(), DomainId{0});
    std::sort(order.begin(), order.end(), [&](DomainId a, DomainId b) {
      const Span<SourceId> ra = rows.row(a);
      const Span<SourceId> rb = rows.row(b);
      return std::lexicographical_compare(ra.begin(), ra.end(), rb.begin(),
                                          rb.end());
    });
    class_of_domain.resize(order.size());
    for (DomainId d : order) {
      if (class_row.empty() || rows.row(d) != class_row.back()) {
        class_row.push_back(rows.row(d));
      }
      class_of_domain[d] = static_cast<uint32_t>(class_row.size() - 1);
    }
  }

  // Blocks of 64 bitset words (4096 triples) run across the workers. Each
  // triple's sum runs in the order of the per-triple definition (providers
  // ascending, or in_scope_sources(t) order), which keeps every score
  // byte-identical to it at any thread count.
  const size_t num_groups = (n + 63) / 64;
  constexpr size_t kWordsPerBlock = 64;
  const size_t num_words = (m + 63) / 64;
  const size_t num_blocks = (num_words + kWordsPerBlock - 1) / kWordsPerBlock;
  const double prior_log_odds = PriorLogOdds(alpha);
  std::vector<double> scores(m);
  ParallelFor(
      num_blocks, num_threads,
      [&](size_t b) {
        const size_t t_begin = b * kWordsPerBlock * 64;
        const size_t t_end = std::min(m, t_begin + kWordsPerBlock * 64);
        if (!use_scopes) {
          // All sources have an opinion: start from everyone-silent and
          // swap in the providers (O(|St|) per triple).
          for (size_t t = t_begin; t < t_end; ++t) {
            double log_mu = total_silent;
            for (SourceId s : dataset.providers(static_cast<TripleId>(t))) {
              log_mu += swap_in[s];
            }
            scores[t] = PosteriorFromLogOdds(prior_log_odds + log_mu);
          }
          return;
        }
        // masks[g * 64 + j]: providers of triple 64 * w + j in group g.
        std::vector<uint64_t> masks(num_groups * 64);
        uint64_t rows[64];
        for (size_t w = t_begin / 64; w * 64 < t_end; ++w) {
          const size_t word_begin = w * 64;
          const size_t word_end = std::min(t_end, word_begin + 64);
          const uint32_t cls = class_of_domain[dataset.domain(
              static_cast<TripleId>(word_begin))];
          bool one_class = true;
          for (size_t t = word_begin + 1; t < word_end; ++t) {
            one_class &=
                class_of_domain[dataset.domain(static_cast<TripleId>(t))] ==
                cls;
          }
          if (one_class) {
            // One row for the whole word: 64 independent lane sums, each
            // adding the row's sources in row order, four lanes per
            // indexed pick (a select compiles to a branch).
            double acc[64] = {};
            for (SourceId s : class_row[cls]) {
              const uint64_t bits = words[s][w];
              const std::array<double, 4>* pick = quad[s].data();
              for (size_t j = 0; j < 64; j += 4) {
                const std::array<double, 4>& lanes = pick[(bits >> j) & 15];
                for (size_t k = 0; k < 4; ++k) acc[j + k] += lanes[k];
              }
            }
            for (size_t t = word_begin; t < word_end; ++t) {
              scores[t] =
                  PosteriorFromLogOdds(prior_log_odds + acc[t - word_begin]);
            }
            continue;
          }
          // Rows differ inside the word: every in-scope source needs its
          // provides bit. Sources are read in groups of 64: one transpose
          // per group turns the group's bitset words into 64 per-triple
          // provider masks, so a bit is a register test instead of a
          // random bitset probe. Groups with no provider in the word skip
          // the transpose.
          for (size_t g = 0; g < num_groups; ++g) {
            const size_t first = g * 64;
            const size_t k = std::min<size_t>(64, n - first);
            uint64_t any = 0;
            for (size_t i = 0; i < k; ++i) {
              rows[i] = words[first + i][w];
              any |= rows[i];
            }
            if (any != 0) {
              simd::TransposeBitColumns(rows, k, &masks[g * 64]);
            } else {
              std::fill_n(&masks[g * 64], 64, uint64_t{0});
            }
          }
          for (size_t t = word_begin; t < word_end; ++t) {
            const size_t j = t - word_begin;
            double log_mu = 0.0;
            for (SourceId s :
                 dataset.in_scope_sources(static_cast<TripleId>(t))) {
              const uint64_t mask = masks[(s >> 6) * 64 + j];
              log_mu += contrib[2 * s + ((mask >> (s & 63)) & 1)];
            }
            scores[t] = PosteriorFromLogOdds(prior_log_odds + log_mu);
          }
        }
      },
      ParallelForOptions{pool, nullptr});
  return scores;
}

StatusOr<std::vector<double>> PrecRecScores(
    const Dataset& dataset, const std::vector<SourceQuality>& quality,
    const PrecRecOptions& options, size_t num_threads, ThreadPool* pool) {
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset not finalized");
  }
  if (quality.size() != dataset.num_sources()) {
    return Status::InvalidArgument("quality size != num_sources");
  }
  if (options.alpha <= 0.0 || options.alpha >= 1.0) {
    return Status::InvalidArgument("alpha must be in (0,1)");
  }

  const size_t n = dataset.num_sources();
  std::vector<double> log_provide(n);
  std::vector<double> log_silent(n);
  for (size_t s = 0; s < n; ++s) {
    log_provide[s] = SourceLogContribution(quality[s], /*provides=*/true);
    log_silent[s] = SourceLogContribution(quality[s], /*provides=*/false);
  }
  return IndependentSourceScores(dataset, log_provide, log_silent,
                                 options.use_scopes, options.alpha,
                                 num_threads, pool);
}

}  // namespace fuser
