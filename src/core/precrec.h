// PrecRec: Bayesian fusion of independent sources (Theorem 3.1).
//
// For each triple t,
//   mu = prod_{Si in St} r_i/q_i * prod_{Si in St-bar} (1-r_i)/(1-q_i)
//   Pr(t | Ot) = 1 / (1 + (1-alpha)/alpha * 1/mu),
// where St are the providers of t and St-bar the in-scope non-providers.
// Computed in log space for numerical stability.
#ifndef FUSER_CORE_PRECREC_H_
#define FUSER_CORE_PRECREC_H_

#include <vector>

#include "common/status.h"
#include "core/quality.h"
#include "model/dataset.h"

namespace fuser {

class ThreadPool;

struct PrecRecOptions {
  double alpha = 0.5;
  bool use_scopes = false;
};

/// Scores every triple of `dataset` with its correctness probability under
/// the independence assumption. `quality` is indexed by SourceId. Triples
/// are scored across `num_threads` workers (0 = one per hardware thread),
/// optionally on `pool` (IndependentSourceScores).
StatusOr<std::vector<double>> PrecRecScores(
    const Dataset& dataset, const std::vector<SourceQuality>& quality,
    const PrecRecOptions& options, size_t num_threads = 1,
    ThreadPool* pool = nullptr);

/// The independent-sources product shared by PrecRec and the aggressive
/// approximation, from per-source log contributions (indexed by SourceId):
///   log mu(t) = sum_{s provides t} log_provide[s]
///             + sum_{s silent on t} log_silent[s],
/// over every source, or with `use_scopes` over the sources in scope for t
/// only; scores[t] = PosteriorFromLogMu(log mu(t), alpha).
///
/// Threaded: blocks of triples run across `num_threads` workers (0 = one
/// per hardware thread), optionally on `pool`. Without scopes a triple's
/// sum walks providers(t). With scopes, domains whose in_scope_sources
/// rows are equal share a row class, computed once per call. A 64-triple
/// word whose triples share one class sums lane-parallel: for each source
/// of the row, in row order, every lane adds that source's provides or
/// silent contribution, picked four lanes at a time by a nibble of the
/// source's provider word. A word of mixed rows transposes each 64-source
/// group's provider words into per-triple masks and walks each triple's
/// in_scope_sources(t); that reads n/64 words per triple for n sources
/// whatever the triple's scope. Each triple's sum runs in a fixed order —
/// the all-silent total plus the providers ascending, or the sources of
/// in_scope_sources(t) in order — so scores are byte-identical at every
/// thread count to the per-triple loop over providers(t) /
/// in_scope_sources(t) (tests/support/pattern_oracles.h).
std::vector<double> IndependentSourceScores(
    const Dataset& dataset, const std::vector<double>& log_provide,
    const std::vector<double>& log_silent, bool use_scopes, double alpha,
    size_t num_threads, ThreadPool* pool);

/// The log of a single source's contribution to mu: log(r/q) when the
/// source provides the triple, log((1-r)/(1-q)) when it is silent (with r
/// and q clamped away from 0 and 1).
double SourceLogContribution(const SourceQuality& quality, bool provides);

}  // namespace fuser

#endif  // FUSER_CORE_PRECREC_H_
