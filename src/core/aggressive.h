// Aggressive approximation (Definition 4.5): linear-time correlated fusion.
//
// Each source's recall and false positive rate are re-weighted by its
// leave-one-out correlation factors,
//   r_i -> C+_i r_i,   q_i -> C-_i q_i,
// and then plugged into the independent-sources product of Theorem 3.1:
//
//   mu_aggr = prod_{Si in St} (C+_i r_i)/(C-_i q_i)
//           * prod_{Si in St-bar} (1 - C+_i r_i)/(1 - C-_i q_i).
//
// The factors are computed per cluster. Degenerate regimes (replicated or
// fully complementary sources, Proposition 4.8) can push C+_i r_i past 1;
// factors are clamped just enough to keep the products finite, which
// reproduces the paper's arithmetic on the worked example.
#ifndef FUSER_CORE_AGGRESSIVE_H_
#define FUSER_CORE_AGGRESSIVE_H_

#include <vector>

#include "common/status.h"
#include "core/correlation_model.h"
#include "model/dataset.h"

namespace fuser {

class ThreadPool;

/// Scores every triple with the aggressive approximation of its correctness
/// probability: the adjusted per-source rates run through the
/// independent-sources scorer (IndependentSourceScores, core/precrec.h)
/// across `num_threads` workers (0 = one per hardware thread), optionally
/// on `pool`.
StatusOr<std::vector<double>> AggressiveScores(const Dataset& dataset,
                                               const CorrelationModel& model,
                                               size_t num_threads = 1,
                                               ThreadPool* pool = nullptr);

}  // namespace fuser

#endif  // FUSER_CORE_AGGRESSIVE_H_
