// Shared distinct-pattern scoring pipeline for pattern-based methods.
//
// PrecRecCorr (Theorem 4.2) and Elastic (Algorithm 1) both score a triple
// from its per-cluster observation pattern: which cluster members provide
// it and which in-scope members stay silent. Many triples share a pattern,
// so both methods (a) group triples by their distinct (providers,
// non-providers) pattern per cluster, (b) score each distinct pattern once
// — in parallel, patterns are independent — and (c) combine the per-cluster
// likelihood pairs into a per-triple posterior (clusters are mutually
// independent, so likelihoods multiply).
//
// This file factors that machinery out so a pattern-based method is just
// its PatternScoringPlan and every such method reuses one grouping: the
// engine builds a PatternGrouping once per prepared model and scores each
// method's plan over it, which is what makes RunAll (the paper's
// Fig. 4/6/7 many-methods workload) score all methods over a single pass
// of the grouping work. ScorePlan runs a plan outside an engine.
#ifndef FUSER_CORE_PATTERN_PIPELINE_H_
#define FUSER_CORE_PATTERN_PIPELINE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/bit_util.h"
#include "common/bitset.h"
#include "common/math_util.h"
#include "common/status.h"
#include "core/correlation_model.h"
#include "model/dataset.h"

namespace fuser {

class ThreadPool;

/// One distinct per-cluster observation pattern: the cluster members that
/// provide the triple and the in-scope members that do not.
struct PatternKey {
  Mask providers = 0;
  Mask nonproviders = 0;

  bool operator==(const PatternKey& other) const {
    return providers == other.providers && nonproviders == other.nonproviders;
  }
};

struct PatternKeyHash {
  size_t operator()(const PatternKey& key) const {
    return static_cast<size_t>(MixMaskPair(key.providers, key.nonproviders));
  }
};

/// One cluster's triple -> pattern-id column. A cluster of two or more
/// sources (or none) stores one 32-bit id per triple. A one-source
/// cluster's pattern is fixed by two bits, whether its source provides the
/// triple and whether the triple is in the source's scope, so it stores
/// those bits and a table from their code to the pattern id: 2 bits per
/// triple instead of 32. The bits are the grouping's own copies, never
/// views of the dataset, which streaming updates mutate in place.
struct PatternColumn {
  static constexpr uint32_t kNoPattern = UINT32_MAX;

  /// A singleton cluster's code of (in scope, provides): (in_scope << 1) |
  /// provided. Code 1 (provided, out of scope) cannot occur.
  static unsigned CodeOf(bool in_scope, bool provided) {
    return (static_cast<unsigned>(in_scope) << 1) |
           static_cast<unsigned>(provided);
  }
  static unsigned CodeOf(const PatternKey& key) {
    return CodeOf(((key.providers | key.nonproviders) & 1) != 0,
                  (key.providers & 1) != 0);
  }
  /// The pattern key of a code (CodeOf of a valid key inverted).
  static PatternKey KeyOf(unsigned code) {
    const Mask provided = code & 1;
    return PatternKey{provided, ((code >> 1) & 1) & ~provided};
  }

  /// Multi-source (and empty) clusters: ids[t].
  std::vector<uint32_t> ids;
  /// One-source clusters: the layout below instead of ids.
  bool singleton = false;
  /// Bit t: the source provides triple t.
  DynamicBitset provided;
  /// Bit t: triple t's domain is in the source's scope. Empty without
  /// scopes (every triple is in scope).
  DynamicBitset in_scope;
  /// Pattern id of each code (kNoPattern for codes no pattern has).
  std::array<uint32_t, 4> id_of_code = {kNoPattern, kNoPattern, kNoPattern,
                                        kNoPattern};

  /// Triple t's pattern id: its index into the cluster's distinct list.
  uint32_t id(size_t t) const {
    if (!singleton) return ids[t];
    const uint64_t bit = uint64_t{1} << (t & 63);
    const bool covered =
        in_scope.size() == 0 || (in_scope.word(t >> 6) & bit) != 0;
    return id_of_code[CodeOf(covered, (provided.word(t >> 6) & bit) != 0)];
  }

  /// The in-scope words, or null without scopes.
  const uint64_t* ScopeWords() const {
    return in_scope.size() == 0 ? nullptr : in_scope.words();
  }

  /// First triple of each code in [0, num_triples), or num_triples where
  /// the code does not occur. One-source clusters only.
  std::array<size_t, 4> FirstTripleOfEachCode(size_t num_triples) const;
};

/// Triples grouped by their distinct observation pattern, per cluster.
struct PatternGrouping {
  size_t num_triples = 0;
  /// Identity of the dataset the grouping was built from (never
  /// dereferenced — compared only, so a stale pointer cannot be misused).
  const Dataset* dataset = nullptr;
  /// Fingerprint of the clustering + scope structure the grouping was
  /// built from (see ModelGroupingFingerprint); lets ScorePlan reject a
  /// grouping that belongs to a different model.
  uint64_t model_fingerprint = 0;
  /// distinct[c] lists every pattern of cluster c exactly once.
  std::vector<std::vector<PatternKey>> distinct;
  /// columns[c] maps each triple to its pattern within distinct[c]; read
  /// it through pattern_id (GatherPatternScores reads the columns whole).
  std::vector<PatternColumn> columns;
  /// index[c] maps a pattern key to its position in distinct[c]; kept after
  /// the build so UpdatePatternGrouping can assign streamed triples to
  /// existing patterns in O(1).
  std::vector<std::unordered_map<PatternKey, size_t, PatternKeyHash>> index;

  size_t num_clusters() const { return distinct.size(); }

  /// Index of triple t's cluster-c pattern within distinct[c].
  uint32_t pattern_id(size_t c, size_t t) const { return columns[c].id(t); }

  /// Total number of distinct (cluster, pattern) pairs — the unit of
  /// scoring work.
  size_t TotalDistinct() const {
    size_t total = 0;
    for (const auto& d : distinct) total += d.size();
    return total;
  }
};

/// Groups every triple of `dataset` by its per-cluster observation pattern.
/// O(num_clusters * num_triples); the result depends only on the dataset
/// and the model's clustering/scopes, so it is shared across methods.
///
/// Word-parallel: each cluster source's provider bitset is read 64 triples
/// at a time and turned into per-triple provider masks by a bit-matrix
/// transpose (Transpose64x64); scope masks come from one per-domain mask
/// lookup. A one-source cluster's column is two word copies instead: its
/// source's provider bitset and, with scopes, the per-domain coverage
/// spread over the triples. Patterns are numbered through a direct-mapped
/// table slot
/// (scope id << k) | providers, where scope ids number the cluster's
/// distinct per-domain scope masks (one id when scope-free); only clusters
/// whose table would be too large (wide clusters, many distinct scopes, or
/// more slots than a worker's chunk has triples) hash the pattern key
/// instead. The triple range is processed in blocks
/// parallelized across `num_threads` workers (0 = hardware concurrency;
/// `pool` optionally supplies persistent workers), with per-worker local
/// pattern numberings merged in block order — the output (including the
/// order of `distinct`) is byte-identical to the scalar reference at every
/// thread count (see tests/support/pattern_oracles.h).
StatusOr<PatternGrouping> BuildPatternGrouping(const Dataset& dataset,
                                               const CorrelationModel& model,
                                               size_t num_threads = 1,
                                               ThreadPool* pool = nullptr);

/// Fingerprint of the parts of `model` the grouping depends on (cluster
/// memberships and the scope setting). Groupings carry the fingerprint of
/// the model they were built from.
uint64_t ModelGroupingFingerprint(const CorrelationModel& model);

/// Incrementally maintains `grouping` after a streamed batch: appends the
/// new triples [grouping->num_triples, dataset.num_triples()) and remaps
/// the `changed_existing` triples (whose provider/scope masks changed).
/// Triples joining an existing distinct pattern cost O(1); genuinely new
/// patterns are appended (and scored lazily by the next Run's
/// ScorePatterns). Patterns no triple maps to anymore are kept — they are
/// never combined into a score, so they are harmless, and keeping them
/// makes the update O(batch x clusters) instead of O(dataset).
/// `grouping` must have been built over this same dataset and model
/// (clustering unchanged); otherwise InvalidArgument is returned and the
/// caller should rebuild.
Status UpdatePatternGrouping(const Dataset& dataset,
                             const CorrelationModel& model,
                             const std::vector<TripleId>& changed_existing,
                             PatternGrouping* grouping);

/// Per-pattern likelihood pair: Pr(pattern | triple true) and
/// Pr(pattern | triple false) — or a method's approximation thereof.
/// ScorePatterns clamps both at 0 (inconsistent parameter sets can make
/// alternating sums slightly negative).
struct PatternLikelihood {
  double given_true = 1.0;
  double given_false = 1.0;
};

/// Computes the likelihood pair of one distinct pattern of one cluster.
/// Must be safe to call concurrently for distinct patterns.
using PatternScorer =
    std::function<Status(size_t cluster, const PatternKey& key,
                         double* given_true, double* given_false)>;

/// Optional batched scorer: computes the likelihoods of ALL of one
/// cluster's distinct patterns in one call (out is pre-sized to
/// keys.size()). Returns false when the cluster has no batched path — its
/// patterns then fall back to the per-pattern scorer. Must be safe to call
/// concurrently for distinct clusters.
using ClusterBatchScorer = std::function<StatusOr<bool>(
    size_t cluster, const std::vector<PatternKey>& keys,
    std::vector<PatternLikelihood>* out)>;

/// A method's pattern-scoring recipe, detached from any particular
/// grouping: the per-pattern scorer (plus the optional batched form) and
/// the prior the combine step pairs with it. Plans are self-contained
/// closures — they capture the correlation model by pointer and every
/// strategy decision by value — so a snapshot can store one and invoke it
/// from any reader thread long after the engine has moved on, as long as
/// the captured model is kept alive (snapshots share ownership of it).
struct PatternScoringPlan {
  PatternScorer scorer;
  ClusterBatchScorer batch;  // null when the method has no batched path
  double alpha = 0.5;
};

/// Scores every key of keys[c], for every cluster c, exactly once: a
/// grouping's distinct lists, or the union of several groupings' lists over
/// one model (the sharded router's). Result [c][i] belongs to keys[c][i].
/// Clusters the `batch` scorer claims are computed whole (one pass per
/// cluster, parallel across clusters); the rest run `scorer` in parallel
/// over the flattened (cluster, pattern) work list. A key's likelihood
/// depends on the key alone, not on the other keys of its list. The first
/// error cancels all outstanding work (workers stop claiming patterns) and
/// aborts the whole computation. `pool` optionally supplies persistent
/// workers.
StatusOr<std::vector<std::vector<PatternLikelihood>>> ScorePatterns(
    const std::vector<std::vector<PatternKey>>& keys, size_t num_threads,
    const PatternScorer& scorer, const ClusterBatchScorer& batch = nullptr,
    ThreadPool* pool = nullptr);

/// Per-pattern posterior state precomputed from a full set of pattern
/// likelihoods: everything CombinePatternScores needs per distinct pattern,
/// promoted into a value type so a snapshot can keep it and answer point
/// queries in O(num_clusters) without rescoring anything. With one cluster
/// a triple's posterior is a pure function of its pattern, so the table
/// stores the final posterior per pattern; with many clusters it stores
/// the per-pattern log-likelihood pairs (with zero flags) that the combine
/// loop sums across clusters.
struct PatternPosteriorTable {
  struct ClusterLogs {
    std::vector<double> log_true;
    std::vector<double> log_false;
    /// bit 0: given_true <= 0, bit 1: given_false <= 0 (the log is then
    /// unset and the combine short-circuits).
    std::vector<unsigned char> flags;
  };
  double alpha = 0.5;
  /// One entry per cluster, parallel to the grouping's distinct lists.
  std::vector<ClusterLogs> logs;
  /// Posterior per distinct pattern; populated only with one cluster.
  std::vector<double> posterior;

  size_t num_clusters() const { return logs.size(); }
};

/// Precomputes the posterior table for `likelihood` (one PatternLikelihood
/// per distinct pattern per cluster, as produced by ScorePatterns).
PatternPosteriorTable BuildPatternPosteriorTable(
    const std::vector<std::vector<PatternLikelihood>>& likelihood,
    double alpha);

/// The table of a grouping whose distinct pattern i of cluster c is pattern
/// positions[c][i] of the lists `table` was built over (the sharded
/// router's union of its shards' lists). Every per-pattern entry is a pure
/// function of the pattern's likelihood pair and the prior, so the result
/// is byte-identical to BuildPatternPosteriorTable over the grouping's own
/// likelihoods.
PatternPosteriorTable SelectPatternRows(
    const PatternPosteriorTable& table,
    const std::vector<std::vector<uint32_t>>& positions);

/// One cluster's combine input: the flag/log triple the posterior table
/// stores per pattern, computable on the fly for patterns the table has
/// never seen (the serving layer's ad-hoc observations).
struct PatternLogEntry {
  unsigned char flag = 0;  // bit 0: given_true <= 0, bit 1: given_false <= 0
  double log_true = 0.0;
  double log_false = 0.0;
};

/// Derives the combine input from a likelihood pair. Non-positive values
/// set the corresponding flag bit (the log stays 0 and the combine
/// short-circuits) — exactly how BuildPatternPosteriorTable fills the
/// table, so on-the-fly entries mix bit-identically with table reads.
PatternLogEntry MakePatternLogEntry(double given_true, double given_false);

/// Accumulates per-cluster combine inputs (in cluster order) into a
/// posterior: log-likelihoods add, zero flags short-circuit to 0/1 (or the
/// prior when impossible under both hypotheses). This is THE combine rule
/// — the dense gather, point queries, and ad-hoc observations all run
/// their entries through it, which is what makes them byte-identical.
///
/// Add is branch-free: every entry's logs are added and its flags or-ed,
/// also the log of a flagged side (0 as MakePatternLogEntry leaves it).
/// That is exact, because Posterior never reads the log sum of a side
/// whose flag is set: it returns 0, 1 or the prior first. Without any flag
/// every add is an add of a real log, in cluster order. GatherPatternScores
/// keeps the same sums and flags per triple in arrays, a block of triples
/// at a time, and ends in the same Combine.
class PatternLogAccumulator {
 public:
  void Add(const PatternLogEntry& entry) {
    log_num_ += entry.log_true;
    log_den_ += entry.log_false;
    flags_ |= entry.flag;
  }

  double Posterior(double alpha) const {
    return Combine(log_num_, log_den_, flags_, alpha, PriorLogOdds(alpha));
  }

  /// The posterior of summed logs and or-ed flags; `prior_log_odds` is
  /// PriorLogOdds(alpha), which a loop over many triples takes once.
  static double Combine(double log_num, double log_den, unsigned flags,
                        double alpha, double prior_log_odds) {
    if (flags == 3) return alpha;  // observation impossible either way
    if (flags & 1) return 0.0;
    if (flags & 2) return 1.0;
    return PosteriorFromLogOdds(prior_log_odds + (log_num - log_den));
  }

 private:
  double log_num_ = 0.0;
  double log_den_ = 0.0;
  unsigned flags_ = 0;
};

/// Posterior of triple `t`: gathers t's per-cluster pattern ids from
/// `grouping` and combines the table's entries. `table` must have been
/// built from a ScorePatterns pass over this same grouping. Byte-identical
/// to the triple's entry in GatherPatternScores / CombinePatternScores.
double ScoreTripleFromTable(const PatternGrouping& grouping,
                            const PatternPosteriorTable& table, TripleId t);

/// Dense form: posterior of every triple of the grouping, parallelized
/// across `num_threads` workers. scores[t] == ScoreTripleFromTable(t) for
/// every t, at every thread count.
///
/// Lane-parallel: each 1024-triple block keeps one log_num, log_den and
/// flag lane per triple and walks the clusters in order, adding each
/// lane's entry. A multi-source cluster's entry is read through its id
/// column. A one-source cluster's is picked straight from its bit
/// columns, with no id decode: a triple's code is (in_scope << 1) |
/// provided, and a per-cluster table indexed by two lanes' bits of the
/// in-scope and provided words holds those two lanes' entries. A cluster
/// none of whose entries has a flag skips the flag lanes. Each lane adds
/// exactly what PatternLogAccumulator::Add would, in cluster order, so the
/// sums are the point query's, byte for byte.
std::vector<double> GatherPatternScores(const PatternGrouping& grouping,
                                        const PatternPosteriorTable& table,
                                        size_t num_threads = 1,
                                        ThreadPool* pool = nullptr);

/// Combines per-cluster pattern likelihoods into per-triple posteriors:
/// log-likelihoods add across clusters and the posterior follows from the
/// prior `alpha`. Zero likelihoods short-circuit (impossible under one
/// hypothesis forces the posterior to 0/1; impossible under both falls
/// back to the prior). Implemented as BuildPatternPosteriorTable followed
/// by GatherPatternScores — the batch path and the snapshot point-query
/// path share one arithmetic.
///
/// Per-distinct-pattern log-likelihoods are computed once per cluster, so
/// the per-triple loop is an add-only gather parallelized across
/// `num_threads` workers (with one cluster it collapses further: one
/// posterior per distinct pattern, then a table gather). Output is
/// byte-identical to the serial reference at every thread count (see
/// tests/support/pattern_oracles.h).
std::vector<double> CombinePatternScores(
    const PatternGrouping& grouping,
    const std::vector<std::vector<PatternLikelihood>>& likelihood,
    double alpha, size_t num_threads = 1, ThreadPool* pool = nullptr);

/// Scores every triple of `dataset` with a method's `plan` over `model`:
/// ScorePatterns, then CombinePatternScores with plan.alpha — the scores
/// FusionEngine::Run returns for that method. `grouping` optionally
/// supplies a prebuilt grouping, which must come from BuildPatternGrouping
/// over this same dataset and model (one from a different dataset,
/// clustering or scope setting is rejected with InvalidArgument); with
/// nullptr it is built locally. Work runs across `num_threads` workers,
/// optionally on `pool`.
StatusOr<std::vector<double>> ScorePlan(
    const Dataset& dataset, const CorrelationModel& model,
    const PatternScoringPlan& plan, const PatternGrouping* grouping = nullptr,
    size_t num_threads = 1, ThreadPool* pool = nullptr);

}  // namespace fuser

#endif  // FUSER_CORE_PATTERN_PIPELINE_H_
