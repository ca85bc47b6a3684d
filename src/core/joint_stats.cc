#include "core/joint_stats.h"

#include <algorithm>
#include <tuple>

#include "common/logging.h"
#include "common/simd.h"
#include "common/thread_pool.h"

namespace fuser {

Status JointStatsProvider::ScoreAllPatterns(
    const std::vector<PatternQuery>& queries, bool calibrated,
    std::vector<std::pair<double, double>>* out) const {
  out->resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    double pt = 0.0;
    double pf = 0.0;
    FUSER_RETURN_IF_ERROR(DirectPatternLikelihood(
        queries[i].providers, queries[i].nonproviders, calibrated, &pt, &pf));
    (*out)[i] = {pt, pf};
  }
  return Status::OK();
}

namespace {

using PatternCountMap =
    std::unordered_map<std::pair<Mask, Mask>, uint32_t, MaskPairHash>;

/// Counts one class section of the view (`num_positions` positions from
/// column word `first_word`, domains from `first_position`) for one
/// cluster and appends its patterns to `out` in the map's iteration order,
/// which follows from inserting the distinct patterns in first-seen order.
void CountSection(const TrainingView& view,
                  const std::vector<SourceId>& cluster,
                  const std::vector<Mask>& scope_of_domain, bool use_scopes,
                  size_t first_word, size_t first_position,
                  size_t num_positions,
                  std::vector<EmpiricalJointStatsState::PatternCount>* out,
                  uint64_t* total) {
  const size_t k = cluster.size();
  const Mask full = FullMask(static_cast<int>(k));
  PatternCountMap agg;
  uint64_t rows[64];
  uint64_t providers[64];
  for (size_t wi = 0; wi * 64 < num_positions; ++wi) {
    for (size_t i = 0; i < k; ++i) {
      rows[i] = view.column(cluster[i])[first_word + wi];
    }
    simd::TransposeBitColumns(rows, k, providers);
    const size_t base = wi * 64;
    const size_t len = std::min<size_t>(64, num_positions - base);
    const DomainId* domains = view.domains.data() + first_position + base;
    for (size_t j = 0; j < len; ++j) {
      const Mask scope = use_scopes ? scope_of_domain[domains[j]] : full;
      ++agg[{providers[j], scope}];
    }
  }
  out->reserve(agg.size());
  for (const auto& [key, count] : agg) {
    out->push_back({key.first, key.second, count});
    *total += count;
  }
}

}  // namespace

StatusOr<std::vector<EmpiricalJointStatsState>> CountClusterPatterns(
    const TrainingView& view,
    const std::vector<std::vector<SourceId>>& clusters,
    const QualityOptions& options, size_t num_threads, ThreadPool* pool) {
  FUSER_RETURN_IF_ERROR(ValidateQualityOptions(options));
  for (const std::vector<SourceId>& cluster : clusters) {
    if (cluster.empty() || cluster.size() > 64) {
      return Status::InvalidArgument("cluster must have 1..64 sources");
    }
    for (SourceId s : cluster) {
      if (s >= view.num_sources) {
        return Status::InvalidArgument("cluster source id out of range");
      }
    }
  }
  std::vector<EmpiricalJointStatsState> states(clusters.size());
  auto count = [&](size_t c) {
    const std::vector<SourceId>& cluster = clusters[c];
    EmpiricalJointStatsState& state = states[c];
    state.k = static_cast<int>(cluster.size());
    state.options = options;
    // The cluster-local scope of each domain.
    std::vector<Mask> scope_of_domain;
    if (options.use_scopes) {
      scope_of_domain.assign(view.num_domains, 0);
      for (DomainId d = 0; d < scope_of_domain.size(); ++d) {
        for (size_t i = 0; i < cluster.size(); ++i) {
          if (view.covers[cluster[i]].Test(d)) {
            scope_of_domain[d] = WithBit(scope_of_domain[d],
                                         static_cast<int>(i));
          }
        }
      }
    }
    CountSection(view, cluster, scope_of_domain, options.use_scopes, 0, 0,
                 view.num_true, &state.true_patterns, &state.total_true);
    CountSection(view, cluster, scope_of_domain, options.use_scopes,
                 view.true_words, view.num_true, view.num_false,
                 &state.false_patterns, &state.total_false);
  };
  const size_t workers = std::max<size_t>(
      1, std::min(ResolveNumThreads(num_threads), clusters.size()));
  ParallelFor(clusters.size(), workers, count,
              ParallelForOptions{pool, nullptr});
  return states;
}

StatusOr<std::unique_ptr<EmpiricalJointStats>> EmpiricalJointStats::Create(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const std::vector<SourceId>& cluster_sources,
    const QualityOptions& options) {
  FUSER_ASSIGN_OR_RETURN(TrainingView view,
                         BuildTrainingView(dataset, train_mask));
  FUSER_ASSIGN_OR_RETURN(
      std::vector<EmpiricalJointStatsState> states,
      CountClusterPatterns(view, {cluster_sources}, options));
  return FromState(states[0]);
}

void EmpiricalJointStats::BuildTables() {
  has_tables_ = k_ <= kSosTableMaxBits;
  if (!has_tables_) return;
  const size_t size = size_t{1} << k_;
  sup_true_.assign(size, 0);
  sup_false_.assign(size, 0);
  for (const Pattern& p : true_patterns_) {
    sup_true_[p.providers] += p.count;
  }
  for (const Pattern& p : false_patterns_) {
    sup_false_[p.providers] += p.count;
  }
  if (options_.use_scopes) {
    sup_scope_true_.assign(size, 0);
    for (const Pattern& p : true_patterns_) {
      sup_scope_true_[p.scope] += p.count;
    }
  }
  auto sos = [&](std::vector<uint32_t>* table) {
    for (int bit = 0; bit < k_; ++bit) {
      const Mask bit_mask = Mask{1} << bit;
      for (Mask m = 0; m < size; ++m) {
        if (!(m & bit_mask)) {
          (*table)[m] += (*table)[m | bit_mask];
        }
      }
    }
  };
  sos(&sup_true_);
  sos(&sup_false_);
  if (options_.use_scopes) sos(&sup_scope_true_);
}

void EmpiricalJointStats::AddToTables(const Pattern& pattern, bool is_true,
                                      int count_delta) {
  // sup[m] sums the counts of patterns whose mask is a superset of m, so a
  // pattern contributes to exactly the submasks of its own mask.
  auto add = [count_delta](std::vector<uint32_t>* table, Mask mask) {
    ForEachSubmask(mask, [&](Mask sub) {
      (*table)[sub] = static_cast<uint32_t>(
          static_cast<int64_t>((*table)[sub]) + count_delta);
    });
  };
  if (is_true) {
    add(&sup_true_, pattern.providers);
    if (options_.use_scopes) add(&sup_scope_true_, pattern.scope);
  } else {
    add(&sup_false_, pattern.providers);
  }
}

Status EmpiricalJointStats::ApplyPatternDeltas(
    const std::vector<JointPatternDelta>& deltas) {
  const Mask full = FullMask(k_);
  // Masks are validated before any mutation. (Count underflow can only be
  // detected mid-apply; the caller must then discard the provider.)
  for (const JointPatternDelta& d : deltas) {
    if ((d.providers & ~full) != 0 || (d.scope & ~full) != 0) {
      return Status::InvalidArgument("pattern delta mask outside cluster");
    }
  }
  // Decide up front between per-delta submask updates and one table
  // rebuild: each delta costs 2^|providers| (+ 2^|scope| with scopes) table
  // touches, a rebuild costs k * 2^k.
  bool incremental_tables = has_tables_;
  if (has_tables_) {
    const uint64_t rebuild_cost = static_cast<uint64_t>(k_) << k_;
    uint64_t incremental_cost = 0;
    for (const JointPatternDelta& d : deltas) {
      incremental_cost += uint64_t{1} << PopCount(d.providers);
      if (options_.use_scopes && d.is_true) {
        incremental_cost += uint64_t{1} << PopCount(d.scope);
      }
      if (incremental_cost > rebuild_cost) {
        incremental_tables = false;
        break;
      }
    }
  }
  for (const JointPatternDelta& d : deltas) {
    auto& index = d.is_true ? true_index_ : false_index_;
    auto& patterns = d.is_true ? true_patterns_ : false_patterns_;
    auto& total = d.is_true ? total_true_ : total_false_;
    auto [it, inserted] =
        index.emplace(std::make_pair(d.providers, d.scope), patterns.size());
    if (inserted) {
      patterns.push_back({d.providers, d.scope, 0});
    }
    Pattern& pattern = patterns[it->second];
    const int64_t count =
        static_cast<int64_t>(pattern.count) + d.count_delta;
    const int64_t new_total = static_cast<int64_t>(total) + d.count_delta;
    if (count < 0 || new_total < 0) {
      return Status::Internal("pattern count underflow in ApplyPatternDeltas");
    }
    pattern.count = static_cast<uint32_t>(count);
    total = static_cast<size_t>(new_total);
    if (incremental_tables) AddToTables(pattern, d.is_true, d.count_delta);
  }
  if (has_tables_ && !incremental_tables) BuildTables();
  return Status::OK();
}

StatusOr<std::unique_ptr<JointStatsProvider>> EmpiricalJointStats::Clone()
    const {
  return std::unique_ptr<JointStatsProvider>(new EmpiricalJointStats(*this));
}

EmpiricalJointStatsState EmpiricalJointStats::ExportState() const {
  EmpiricalJointStatsState state;
  state.k = k_;
  state.options = options_;
  state.total_true = total_true_;
  state.total_false = total_false_;
  auto export_patterns = [](const std::vector<Pattern>& patterns,
                            std::vector<EmpiricalJointStatsState::PatternCount>*
                                out) {
    out->reserve(patterns.size());
    for (const Pattern& p : patterns) {
      out->push_back({p.providers, p.scope, p.count});
    }
  };
  export_patterns(true_patterns_, &state.true_patterns);
  export_patterns(false_patterns_, &state.false_patterns);
  return state;
}

StatusOr<std::unique_ptr<EmpiricalJointStats>> EmpiricalJointStats::FromState(
    const EmpiricalJointStatsState& state) {
  if (state.k < 1 || state.k > 64) {
    return Status::InvalidArgument("joint stats state: k must be in [1, 64]");
  }
  FUSER_RETURN_IF_ERROR(ValidateQualityOptions(state.options));
  auto stats = std::unique_ptr<EmpiricalJointStats>(new EmpiricalJointStats());
  stats->k_ = state.k;
  stats->options_ = state.options;
  const Mask full = FullMask(state.k);
  auto import_patterns =
      [&](const std::vector<EmpiricalJointStatsState::PatternCount>& in,
          std::vector<Pattern>* out,
          std::unordered_map<std::pair<Mask, Mask>, size_t, MaskPairHash>*
              index,
          uint64_t expected_total) -> Status {
    out->reserve(in.size());
    index->reserve(in.size());
    uint64_t total = 0;
    for (const auto& p : in) {
      if ((p.providers & ~full) != 0 || (p.scope & ~full) != 0) {
        return Status::InvalidArgument(
            "joint stats state: pattern mask outside cluster");
      }
      auto [it, inserted] =
          index->emplace(std::make_pair(p.providers, p.scope), out->size());
      (void)it;
      if (!inserted) {
        return Status::InvalidArgument(
            "joint stats state: duplicate pattern");
      }
      out->push_back({p.providers, p.scope, p.count});
      total += p.count;
    }
    if (total != expected_total) {
      return Status::InvalidArgument(
          "joint stats state: totals disagree with pattern counts");
    }
    return Status::OK();
  };
  FUSER_RETURN_IF_ERROR(import_patterns(state.true_patterns,
                                        &stats->true_patterns_,
                                        &stats->true_index_,
                                        state.total_true));
  FUSER_RETURN_IF_ERROR(import_patterns(state.false_patterns,
                                        &stats->false_patterns_,
                                        &stats->false_index_,
                                        state.total_false));
  stats->total_true_ = static_cast<size_t>(state.total_true);
  stats->total_false_ = static_cast<size_t>(state.total_false);
  // kSosTableMaxBits also caps the tables a k read from a file can ask for.
  stats->BuildTables();
  return stats;
}

StatusOr<EmpiricalJointStatsState> MergeJointStatsStates(
    const std::vector<EmpiricalJointStatsState>& states) {
  if (states.empty()) {
    return Status::InvalidArgument("no joint stats states to merge");
  }
  EmpiricalJointStatsState merged;
  merged.k = states[0].k;
  merged.options = states[0].options;

  using Index =
      std::unordered_map<std::pair<Mask, Mask>, size_t, MaskPairHash>;
  Index true_index;
  Index false_index;
  auto fold = [](const std::vector<EmpiricalJointStatsState::PatternCount>& in,
                 std::vector<EmpiricalJointStatsState::PatternCount>* out,
                 Index* index) {
    for (const auto& p : in) {
      auto [it, inserted] =
          index->emplace(std::make_pair(p.providers, p.scope), out->size());
      if (inserted) {
        out->push_back(p);
      } else {
        (*out)[it->second].count += p.count;
      }
    }
  };
  for (const EmpiricalJointStatsState& state : states) {
    if (state.k != merged.k || state.options.alpha != merged.options.alpha ||
        state.options.smoothing != merged.options.smoothing ||
        state.options.use_scopes != merged.options.use_scopes) {
      return Status::InvalidArgument(
          "joint stats states disagree on k or options");
    }
    merged.total_true += state.total_true;
    merged.total_false += state.total_false;
    fold(state.true_patterns, &merged.true_patterns, &true_index);
    fold(state.false_patterns, &merged.false_patterns, &false_index);
  }
  return merged;
}

EmpiricalJointStats::Counts EmpiricalJointStats::ComputeCounts(
    Mask subset) const {
  Counts counts;
  if (has_tables_) {
    counts.num_true = sup_true_[subset];
    counts.num_false = sup_false_[subset];
    counts.den_true =
        options_.use_scopes ? sup_scope_true_[subset] : total_true_;
    return counts;
  }
  for (const Pattern& p : true_patterns_) {
    if ((p.providers & subset) == subset) counts.num_true += p.count;
    if (options_.use_scopes && (p.scope & subset) == subset) {
      counts.den_true += p.count;
    }
  }
  if (!options_.use_scopes) counts.den_true = total_true_;
  for (const Pattern& p : false_patterns_) {
    if ((p.providers & subset) == subset) counts.num_false += p.count;
  }
  return counts;
}

JointQuality EmpiricalJointStats::Get(Mask subset) const {
  FUSER_CHECK_EQ(subset & ~FullMask(k_), 0u) << "mask outside cluster";
  if (subset == 0) {
    // Convention: every source in the empty set provides every triple.
    return {options_.alpha, 1.0, 1.0};
  }
  const Counts counts = ComputeCounts(subset);
  return QualityFromCounts(static_cast<double>(counts.num_true),
                           static_cast<double>(counts.num_false),
                           static_cast<double>(counts.den_true), options_);
}

Status EmpiricalJointStats::CheckDirectQuery(bool calibrated) const {
  if (!SupportsDirectLikelihood()) {
    return Status::FailedPrecondition(
        "direct likelihood requires smoothing == 0");
  }
  if (!calibrated && total_true_ == 0) {
    return Status::FailedPrecondition("no true training triples");
  }
  return Status::OK();
}

std::pair<double, double> EmpiricalJointStats::DirectLikelihood(
    Mask providers, const PatternCounts& counts, bool calibrated) const {
  if (calibrated) {
    // Laplace-smoothed natural conditionals; +0.5/+1 keeps both likelihoods
    // strictly positive and tempers one-count patterns.
    return {(static_cast<double>(counts.cnt_true) + 0.5) /
                (static_cast<double>(counts.den_true) + 1.0),
            (static_cast<double>(counts.cnt_false) + 0.5) /
                (static_cast<double>(counts.den_false) + 1.0)};
  }
  if (counts.den_true == 0) {
    // No training triple with this scope: the cluster is uninformative.
    return {1.0, 1.0};
  }
  const double alpha_odds = options_.alpha / (1.0 - options_.alpha);
  const double tt = static_cast<double>(counts.den_true);
  const double pt = static_cast<double>(counts.cnt_true) / tt;
  double pf = alpha_odds * static_cast<double>(counts.cnt_false) / tt;
  if (providers == 0) {
    // The S* = empty term uses q of the empty set (== 1), not the
    // count-derived value; add the difference (can make pf leave [0,1]
    // when the derived q parameters are inconsistent; callers clamp).
    pf += 1.0 - alpha_odds * static_cast<double>(counts.den_false) / tt;
  }
  return {pt, pf};
}

Status EmpiricalJointStats::DirectPatternLikelihood(
    Mask providers, Mask nonproviders, bool calibrated, double* pr_given_true,
    double* pr_given_false) const {
  FUSER_RETURN_IF_ERROR(CheckDirectQuery(calibrated));
  if ((providers & nonproviders) != 0) {
    return Status::InvalidArgument("providers and nonproviders overlap");
  }
  // Scope-aware: the likelihoods condition on the observed scope - counts
  // run over training triples whose scope covers every source with an
  // opinion (P union N), so the denominators are consistent.
  const Mask observed = providers | nonproviders;
  PatternCounts counts;
  auto scan = [&](const std::vector<Pattern>& patterns, size_t* cnt,
                  size_t* den) {
    for (const Pattern& p : patterns) {
      if (options_.use_scopes && (p.scope & observed) != observed) continue;
      *den += p.count;
      if ((p.providers & observed) == providers) *cnt += p.count;
    }
  };
  scan(true_patterns_, &counts.cnt_true, &counts.den_true);
  scan(false_patterns_, &counts.cnt_false, &counts.den_false);
  std::tie(*pr_given_true, *pr_given_false) =
      DirectLikelihood(providers, counts, calibrated);
  return Status::OK();
}

Status EmpiricalJointStats::ScoreAllPatterns(
    const std::vector<PatternQuery>& queries, bool calibrated,
    std::vector<std::pair<double, double>>* out) const {
  FUSER_RETURN_IF_ERROR(CheckDirectQuery(calibrated));
  for (const PatternQuery& q : queries) {
    if ((q.providers & q.nonproviders) != 0) {
      return Status::InvalidArgument("providers and nonproviders overlap");
    }
  }
  out->assign(queries.size(), {0.0, 0.0});

  // Queries conditioning on the same observed-scope mask share their
  // denominators and their partition of the training patterns, so group
  // them and make one pass over the pattern lists per group. Within a
  // group, a training pattern matches query (P, N) iff its provider set
  // restricted to observed = P | N equals exactly P — so one hash of
  // (providers & observed) per training pattern answers every query of the
  // group in O(1). Integer counts only: results stay byte-identical to the
  // per-query scan regardless of grouping or thread count.
  std::unordered_map<Mask, std::vector<uint32_t>> groups;
  for (size_t i = 0; i < queries.size(); ++i) {
    groups[queries[i].providers | queries[i].nonproviders].push_back(
        static_cast<uint32_t>(i));
  }
  std::unordered_map<Mask, std::pair<size_t, size_t>> counts;
  for (const auto& [observed, group] : groups) {
    PatternCounts query;
    counts.clear();
    for (const Pattern& p : true_patterns_) {
      if (options_.use_scopes && (p.scope & observed) != observed) continue;
      query.den_true += p.count;
      counts[p.providers & observed].first += p.count;
    }
    for (const Pattern& p : false_patterns_) {
      if (options_.use_scopes && (p.scope & observed) != observed) continue;
      query.den_false += p.count;
      counts[p.providers & observed].second += p.count;
    }
    for (uint32_t i : group) {
      query.cnt_true = 0;
      query.cnt_false = 0;
      if (auto it = counts.find(queries[i].providers); it != counts.end()) {
        query.cnt_true = it->second.first;
        query.cnt_false = it->second.second;
      }
      (*out)[i] = DirectLikelihood(queries[i].providers, query, calibrated);
    }
  }
  return Status::OK();
}

ExplicitJointStats::ExplicitJointStats(std::vector<JointQuality> singletons,
                                       double alpha)
    : singles_(std::move(singletons)), alpha_(alpha) {
  FUSER_CHECK_LE(singles_.size(), 64u);
  FUSER_CHECK_GT(alpha_, 0.0);
  FUSER_CHECK_LT(alpha_, 1.0);
}

void ExplicitJointStats::SetJoint(Mask subset, JointQuality quality) {
  FUSER_CHECK_GE(PopCount(subset), 2);
  joints_[subset] = quality;
}

JointQuality ExplicitJointStats::Get(Mask subset) const {
  FUSER_CHECK_EQ(subset & ~FullMask(num_sources()), 0u)
      << "mask outside cluster";
  if (subset == 0) {
    return {alpha_, 1.0, 1.0};
  }
  if (PopCount(subset) == 1) {
    return singles_[static_cast<size_t>(LowestBit(subset))];
  }
  auto it = joints_.find(subset);
  if (it != joints_.end()) {
    return it->second;
  }
  // Fallback: independence over the member sources.
  double r = 1.0;
  double q = 1.0;
  ForEachBit(subset, [&](int i) {
    r *= singles_[static_cast<size_t>(i)].recall;
    q *= singles_[static_cast<size_t>(i)].fpr;
  });
  JointQuality quality;
  quality.recall = r;
  quality.fpr = q;
  double num = alpha_ * r;
  double den = alpha_ * r + (1.0 - alpha_) * q;
  quality.precision = den > 0.0 ? num / den : alpha_;
  return quality;
}

}  // namespace fuser
