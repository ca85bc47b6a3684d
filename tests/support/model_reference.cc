#include "support/model_reference.h"

#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/bit_util.h"

namespace fuser {

StatusOr<std::vector<SourceQuality>> ReferenceSourceQuality(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const QualityOptions& options) {
  if (train_mask.size() != dataset.num_triples()) {
    return Status::InvalidArgument("train_mask size != num_triples");
  }
  DynamicBitset train_true = dataset.true_mask();
  train_true.AndWith(train_mask);
  DynamicBitset train_labeled = dataset.labeled_mask();
  train_labeled.AndWith(train_mask);
  const size_t total_true = train_true.Count();

  std::vector<SourceQuality> result(dataset.num_sources());
  for (SourceId i = 0; i < dataset.num_sources(); ++i) {
    SourceQuality& sq = result[i];
    const DynamicBitset& output = dataset.output(i);
    sq.provided_true = output.AndCount(train_true);
    sq.provided_labeled = output.AndCount(train_labeled);
    if (options.use_scopes) {
      size_t in_scope_true = 0;
      train_true.ForEach([&](size_t t) {
        if (dataset.in_scope(i, static_cast<TripleId>(t))) ++in_scope_true;
      });
      sq.scope_true = in_scope_true;
    } else {
      sq.scope_true = total_true;
    }
  }
  FUSER_RETURN_IF_ERROR(FinalizeQualityFromCounts(options, &result));
  return result;
}

namespace {

/// Per-source output ∩ class-mask copies.
struct ClassOutputs {
  DynamicBitset train_true;
  std::vector<DynamicBitset> out_true;
  std::vector<DynamicBitset> out_false;
};

ClassOutputs MaterializeClassOutputs(const Dataset& dataset,
                                     const DynamicBitset& train_mask,
                                     const std::vector<SourceId>& sources) {
  ClassOutputs outputs;
  outputs.train_true = dataset.true_mask();
  outputs.train_true.AndWith(train_mask);
  DynamicBitset train_false = dataset.labeled_mask();
  train_false.AndWith(train_mask);
  train_false.AndNotWith(dataset.true_mask());
  for (SourceId s : sources) {
    DynamicBitset ot = dataset.output(s);
    ot.AndWith(outputs.train_true);
    DynamicBitset of = dataset.output(s);
    of.AndWith(train_false);
    outputs.out_true.push_back(std::move(ot));
    outputs.out_false.push_back(std::move(of));
  }
  return outputs;
}

}  // namespace

PairwiseCounts ReferencePairwiseCounts(const Dataset& dataset,
                                       const DynamicBitset& train_mask,
                                       const std::vector<SourceId>& sources) {
  const ClassOutputs outputs =
      MaterializeClassOutputs(dataset, train_mask, sources);
  PairwiseCounts counts;
  counts.sources = sources;
  counts.total_true = outputs.train_true.Count();
  const size_t n = sources.size();
  for (size_t i = 0; i < n; ++i) {
    counts.true_count.push_back(outputs.out_true[i].Count());
    counts.false_count.push_back(outputs.out_false[i].Count());
  }
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      counts.joint_true.push_back(
          outputs.out_true[a].AndCount(outputs.out_true[b]));
      counts.joint_false.push_back(
          outputs.out_false[a].AndCount(outputs.out_false[b]));
    }
  }
  return counts;
}

StatusOr<std::vector<PairwiseCorrelation>> ReferencePairwiseCorrelations(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const std::vector<SourceId>& sources, const QualityOptions& options) {
  FUSER_ASSIGN_OR_RETURN(
      PairwiseMarginals marginals,
      ComputePairwiseMarginals(dataset, train_mask, sources, options));
  const ClassOutputs outputs =
      MaterializeClassOutputs(dataset, train_mask, sources);
  std::vector<PairwiseCorrelation> result;
  for (size_t a = 0; a < sources.size(); ++a) {
    for (size_t b = a + 1; b < sources.size(); ++b) {
      result.push_back(MakePairwiseCorrelation(
          marginals, a, b,
          static_cast<double>(
              outputs.out_true[a].AndCount(outputs.out_true[b])),
          static_cast<double>(
              outputs.out_false[a].AndCount(outputs.out_false[b]))));
    }
  }
  return result;
}

EmpiricalJointStatsState ReferenceJointStatsState(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const std::vector<SourceId>& cluster, const QualityOptions& options) {
  EmpiricalJointStatsState state;
  state.k = static_cast<int>(cluster.size());
  state.options = options;
  // Map each training triple to its cluster-local (providers, scope) masks
  // and aggregate identical patterns.
  std::unordered_map<std::pair<Mask, Mask>, uint32_t, MaskPairHash> agg_true;
  std::unordered_map<std::pair<Mask, Mask>, uint32_t, MaskPairHash> agg_false;
  const Mask full = FullMask(state.k);
  DynamicBitset train_labeled = dataset.labeled_mask();
  train_labeled.AndWith(train_mask);
  train_labeled.ForEach([&](size_t t) {
    TripleId triple = static_cast<TripleId>(t);
    Mask prov = 0;
    Mask scope = options.use_scopes ? Mask{0} : full;
    for (int i = 0; i < state.k; ++i) {
      SourceId s = cluster[static_cast<size_t>(i)];
      if (dataset.provides(s, triple)) prov = WithBit(prov, i);
      if (options.use_scopes && dataset.in_scope(s, triple)) {
        scope = WithBit(scope, i);
      }
    }
    auto& agg = dataset.label(triple) == Label::kTrue ? agg_true : agg_false;
    ++agg[{prov, scope}];
  });
  auto flatten = [](const auto& agg,
                    std::vector<EmpiricalJointStatsState::PatternCount>* out,
                    uint64_t* total) {
    for (const auto& [key, count] : agg) {
      out->push_back({key.first, key.second, count});
      *total += count;
    }
  };
  flatten(agg_true, &state.true_patterns, &state.total_true);
  flatten(agg_false, &state.false_patterns, &state.total_false);
  return state;
}

StatusOr<CorrelationModel> ReferenceCorrelationModel(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const ModelOptions& options) {
  CorrelationModel model;
  model.alpha = options.alpha;
  model.use_scopes = options.use_scopes;
  FUSER_ASSIGN_OR_RETURN(
      model.source_quality,
      ReferenceSourceQuality(dataset, train_mask, options));
  if (options.enable_clustering) {
    std::vector<SourceId> all(dataset.num_sources());
    std::iota(all.begin(), all.end(), SourceId{0});
    FUSER_ASSIGN_OR_RETURN(
        std::vector<PairwiseCorrelation> pairs,
        ReferencePairwiseCorrelations(dataset, train_mask, all, options));
    FUSER_ASSIGN_OR_RETURN(
        model.clustering,
        ClusterSourcesFromPairs(dataset.num_sources(), pairs,
                                options.clustering));
  } else {
    FUSER_ASSIGN_OR_RETURN(model.clustering,
                           SingleClusterOf(dataset.num_sources()));
  }
  for (const std::vector<SourceId>& cluster : model.clustering.clusters) {
    FUSER_ASSIGN_OR_RETURN(
        std::unique_ptr<EmpiricalJointStats> stats,
        EmpiricalJointStats::FromState(ReferenceJointStatsState(
            dataset, train_mask, cluster, options)));
    model.cluster_stats.push_back(std::move(stats));
  }
  return model;
}

StatusOr<CorrelationModel> BuildCorrelationModelOf(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const ModelOptions& options, size_t num_threads, ThreadPool* pool) {
  FUSER_ASSIGN_OR_RETURN(
      std::vector<SourceQuality> quality,
      EstimateSourceQuality(dataset, train_mask, options));
  return BuildCorrelationModel({{&dataset, &train_mask}}, std::move(quality),
                               options, num_threads, pool);
}

}  // namespace fuser
