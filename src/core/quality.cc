#include "core/quality.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/simd.h"
#include "common/thread_pool.h"

namespace fuser {

StatusOr<TrainingView> BuildTrainingView(const Dataset& dataset,
                                         const DynamicBitset& train_mask,
                                         size_t num_threads,
                                         ThreadPool* pool) {
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset not finalized");
  }
  if (train_mask.size() != dataset.num_triples()) {
    return Status::InvalidArgument("train_mask size != num_triples");
  }
  // Each corpus word's true and false training bits.
  const size_t num_words = train_mask.num_words();
  const uint64_t* train = train_mask.words();
  const uint64_t* labeled = dataset.labeled_mask().words();
  const uint64_t* truth = dataset.true_mask().words();
  std::vector<uint64_t> class_bits[2] = {std::vector<uint64_t>(num_words),
                                         std::vector<uint64_t>(num_words)};
  for (size_t wi = 0; wi < num_words; ++wi) {
    class_bits[0][wi] = train[wi] & truth[wi];
    class_bits[1][wi] = train[wi] & labeled[wi] & ~truth[wi];
  }
  TrainingView view;
  view.num_sources = dataset.num_sources();
  view.num_true = static_cast<size_t>(simd::AndCountWords(
      class_bits[0].data(), class_bits[0].data(), num_words));
  view.num_false = static_cast<size_t>(simd::AndCountWords(
      class_bits[1].data(), class_bits[1].data(), num_words));
  view.true_words = (view.num_true + 63) / 64;
  view.false_words = (view.num_false + 63) / 64;

  view.domains.reserve(view.num_true + view.num_false);
  for (const std::vector<uint64_t>& bits : class_bits) {
    for (size_t wi = 0; wi < num_words; ++wi) {
      for (uint64_t w = bits[wi]; w != 0; w &= w - 1) {
        view.domains.push_back(dataset.domain(static_cast<TripleId>(
            (wi << 6) + static_cast<size_t>(CountTrailingZeros64(w)))));
      }
    }
  }
  view.num_domains = dataset.num_domains();
  for (SourceId s = 0; s < view.num_sources; ++s) {
    view.covers.push_back(dataset.covers_bitset(s));
  }

  // The columns, one group of at most 64 sources per task. Per corpus
  // word, a transpose turns the group's output words into each triple's
  // provider mask; the masks of a class's training triples queue up in
  // position order, and every 64 of them transpose back into one column
  // word per source.
  const size_t stride = view.stride();
  view.provides.assign(view.num_sources * stride, 0);
  constexpr size_t group_size = 64;
  const size_t num_groups = (view.num_sources + group_size - 1) / group_size;
  auto pack = [&](size_t g) {
    const size_t first = g * group_size;
    const size_t k = std::min(group_size, view.num_sources - first);
    std::vector<const uint64_t*> outputs(k);
    for (size_t i = 0; i < k; ++i) {
      outputs[i] = dataset.output(static_cast<SourceId>(first + i)).words();
    }
    uint64_t rows[64];
    uint64_t masks[64];
    uint64_t queued[2][64];
    size_t num_queued[2] = {0, 0};
    size_t next_word[2] = {0, view.true_words};
    auto flush = [&](int cls) {
      std::fill(queued[cls] + num_queued[cls], queued[cls] + 64, 0);
      simd::TransposeBitColumns(queued[cls], 64, masks);
      for (size_t i = 0; i < k; ++i) {
        view.provides[(first + i) * stride + next_word[cls]] = masks[i];
      }
      ++next_word[cls];
      num_queued[cls] = 0;
    };
    uint64_t providers[64];
    for (size_t wi = 0; wi < num_words; ++wi) {
      if ((class_bits[0][wi] | class_bits[1][wi]) == 0) continue;
      for (size_t i = 0; i < k; ++i) rows[i] = outputs[i][wi];
      simd::TransposeBitColumns(rows, k, providers);
      for (int cls = 0; cls < 2; ++cls) {
        for (uint64_t w = class_bits[cls][wi]; w != 0; w &= w - 1) {
          queued[cls][num_queued[cls]++] =
              providers[CountTrailingZeros64(w)];
          if (num_queued[cls] == 64) flush(cls);
        }
      }
    }
    for (int cls = 0; cls < 2; ++cls) {
      if (num_queued[cls] > 0) flush(cls);
    }
  };
  ParallelFor(num_groups,
              std::max<size_t>(
                  1, std::min(num_groups, ResolveNumThreads(num_threads))),
              pack, ParallelForOptions{pool, nullptr});
  return view;
}

StatusOr<std::vector<SourceQuality>> EstimateSourceQuality(
    const Dataset& dataset, const DynamicBitset& train_mask,
    const QualityOptions& options) {
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset not finalized");
  }
  if (train_mask.size() != dataset.num_triples()) {
    return Status::InvalidArgument("train_mask size != num_triples");
  }
  DynamicBitset train_true = dataset.true_mask();
  train_true.AndWith(train_mask);
  DynamicBitset train_labeled = dataset.labeled_mask();
  train_labeled.AndWith(train_mask);
  const size_t total_true = train_true.Count();
  std::vector<size_t> domain_true;
  if (options.use_scopes) {
    domain_true.assign(dataset.num_domains(), 0);
    train_true.ForEach([&](size_t t) {
      ++domain_true[dataset.domain(static_cast<TripleId>(t))];
    });
  }

  std::vector<SourceQuality> result(dataset.num_sources());
  for (SourceId i = 0; i < dataset.num_sources(); ++i) {
    SourceQuality& sq = result[i];
    const DynamicBitset& output = dataset.output(i);
    sq.provided_true = output.AndCount(train_true);
    sq.provided_labeled = output.AndCount(train_labeled);
    if (options.use_scopes) {
      sq.scope_true = 0;
      dataset.covers_bitset(i).ForEach(
          [&](size_t d) { sq.scope_true += domain_true[d]; });
    } else {
      sq.scope_true = total_true;
    }
  }
  FUSER_RETURN_IF_ERROR(FinalizeQualityFromCounts(options, &result));
  return result;
}

Status ValidateQualityOptions(const QualityOptions& options) {
  if (!(options.alpha > 0.0 && options.alpha < 1.0)) {
    return Status::InvalidArgument("alpha must be in (0,1)");
  }
  if (!std::isfinite(options.smoothing) || options.smoothing < 0.0) {
    return Status::InvalidArgument("smoothing must be finite and >= 0");
  }
  return Status::OK();
}

Status FinalizeQualityFromCounts(const QualityOptions& options,
                                 std::vector<SourceQuality>* quality) {
  FUSER_RETURN_IF_ERROR(ValidateQualityOptions(options));
  for (SourceQuality& sq : *quality) {
    const JointQuality q = QualityFromCounts(
        static_cast<double>(sq.provided_true),
        static_cast<double>(sq.provided_labeled - sq.provided_true),
        static_cast<double>(sq.scope_true), options);
    sq.precision = q.precision;
    sq.recall = q.recall;
    sq.fpr = q.fpr;
  }
  return Status::OK();
}

Status MergeQualityCounts(std::vector<SourceQuality>* into,
                          const std::vector<SourceQuality>& from) {
  if (into->size() != from.size()) {
    return Status::InvalidArgument("quality count vectors differ in length");
  }
  for (size_t i = 0; i < from.size(); ++i) {
    (*into)[i].provided_labeled += from[i].provided_labeled;
    (*into)[i].provided_true += from[i].provided_true;
    (*into)[i].scope_true += from[i].scope_true;
  }
  return Status::OK();
}

}  // namespace fuser
