#include "core/pattern_pipeline.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/math_util.h"
#include "common/simd.h"
#include "common/thread_pool.h"

namespace fuser {

namespace {

Status CheckGroupingInputs(const Dataset& dataset,
                           const CorrelationModel& model) {
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset not finalized");
  }
  if (model.cluster_stats.size() != model.clustering.clusters.size()) {
    return Status::InvalidArgument("model cluster_stats/clusters mismatch");
  }
  return Status::OK();
}

/// Direct-mapped pattern tables hold at most this many slots; larger
/// clusters (wide ones, or many distinct scopes) hash their pattern keys.
constexpr size_t kMaxDirectSlots = size_t{1} << 16;

/// Per-cluster inputs of the word-parallel mask extraction: the provider
/// bitset word span of every cluster source, and the cluster's distinct
/// scope masks with the id of each domain's mask (scope is a property of
/// (source, domain), so a triple's scope is a lookup keyed by its domain).
/// A triple's pattern is a function of (scope id, provider mask), so it
/// has the direct-mapped slot (scope_id << k) | providers.
struct ClusterMaskContext {
  std::vector<const uint64_t*> provider_words;
  std::vector<Mask> scopes;               // distinct scope masks, by id
  std::vector<uint32_t> scope_of_domain;  // empty when scope-free (id 0)
  size_t slots = 0;  // direct-mapped table size; 0 = hash the keys
};

ClusterMaskContext MakeClusterMaskContext(const Dataset& dataset,
                                          const CorrelationModel& model,
                                          size_t cluster_index) {
  const std::vector<SourceId>& cluster =
      model.clustering.clusters[cluster_index];
  const size_t k = cluster.size();
  ClusterMaskContext ctx;
  ctx.provider_words.reserve(k);
  for (SourceId s : cluster) {
    ctx.provider_words.push_back(dataset.output(s).words());
  }
  if (model.use_scopes && dataset.num_domains() > 0) {
    std::unordered_map<Mask, uint32_t> id_of;
    ctx.scope_of_domain.reserve(dataset.num_domains());
    for (DomainId d = 0; d < dataset.num_domains(); ++d) {
      Mask scope = 0;
      for (size_t i = 0; i < k; ++i) {
        if (dataset.covers_domain(cluster[i], d)) {
          scope = WithBit(scope, static_cast<int>(i));
        }
      }
      auto [it, inserted] =
          id_of.emplace(scope, static_cast<uint32_t>(ctx.scopes.size()));
      if (inserted) ctx.scopes.push_back(scope);
      ctx.scope_of_domain.push_back(it->second);
    }
  } else {
    ctx.scopes.push_back(k == 0 ? Mask{0} : FullMask(static_cast<int>(k)));
  }
  if (k < 32 && (ctx.scopes.size() << k) <= kMaxDirectSlots) {
    ctx.slots = ctx.scopes.size() << k;
  }
  return ctx;
}

/// Calls fn(t, scope_id, providers) for every triple t in [begin, end):
/// reads each source's provider bitset one 64-triple word at a time and
/// turns the k words into per-triple provider masks, intersected with the
/// triple's scope. Equivalent to (but ~k bit tests per triple cheaper
/// than) GetClusterObservation per triple.
template <typename Fn>
void ForEachTripleMask(const Dataset& dataset, const ClusterMaskContext& ctx,
                       size_t begin, size_t end, Fn&& fn) {
  const size_t k = ctx.provider_words.size();
  const bool scoped = !ctx.scope_of_domain.empty();
  uint64_t rows[64];
  uint64_t cols[64];
  size_t t = begin;
  while (t < end) {
    const size_t wi = t >> 6;
    const size_t block_begin = wi << 6;
    const size_t block_end = std::min<size_t>(block_begin + 64, end);
    for (size_t i = 0; i < k; ++i) rows[i] = ctx.provider_words[i][wi];
    simd::TransposeBitColumns(rows, k, cols);
    for (; t < block_end; ++t) {
      const uint32_t sid =
          scoped ? ctx.scope_of_domain[dataset.domain(
                       static_cast<TripleId>(t))]
                 : 0;
      // Providers are a subset of scope by construction (a provider covers
      // the triple's domain); the intersection mirrors the scalar path.
      fn(t, sid, cols[t - block_begin] & ctx.scopes[sid]);
    }
  }
}

/// Writes the observation PatternKey of every triple in [begin, end) to
/// out[0 .. end-begin).
void ExtractPatternKeys(const Dataset& dataset, const ClusterMaskContext& ctx,
                        size_t begin, size_t end, PatternKey* out) {
  ForEachTripleMask(dataset, ctx, begin, end,
                    [&](size_t t, uint32_t sid, Mask providers) {
                      out[t - begin] = PatternKey{
                          providers, ctx.scopes[sid] & ~providers};
                    });
}

/// Assigns pattern ids for keys[0 .. count) against a local index,
/// appending unseen keys to `distinct` in first-occurrence order. The
/// previous-key fast path skips the hash for runs of identical patterns.
void AssignLocalIds(const PatternKey* keys, size_t count,
                    std::unordered_map<PatternKey, uint32_t, PatternKeyHash>*
                        index,
                    std::vector<PatternKey>* distinct,
                    uint32_t* ids) {
  bool has_prev = false;
  PatternKey prev_key;
  uint32_t prev_id = 0;
  for (size_t j = 0; j < count; ++j) {
    if (has_prev && keys[j] == prev_key) {
      ids[j] = prev_id;
      continue;
    }
    auto [it, inserted] =
        index->emplace(keys[j], static_cast<uint32_t>(distinct->size()));
    if (inserted) distinct->push_back(keys[j]);
    ids[j] = it->second;
    prev_key = keys[j];
    prev_id = it->second;
    has_prev = true;
  }
}

/// The direct-mapped counterpart of ExtractPatternKeys + AssignLocalIds
/// over [begin, end): same keys, same first-occurrence numbering, with
/// `table` (ctx.slots entries, unseen ones UINT32_MAX) in place of the
/// hash index.
void AssignDirectIds(const Dataset& dataset, const ClusterMaskContext& ctx,
                     size_t begin, size_t end, uint32_t* table,
                     std::vector<PatternKey>* distinct, uint32_t* ids) {
  const size_t k = ctx.provider_words.size();
  ForEachTripleMask(
      dataset, ctx, begin, end, [&](size_t t, uint32_t sid, Mask providers) {
        uint32_t& slot = table[(static_cast<size_t>(sid) << k) | providers];
        if (slot == UINT32_MAX) {
          slot = static_cast<uint32_t>(distinct->size());
          distinct->push_back(
              PatternKey{providers, ctx.scopes[sid] & ~providers});
        }
        ids[t - begin] = slot;
      });
}

/// Fills a one-source cluster's column words over the word-aligned
/// triple range [begin, end): `in_scope` (null without scopes) from the
/// source's per-domain coverage, `provided` from its provider bitset.
/// Intersecting the two mirrors the scalar path (providers are in scope by
/// construction). A source with one scope mask for every domain covers
/// every triple or none, so its scope words need no domain lookups.
void FillSingletonWords(const Dataset& dataset, const ClusterMaskContext& ctx,
                        size_t begin, size_t end, uint64_t* provided,
                        uint64_t* in_scope) {
  const bool one_scope = ctx.scopes.size() == 1;
  const uint64_t one_scope_word = (ctx.scopes[0] & 1) ? ~uint64_t{0} : 0;
  for (size_t wi = begin >> 6; (wi << 6) < end; ++wi) {
    uint64_t scope_word = ~uint64_t{0};
    if (in_scope != nullptr) {
      const size_t first = wi << 6;
      const size_t last = std::min(first + 64, end);
      if (one_scope) {
        const uint64_t valid = last - first == 64
                                   ? ~uint64_t{0}
                                   : (uint64_t{1} << (last - first)) - 1;
        scope_word = one_scope_word & valid;
      } else {
        scope_word = 0;
        for (size_t t = first; t < last; ++t) {
          const Mask scope = ctx.scopes[ctx.scope_of_domain[dataset.domain(
              static_cast<TripleId>(t))]];
          scope_word |= (scope & 1) << (t - first);
        }
      }
      in_scope[wi] = scope_word;
    }
    provided[wi] = ctx.provider_words[0][wi] & scope_word;
  }
}

/// Registers `key` as a pattern of one cluster (appending it when unseen)
/// and returns its id.
uint32_t InternPattern(
    const PatternKey& key,
    std::unordered_map<PatternKey, size_t, PatternKeyHash>* index,
    std::vector<PatternKey>* distinct) {
  auto [it, inserted] = index->emplace(key, distinct->size());
  if (inserted) distinct->push_back(key);
  return static_cast<uint32_t>(it->second);
}

/// Triples per sub-block of a grouping chunk (64 bitset words).
constexpr size_t kSubBlockTriples = 4096;

}  // namespace

std::array<size_t, 4> PatternColumn::FirstTripleOfEachCode(
    size_t num_triples) const {
  std::array<size_t, 4> first;
  first.fill(num_triples);
  const size_t num_words = (num_triples + 63) / 64;
  for (size_t wi = 0; wi < num_words; ++wi) {
    const size_t tail = num_triples - (wi << 6);
    const uint64_t valid =
        tail >= 64 ? ~uint64_t{0} : (uint64_t{1} << tail) - 1;
    const uint64_t p = provided.word(wi);
    const uint64_t s = in_scope.size() == 0 ? valid : in_scope.word(wi);
    const uint64_t of_code[4] = {valid & ~s, p & ~s, s & ~p, p & s};
    for (unsigned code = 0; code < 4; ++code) {
      if (first[code] == num_triples && of_code[code] != 0) {
        first[code] = (wi << 6) + static_cast<size_t>(
                                      CountTrailingZeros64(of_code[code]));
      }
    }
  }
  return first;
}

StatusOr<PatternGrouping> BuildPatternGrouping(const Dataset& dataset,
                                               const CorrelationModel& model,
                                               size_t num_threads,
                                               ThreadPool* pool) {
  FUSER_RETURN_IF_ERROR(CheckGroupingInputs(dataset, model));
  const size_t num_clusters = model.clustering.clusters.size();
  const size_t m = dataset.num_triples();

  PatternGrouping grouping;
  grouping.num_triples = m;
  grouping.dataset = &dataset;
  grouping.model_fingerprint = ModelGroupingFingerprint(model);
  grouping.distinct.resize(num_clusters);
  grouping.columns.resize(num_clusters);
  grouping.index.resize(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    grouping.columns[c].singleton = model.clustering.clusters[c].size() == 1;
  }
  if (m == 0 || num_clusters == 0) return grouping;

  const size_t num_words = (m + 63) / 64;
  const size_t workers = std::min(ResolveNumThreads(num_threads), num_words);
  const ParallelForOptions on_pool{pool, nullptr};

  std::vector<ClusterMaskContext> contexts(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    contexts[c] = MakeClusterMaskContext(dataset, model, c);
  }
  // The columns are sized in parallel, so their first-touch page faults
  // are spread over the workers.
  ParallelFor(
      num_clusters, workers,
      [&](size_t c) {
        PatternColumn& column = grouping.columns[c];
        if (!column.singleton) {
          column.ids.resize(m);
          return;
        }
        column.provided = DynamicBitset(m);
        if (model.use_scopes) column.in_scope = DynamicBitset(m);
      },
      on_pool);

  // Partition the triple range into word-aligned chunks. Workers number
  // each chunk's patterns locally, writing the local ids straight into
  // the id columns; the merge below walks chunks in triple order, so the
  // global result cannot depend on scheduling.
  size_t num_chunks = workers <= 1 ? 1 : std::min(num_words, workers * 4);
  const size_t words_per_chunk = (num_words + num_chunks - 1) / num_chunks;
  num_chunks = (num_words + words_per_chunk - 1) / words_per_chunk;
  auto chunk_range = [&](size_t ci) {
    const size_t begin = ci * words_per_chunk * 64;
    const size_t end = std::min(m, begin + words_per_chunk * 64);
    return std::make_pair(begin, end);
  };

  // local_distinct[ci][c]: chunk ci's patterns of cluster c, in
  // first-occurrence order.
  std::vector<std::vector<std::vector<PatternKey>>> local_distinct(
      num_chunks, std::vector<std::vector<PatternKey>>(num_clusters));
  ParallelFor(
      num_chunks, workers,
      [&](size_t ci) {
        const auto [begin, end] = chunk_range(ci);
        // Every cluster's local numbering state lives for the whole chunk,
        // so the chunk can be walked in sub-blocks small enough for their
        // domain ids to stay in cache across all clusters. A chunk numbers
        // at most one pattern per triple, so a table with more slots than
        // the chunk has triples hashes instead: that bounds each chunk's
        // tables, and their fill, by its triple count per cluster.
        std::vector<std::vector<uint32_t>> tables(num_clusters);
        std::vector<std::unordered_map<PatternKey, uint32_t, PatternKeyHash>>
            indexes(num_clusters);
        for (size_t c = 0; c < num_clusters; ++c) {
          if (!grouping.columns[c].singleton &&
              contexts[c].slots <= end - begin) {
            tables[c].assign(contexts[c].slots, UINT32_MAX);
          }
        }
        std::vector<PatternKey> keys;
        for (size_t sub = begin; sub < end; sub += kSubBlockTriples) {
          const size_t sub_end = std::min(end, sub + kSubBlockTriples);
          for (size_t c = 0; c < num_clusters; ++c) {
            PatternColumn& column = grouping.columns[c];
            if (column.singleton) {
              FillSingletonWords(
                  dataset, contexts[c], sub, sub_end,
                  column.provided.MutableWords(),
                  column.in_scope.size() == 0 ? nullptr
                                              : column.in_scope.MutableWords());
              continue;
            }
            uint32_t* ids = column.ids.data() + sub;
            auto& distinct = local_distinct[ci][c];
            if (tables[c].empty()) {
              keys.resize(sub_end - sub);
              ExtractPatternKeys(dataset, contexts[c], sub, sub_end,
                                 keys.data());
              AssignLocalIds(keys.data(), keys.size(), &indexes[c], &distinct,
                             ids);
            } else {
              AssignDirectIds(dataset, contexts[c], sub, sub_end,
                              tables[c].data(), &distinct, ids);
            }
          }
        }
      },
      on_pool);

  // Deterministic merge: chunks are walked in triple order, and each
  // chunk's local distinct list is in first-occurrence order, so global
  // insertion order reproduces exactly the scalar builder's
  // first-occurrence-by-triple order — byte-identical `distinct` at every
  // thread count. Chunk ids whose remap is the identity (always chunk 0)
  // are already global.
  std::vector<std::vector<std::vector<uint32_t>>> remap(
      num_chunks, std::vector<std::vector<uint32_t>>(num_clusters));
  for (size_t c = 0; c < num_clusters; ++c) {
    auto& index = grouping.index[c];
    auto& distinct = grouping.distinct[c];
    PatternColumn& column = grouping.columns[c];
    if (column.singleton) {
      // Codes are numbered in order of their first triple, as the scalar
      // builder meets them.
      const std::array<size_t, 4> first = column.FirstTripleOfEachCode(m);
      std::array<unsigned, 4> codes = {0, 1, 2, 3};
      std::sort(codes.begin(), codes.end(),
                [&](unsigned a, unsigned b) { return first[a] < first[b]; });
      for (unsigned code : codes) {
        if (first[code] == m) break;
        column.id_of_code[code] = InternPattern(PatternColumn::KeyOf(code),
                                                &index, &distinct);
      }
      continue;
    }
    for (size_t ci = 0; ci < num_chunks; ++ci) {
      const auto& chunk_distinct = local_distinct[ci][c];
      std::vector<uint32_t> chunk_remap(chunk_distinct.size());
      bool identity = true;
      for (size_t i = 0; i < chunk_distinct.size(); ++i) {
        auto [it, inserted] = index.emplace(chunk_distinct[i],
                                            distinct.size());
        if (inserted) distinct.push_back(chunk_distinct[i]);
        chunk_remap[i] = static_cast<uint32_t>(it->second);
        identity = identity && it->second == i;
      }
      if (!identity) remap[ci][c] = std::move(chunk_remap);
    }
  }

  ParallelFor(
      num_chunks, workers,
      [&](size_t ci) {
        const auto [begin, end] = chunk_range(ci);
        for (size_t c = 0; c < num_clusters; ++c) {
          const std::vector<uint32_t>& chunk_remap = remap[ci][c];
          if (chunk_remap.empty()) continue;
          uint32_t* ids = grouping.columns[c].ids.data();
          for (size_t t = begin; t < end; ++t) ids[t] = chunk_remap[ids[t]];
        }
      },
      on_pool);
  return grouping;
}

Status UpdatePatternGrouping(const Dataset& dataset,
                             const CorrelationModel& model,
                             const std::vector<TripleId>& changed_existing,
                             PatternGrouping* grouping) {
  if (grouping == nullptr || grouping->dataset != &dataset ||
      grouping->num_clusters() != model.clustering.clusters.size() ||
      grouping->model_fingerprint != ModelGroupingFingerprint(model)) {
    return Status::InvalidArgument(
        "pattern grouping does not match dataset/model");
  }
  const size_t m = dataset.num_triples();
  if (grouping->num_triples > m) {
    return Status::InvalidArgument("pattern grouping ahead of dataset");
  }
  const size_t old_m = grouping->num_triples;
  const size_t tail = m - old_m;
  // The appended tail is read word-parallel when it is large enough to
  // amortize the per-cluster mask context (the scoped context costs
  // O(num_domains x k)); small batches stay on the scalar path. Both paths
  // produce identical keys.
  const bool word_tail =
      tail >= 256 && (!model.use_scopes || tail * 4 >= dataset.num_domains());
  std::vector<PatternKey> tail_keys;
  for (size_t c = 0; c < grouping->num_clusters(); ++c) {
    auto& index = grouping->index[c];
    auto& distinct = grouping->distinct[c];
    PatternColumn& column = grouping->columns[c];
    if (column.singleton) {
      column.provided.Resize(m);
      if (model.use_scopes) column.in_scope.Resize(m);
    } else {
      column.ids.resize(m);
    }
    auto assign_key = [&](TripleId t, const PatternKey& key) {
      const uint32_t id = InternPattern(key, &index, &distinct);
      if (!column.singleton) {
        column.ids[t] = id;
        return;
      }
      // A singleton keeps its own copy of the key's two bits: the
      // dataset's bitsets change in place under later batches.
      const unsigned code = PatternColumn::CodeOf(key);
      column.provided.Assign(t, (code & 1) != 0);
      if (model.use_scopes) column.in_scope.Assign(t, (code & 2) != 0);
      column.id_of_code[code] = id;
    };
    auto assign = [&](TripleId t) {
      ClusterObservation obs = GetClusterObservation(dataset, model, c, t);
      assign_key(t, PatternKey{obs.providers, obs.in_scope & ~obs.providers});
    };
    if (word_tail) {
      const ClusterMaskContext ctx = MakeClusterMaskContext(dataset, model, c);
      tail_keys.resize(tail);
      ExtractPatternKeys(dataset, ctx, old_m, m, tail_keys.data());
      for (size_t j = 0; j < tail; ++j) {
        assign_key(static_cast<TripleId>(old_m + j), tail_keys[j]);
      }
    } else {
      for (TripleId t = static_cast<TripleId>(old_m); t < m; ++t) assign(t);
    }
    for (TripleId t : changed_existing) {
      if (t >= old_m) continue;  // appended above with current masks
      assign(t);
    }
  }
  grouping->num_triples = m;
  return Status::OK();
}

uint64_t ModelGroupingFingerprint(const CorrelationModel& model) {
  // splitmix-style running hash over the scope flag and the exact cluster
  // memberships — everything GetClusterObservation (and hence the
  // grouping) depends on besides the dataset itself.
  uint64_t h = model.use_scopes ? 0x9E3779B97F4A7C15ULL : 0xBF58476D1CE4E5B9ULL;
  for (const std::vector<SourceId>& cluster : model.clustering.clusters) {
    h += cluster.size() + 0x94D049BB133111EBULL;
    for (SourceId s : cluster) {
      h ^= (h >> 30);
      h = (h + s) * 0xFF51AFD7ED558CCDULL;
    }
  }
  return h;
}

StatusOr<std::vector<std::vector<PatternLikelihood>>> ScorePatterns(
    const std::vector<std::vector<PatternKey>>& keys, size_t num_threads,
    const PatternScorer& scorer, const ClusterBatchScorer& batch,
    ThreadPool* pool) {
  const size_t num_clusters = keys.size();
  std::vector<std::vector<PatternLikelihood>> likelihood(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    likelihood[c].assign(keys[c].size(), PatternLikelihood{});
  }

  Status first_error;
  std::mutex error_mu;
  std::atomic<bool> cancel{false};
  auto record_error = [&](const Status& s) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.ok()) first_error = s;
    cancel.store(true, std::memory_order_relaxed);
  };

  // Whole-cluster batched scoring first (parallel across clusters); any
  // cluster the batch scorer declines falls through to the per-pattern
  // work list below.
  std::vector<char> handled(num_clusters, 0);
  if (batch != nullptr) {
    ParallelFor(
        num_clusters, num_threads,
        [&](size_t c) {
          StatusOr<bool> done = batch(c, keys[c], &likelihood[c]);
          if (!done.ok()) {
            record_error(done.status());
            return;
          }
          if (!*done) return;
          handled[c] = 1;
          for (PatternLikelihood& like : likelihood[c]) {
            like.given_true = std::max(like.given_true, 0.0);
            like.given_false = std::max(like.given_false, 0.0);
          }
        },
        ParallelForOptions{pool, &cancel});
    if (!first_error.ok()) return first_error;
  }

  // Flatten remaining (cluster, pattern) pairs into one work list so small
  // clusters do not serialize behind large ones.
  std::vector<std::pair<size_t, size_t>> work;
  for (size_t c = 0; c < num_clusters; ++c) {
    if (handled[c]) continue;
    for (size_t i = 0; i < keys[c].size(); ++i) {
      work.emplace_back(c, i);
    }
  }
  ParallelFor(
      work.size(), num_threads,
      [&](size_t w) {
        const auto& [c, i] = work[w];
        double given_true = 0.0;
        double given_false = 0.0;
        Status s = scorer(c, keys[c][i], &given_true, &given_false);
        if (!s.ok()) {
          record_error(s);
          return;
        }
        likelihood[c][i].given_true = std::max(given_true, 0.0);
        likelihood[c][i].given_false = std::max(given_false, 0.0);
      },
      ParallelForOptions{pool, &cancel});
  if (!first_error.ok()) {
    return first_error;
  }
  return likelihood;
}

PatternLogEntry MakePatternLogEntry(double given_true, double given_false) {
  PatternLogEntry entry;
  if (given_true <= 0.0) {
    entry.flag |= 1;
  } else {
    entry.log_true = std::log(given_true);
  }
  if (given_false <= 0.0) {
    entry.flag |= 2;
  } else {
    entry.log_false = std::log(given_false);
  }
  return entry;
}

PatternPosteriorTable BuildPatternPosteriorTable(
    const std::vector<std::vector<PatternLikelihood>>& likelihood,
    double alpha) {
  PatternPosteriorTable table;
  table.alpha = alpha;
  const size_t num_clusters = likelihood.size();
  table.logs.resize(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    const std::vector<PatternLikelihood>& likes = likelihood[c];
    PatternPosteriorTable::ClusterLogs& logs = table.logs[c];
    logs.log_true.resize(likes.size());
    logs.log_false.resize(likes.size());
    logs.flags.resize(likes.size());
    for (size_t i = 0; i < likes.size(); ++i) {
      const PatternLogEntry entry =
          MakePatternLogEntry(likes[i].given_true, likes[i].given_false);
      logs.log_true[i] = entry.log_true;
      logs.log_false[i] = entry.log_false;
      logs.flags[i] = entry.flag;
    }
  }
  if (num_clusters == 1) {
    // One cluster: a triple's posterior is a function of its distinct
    // pattern alone, so precompute one posterior per pattern and let the
    // gather (and point queries) become a single table read.
    const PatternPosteriorTable::ClusterLogs& logs = table.logs[0];
    table.posterior.resize(logs.flags.size());
    for (size_t i = 0; i < logs.flags.size(); ++i) {
      PatternLogAccumulator acc;
      acc.Add({logs.flags[i], logs.log_true[i], logs.log_false[i]});
      table.posterior[i] = acc.Posterior(alpha);
    }
  }
  return table;
}

PatternPosteriorTable SelectPatternRows(
    const PatternPosteriorTable& table,
    const std::vector<std::vector<uint32_t>>& positions) {
  PatternPosteriorTable selected;
  selected.alpha = table.alpha;
  selected.logs.resize(positions.size());
  for (size_t c = 0; c < positions.size(); ++c) {
    const PatternPosteriorTable::ClusterLogs& from = table.logs[c];
    PatternPosteriorTable::ClusterLogs& logs = selected.logs[c];
    const size_t n = positions[c].size();
    logs.log_true.resize(n);
    logs.log_false.resize(n);
    logs.flags.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t u = positions[c][i];
      logs.log_true[i] = from.log_true[u];
      logs.log_false[i] = from.log_false[u];
      logs.flags[i] = from.flags[u];
    }
  }
  if (!table.posterior.empty()) {
    selected.posterior.resize(positions[0].size());
    for (size_t i = 0; i < positions[0].size(); ++i) {
      selected.posterior[i] = table.posterior[positions[0][i]];
    }
  }
  return selected;
}

namespace {

/// The per-triple combine body of point queries. The dense gather adds the
/// same per-pattern logs and flags in the same cluster order and ends in
/// the same PatternLogAccumulator::Combine, so their results are
/// byte-identical.
inline double CombineClusterEntries(const PatternPosteriorTable& table,
                                    const PatternGrouping& grouping,
                                    size_t t) {
  if (!table.posterior.empty()) {
    return table.posterior[grouping.pattern_id(0, t)];
  }
  PatternLogAccumulator acc;
  const size_t num_clusters = table.logs.size();
  for (size_t c = 0; c < num_clusters; ++c) {
    const size_t i = grouping.pattern_id(c, t);
    const PatternPosteriorTable::ClusterLogs& logs = table.logs[c];
    acc.Add({logs.flags[i], logs.log_true[i], logs.log_false[i]});
  }
  return acc.Posterior(table.alpha);
}

}  // namespace

double ScoreTripleFromTable(const PatternGrouping& grouping,
                            const PatternPosteriorTable& table, TripleId t) {
  return CombineClusterEntries(table, grouping, static_cast<size_t>(t));
}

std::vector<double> GatherPatternScores(const PatternGrouping& grouping,
                                        const PatternPosteriorTable& table,
                                        size_t num_threads, ThreadPool* pool) {
  std::vector<double> scores(grouping.num_triples);
  if (grouping.num_triples == 0) return scores;
  // The triples are gathered in blocks of whole words. With one cluster
  // the combine collapses to scores[t] = posterior[pattern_id(0, t)]
  // (exactly what CombineClusterEntries reads), so an id column runs the
  // dispatched gather kernel: an exact copy at every dispatch level. With
  // many, each triple's lane adds its entries in cluster order, as
  // PatternLogAccumulator::Add does: the same sums, byte for byte, at
  // every thread count.
  constexpr size_t kBlock = 1024;
  const size_t num_blocks = (grouping.num_triples + kBlock - 1) / kBlock;
  const size_t num_clusters = table.logs.size();
  // A one-source cluster's entries, two lanes at a time: row
  // (scope bits << 2) | provided bits holds, for lane k, the entry of code
  // (bit k of the scope bits << 1) | bit k of the provided bits. Codes no
  // pattern has never occur, and read as zeros.
  struct PairEntries {
    double log_true[16][2];
    double log_false[16][2];
    unsigned char flag[16][2];
  };
  std::vector<PairEntries> pairs;
  std::vector<size_t> pair_of(num_clusters, 0);
  // Whether any entry of a cluster has a flag: a cluster without one skips
  // the flag lanes (or-ing 0 is a no-op).
  std::vector<char> any_flag(num_clusters, 0);
  for (size_t c = 0; c < num_clusters; ++c) {
    const PatternColumn& column = grouping.columns[c];
    const PatternPosteriorTable::ClusterLogs& logs = table.logs[c];
    for (unsigned char flag : logs.flags) any_flag[c] |= flag != 0;
    if (!column.singleton) continue;
    PatternLogEntry of_code[4];
    for (unsigned code = 0; code < 4; ++code) {
      const uint32_t i = column.id_of_code[code];
      if (i == PatternColumn::kNoPattern) continue;
      of_code[code] = {logs.flags[i], logs.log_true[i], logs.log_false[i]};
    }
    pair_of[c] = pairs.size();
    PairEntries& pair = pairs.emplace_back();
    for (unsigned row = 0; row < 16; ++row) {
      for (unsigned k = 0; k < 2; ++k) {
        const unsigned code = (((row >> (2 + k)) & 1) << 1) | ((row >> k) & 1);
        pair.log_true[row][k] = of_code[code].log_true;
        pair.log_false[row][k] = of_code[code].log_false;
        pair.flag[row][k] = of_code[code].flag;
      }
    }
  }
  ParallelFor(
      num_blocks, num_threads,
      [&](size_t bi) {
        const size_t begin = bi * kBlock;
        const size_t len = std::min(kBlock, grouping.num_triples - begin);
        double* out = scores.data() + begin;
        if (!table.posterior.empty()) {
          const PatternColumn& column = grouping.columns[0];
          if (!column.singleton) {
            simd::GatherDoubles(table.posterior.data(),
                                column.ids.data() + begin, len, out);
            return;
          }
          for (size_t j = 0; j < len; ++j) {
            out[j] = table.posterior[column.id(begin + j)];
          }
          return;
        }
        // One-source clusters fill whole words; the lanes past len are
        // padding that is never read.
        const size_t words = (len + 63) / 64;
        double log_num[kBlock];
        double log_den[kBlock];
        unsigned char flags[kBlock];
        std::fill_n(log_num, words * 64, 0.0);
        std::fill_n(log_den, words * 64, 0.0);
        std::fill_n(flags, words * 64, static_cast<unsigned char>(0));
        for (size_t c = 0; c < num_clusters; ++c) {
          const PatternColumn& column = grouping.columns[c];
          if (column.singleton) {
            const PairEntries& pair = pairs[pair_of[c]];
            const uint64_t* provided = column.provided.words() + begin / 64;
            const uint64_t* in_scope = column.ScopeWords();
            for (size_t w = 0; w < words; ++w) {
              const uint64_t p = provided[w];
              const uint64_t s = in_scope == nullptr
                                     ? ~uint64_t{0}
                                     : in_scope[begin / 64 + w];
              double* num = log_num + w * 64;
              double* den = log_den + w * 64;
              for (size_t j = 0; j < 64; j += 2) {
                const size_t row = (((s >> j) & 3) << 2) | ((p >> j) & 3);
                num[j] += pair.log_true[row][0];
                num[j + 1] += pair.log_true[row][1];
                den[j] += pair.log_false[row][0];
                den[j + 1] += pair.log_false[row][1];
              }
              if (!any_flag[c]) continue;
              unsigned char* flag = flags + w * 64;
              for (size_t j = 0; j < 64; j += 2) {
                const size_t row = (((s >> j) & 3) << 2) | ((p >> j) & 3);
                flag[j] |= pair.flag[row][0];
                flag[j + 1] |= pair.flag[row][1];
              }
            }
            continue;
          }
          const PatternPosteriorTable::ClusterLogs& logs = table.logs[c];
          const uint32_t* ids = column.ids.data() + begin;
          for (size_t j = 0; j < len; ++j) {
            const uint32_t i = ids[j];
            log_num[j] += logs.log_true[i];
            log_den[j] += logs.log_false[i];
          }
          if (!any_flag[c]) continue;
          for (size_t j = 0; j < len; ++j) flags[j] |= logs.flags[ids[j]];
        }
        const double prior_log_odds = PriorLogOdds(table.alpha);
        for (size_t j = 0; j < len; ++j) {
          out[j] = PatternLogAccumulator::Combine(
              log_num[j], log_den[j], flags[j], table.alpha, prior_log_odds);
        }
      },
      ParallelForOptions{pool, nullptr});
  return scores;
}

std::vector<double> CombinePatternScores(
    const PatternGrouping& grouping,
    const std::vector<std::vector<PatternLikelihood>>& likelihood,
    double alpha, size_t num_threads, ThreadPool* pool) {
  PatternPosteriorTable table = BuildPatternPosteriorTable(likelihood, alpha);
  return GatherPatternScores(grouping, table, num_threads, pool);
}

StatusOr<std::vector<double>> ScorePlan(const Dataset& dataset,
                                        const CorrelationModel& model,
                                        const PatternScoringPlan& plan,
                                        const PatternGrouping* grouping,
                                        size_t num_threads, ThreadPool* pool) {
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset not finalized");
  }
  PatternGrouping local;
  if (grouping == nullptr) {
    FUSER_ASSIGN_OR_RETURN(
        local, BuildPatternGrouping(dataset, model, num_threads, pool));
    grouping = &local;
  } else if (grouping->dataset != &dataset ||
             grouping->num_triples != dataset.num_triples() ||
             grouping->model_fingerprint != ModelGroupingFingerprint(model)) {
    return Status::InvalidArgument(
        "pattern grouping does not match dataset/model");
  }
  FUSER_ASSIGN_OR_RETURN(
      std::vector<std::vector<PatternLikelihood>> likelihood,
      ScorePatterns(grouping->distinct, num_threads, plan.scorer, plan.batch,
                    pool));
  return CombinePatternScores(*grouping, likelihood, plan.alpha, num_threads,
                              pool);
}

}  // namespace fuser
