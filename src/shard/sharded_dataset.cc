#include "shard/sharded_dataset.h"

#include <utility>

#include "common/logging.h"

namespace fuser {

// ---- ShardMap / ShardMapBuilder ------------------------------------------

ShardLocation ShardMap::Get(size_t global) const {
  FUSER_CHECK_LT(global, size_);
  return chunks_[global >> kChunkBits]->entries[global & (kChunkSize - 1)];
}

void ShardMapBuilder::Append(ShardLocation location) {
  const size_t offset = size_ & (ShardMap::kChunkSize - 1);
  if (offset == 0) {
    chunks_.push_back(std::make_shared<ShardMap::Chunk>());
  }
  chunks_.back()->entries[offset] = location;
  ++size_;
}

ShardLocation ShardMapBuilder::Get(size_t global) const {
  FUSER_CHECK_LT(global, size_);
  return chunks_[global >> ShardMap::kChunkBits]
      ->entries[global & (ShardMap::kChunkSize - 1)];
}

std::shared_ptr<const ShardMap> ShardMapBuilder::Snapshot() const {
  auto map = std::make_shared<ShardMap>();
  map->chunks_.assign(chunks_.begin(), chunks_.end());
  map->size_ = size_;
  return map;
}

// ---- ShardedCorpus -------------------------------------------------------

ShardedCorpus::ShardedCorpus(const ShardingOptions& options)
    : options_(options) {
  FUSER_CHECK(ValidateShardingOptions(options).ok())
      << "invalid ShardingOptions";
  shards_.reserve(options.num_shards);
  for (uint32_t k = 0; k < options.num_shards; ++k) {
    shards_.push_back(std::make_unique<Dataset>());
  }
  local_to_global_.resize(options.num_shards);
}

StatusOr<ShardedCorpus> ShardedCorpus::Partition(
    const Dataset& full, const ShardingOptions& options) {
  FUSER_RETURN_IF_ERROR(ValidateShardingOptions(options));
  if (!full.finalized()) {
    return Status::FailedPrecondition("Partition requires a finalized dataset");
  }
  if (full.num_sources() == 0) {
    return Status::InvalidArgument("dataset has no sources");
  }
  if (full.num_triples() == 0) {
    return Status::InvalidArgument("dataset has no triples");
  }
  ShardedCorpus corpus(options);
  for (auto& shard : corpus.shards_) {
    for (SourceId s = 0; s < full.num_sources(); ++s) {
      shard->AddSource(full.source_name(s));
    }
  }
  corpus.IndexSources();
  // `full`'s triples are unique, so each goes straight to its domain's
  // shard as that shard's next local id.
  for (TripleId t = 0; t < full.num_triples(); ++t) {
    const std::string_view domain = full.domain_name(full.domain(t));
    const uint32_t k = ShardOfDomain(domain, options);
    Dataset& shard = *corpus.shards_[k];
    const TripleId local = shard.AddTriple(full.triple(t), domain);
    if (!corpus.single()) corpus.AppendGlobal(k, local);
    const Label label = full.label(t);
    if (label != Label::kUnknown) shard.SetLabel(local, label == Label::kTrue);
  }
  for (SourceId s = 0; s < full.num_sources(); ++s) {
    full.output(s).ForEach([&](size_t t) {
      const ShardLocation loc = corpus.Locate(static_cast<TripleId>(t));
      corpus.shards_[loc.shard]->Provide(s, loc.local);
    });
  }
  for (auto& shard : corpus.shards_) {
    FUSER_RETURN_IF_ERROR(shard->Finalize(/*allow_empty=*/true));
  }
  return corpus;
}

StatusOr<ShardedCorpus> ShardedCorpus::Partition(
    std::unique_ptr<Dataset> full, const ShardingOptions& options) {
  if (full == nullptr) {
    return Status::InvalidArgument("Partition requires a dataset");
  }
  if (options.num_shards != 1) return Partition(*full, options);
  if (!full->finalized()) {
    return Status::FailedPrecondition("Partition requires a finalized dataset");
  }
  ShardedCorpus corpus;
  corpus.options_ = options;
  corpus.shards_.push_back(std::move(full));
  corpus.IndexSources();
  return corpus;
}

StatusOr<ShardedCorpus> ShardedCorpus::FromShards(
    std::vector<std::unique_ptr<Dataset>> shards,
    const std::vector<std::vector<TripleId>>& local_to_global,
    const ShardingOptions& options) {
  FUSER_RETURN_IF_ERROR(ValidateShardingOptions(options));
  if (shards.size() != options.num_shards ||
      local_to_global.size() != shards.size()) {
    return Status::InvalidArgument(
        "shard count does not match the sharding options");
  }
  size_t total = 0;
  for (size_t k = 0; k < shards.size(); ++k) {
    if (shards[k] == nullptr || !shards[k]->finalized()) {
      return Status::InvalidArgument("missing or unfinalized shard dataset");
    }
    if (local_to_global[k].size() != shards[k]->num_triples()) {
      return Status::InvalidArgument(
          "shard id map does not match the shard's triple count");
    }
    total += shards[k]->num_triples();
  }

  ShardedCorpus corpus(options);
  corpus.shards_ = std::move(shards);

  // Source tables must be identical across shards (global == local ids).
  const Dataset& first = *corpus.shards_[0];
  for (size_t k = 1; k < corpus.shards_.size(); ++k) {
    const Dataset& other = *corpus.shards_[k];
    if (other.num_sources() != first.num_sources()) {
      return Status::InvalidArgument("shards disagree on the source table");
    }
    for (SourceId s = 0; s < first.num_sources(); ++s) {
      if (other.source_name(s) != first.source_name(s)) {
        return Status::InvalidArgument("shards disagree on the source table");
      }
    }
  }
  corpus.IndexSources();

  if (corpus.single()) {
    // The identity partition: the only valid map is 0..n-1.
    for (TripleId local = 0; local < local_to_global[0].size(); ++local) {
      if (local_to_global[0][local] != local) {
        return Status::InvalidArgument(
            "shard id maps do not form a bijection onto the global ids");
      }
    }
    return corpus;
  }

  // Invert the per-shard maps into global order, checking bijectivity.
  std::vector<ShardLocation> locations(total);
  std::vector<bool> seen(total, false);
  for (size_t k = 0; k < corpus.shards_.size(); ++k) {
    for (TripleId local = 0; local < local_to_global[k].size(); ++local) {
      const TripleId global = local_to_global[k][local];
      if (global >= total || seen[global]) {
        return Status::InvalidArgument(
            "shard id maps do not form a bijection onto the global ids");
      }
      if (local > 0 && global <= local_to_global[k][local - 1]) {
        // The router assigns shard-local ids in global id order; a
        // non-monotone map cannot have come from SaveSnapshot.
        return Status::InvalidArgument(
            "shard id map is not increasing in global id order");
      }
      seen[global] = true;
      locations[global] = ShardLocation{static_cast<uint32_t>(k), local};
    }
  }
  for (const ShardLocation& loc : locations) {
    corpus.AppendGlobal(loc.shard, loc.local);
  }
  // Each shard's Dataset holds its triples once; the file could still put
  // one triple in two shards, so probe each in the shards after its own.
  for (size_t k = 0; k + 1 < corpus.shards_.size(); ++k) {
    const Dataset& shard = *corpus.shards_[k];
    for (TripleId local = 0; local < shard.num_triples(); ++local) {
      const TripleView triple = shard.triple(local);
      for (size_t j = k + 1; j < corpus.shards_.size(); ++j) {
        if (corpus.shards_[j]->FindTriple(triple) != kInvalidTriple) {
          return Status::InvalidArgument("shards contain duplicate triples");
        }
      }
    }
  }
  return corpus;
}

void ShardedCorpus::IndexSources() {
  const Dataset& first = *shards_[0];
  for (SourceId s = 0; s < first.num_sources(); ++s) {
    source_index_.emplace(first.source_name(s), s);
  }
}

void ShardedCorpus::AppendGlobal(uint32_t shard, TripleId local) {
  FUSER_CHECK_EQ(local_to_global_[shard].size(), local);
  local_to_global_[shard].push_back(static_cast<TripleId>(map_.size()));
  map_.Append(ShardLocation{shard, local});
}

StatusOr<RoutedBatch> ShardedCorpus::RouteBatch(
    const ObservationBatch& batch) const {
  if (single()) {
    return Status::FailedPrecondition(
        "a single-shard corpus streams through its engine, not the router");
  }
  const size_t num_shards = shards_.size();
  RoutedBatch routed;
  routed.per_shard.resize(num_shards);
  routed.dirty.assign(num_shards, false);
  routed.shard_new_counts.assign(num_shards, 0);

  // New source names, in the order ApplyBatch would intern them: explicit
  // registrations first, then first mentions in observation order.
  std::unordered_map<std::string, SourceId> pending_sources;
  auto note_source = [&](const std::string& name) {
    if (source_index_.find(name) != source_index_.end()) return;
    if (!pending_sources.emplace(name, 0).second) return;
    routed.new_sources.push_back(name);
  };
  for (const std::string& name : batch.register_sources) note_source(name);

  // Triples the batch itself introduces -> their shard. A triple is new
  // when no shard holds it; its first mention's domain decides the shard,
  // exactly as ApplyBatch's first mention decides the interned domain.
  std::unordered_map<Triple, uint32_t, TripleHash> pending_triples;
  auto shard_of_triple = [&](const Triple& triple, uint32_t home,
                             bool create) -> int {
    auto pending = pending_triples.find(triple);
    if (pending != pending_triples.end()) {
      return static_cast<int>(pending->second);
    }
    for (size_t i = 0; i < num_shards; ++i) {
      const size_t k = (home + i) % num_shards;
      if (shards_[k]->FindTriple(triple) != kInvalidTriple) {
        return static_cast<int>(k);
      }
    }
    if (!create) return -1;
    pending_triples.emplace(triple, home);
    routed.new_triple_shards.push_back(home);
    ++routed.shard_new_counts[home];
    return static_cast<int>(home);
  };

  for (const Observation& obs : batch.observations) {
    note_source(obs.source);
    const int shard = shard_of_triple(
        obs.triple, ShardOfDomain(obs.domain, options_), /*create=*/true);
    routed.per_shard[shard].observations.push_back(obs);
    routed.dirty[shard] = true;
  }
  for (const LabelUpdate& label : batch.labels) {
    // Labels carry no domain: probe every shard.
    const int shard = shard_of_triple(label.triple, 0, /*create=*/false);
    if (shard < 0) continue;  // unknown triple: ApplyBatch would skip it
    routed.per_shard[shard].labels.push_back(label);
    routed.dirty[shard] = true;
  }

  if (!routed.new_sources.empty()) {
    // Every shard registers the new names (in the same order), so
    // shard-local SourceIds stay equal to global ones.
    for (size_t k = 0; k < num_shards; ++k) {
      routed.per_shard[k].register_sources = routed.new_sources;
      routed.dirty[k] = true;
    }
  }
  return routed;
}

Status ShardedCorpus::CommitRoute(const RoutedBatch& routed,
                                  const std::vector<const DatasetDelta*>& deltas) {
  if (routed.per_shard.size() != shards_.size() ||
      deltas.size() != shards_.size()) {
    return Status::InvalidArgument("routed batch does not match this corpus");
  }
  std::vector<TripleId> next_local(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (!routed.dirty[k]) continue;
    if (deltas[k] == nullptr) {
      return Status::Internal("dirty shard has no ApplyBatch delta");
    }
    if (deltas[k]->new_triples.size() != routed.shard_new_counts[k]) {
      return Status::Internal(
          "shard interned a different number of new triples than routed");
    }
    next_local[k] = static_cast<TripleId>(deltas[k]->old_num_triples);
    for (SourceId s : deltas[k]->new_sources) {
      if (s >= shards_[k]->num_sources() ||
          shards_[k]->source_name(s) !=
              routed.new_sources[s - deltas[k]->old_num_sources]) {
        return Status::Internal("shard-local source ids diverged from global");
      }
    }
  }
  for (uint32_t shard : routed.new_triple_shards) {
    AppendGlobal(shard, next_local[shard]++);
  }
  for (const std::string& name : routed.new_sources) {
    source_index_.emplace(name, static_cast<SourceId>(source_index_.size()));
  }
  return Status::OK();
}

}  // namespace fuser
