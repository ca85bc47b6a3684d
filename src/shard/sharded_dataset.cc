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

// ---- Key encoding --------------------------------------------------------

void EncodeTripleKey(const TripleView& triple, std::string* key) {
  key->clear();
  key->reserve(triple.subject.size() + triple.predicate.size() +
               triple.object.size() + 2);
  key->append(triple.subject);
  key->push_back('\x1f');
  key->append(triple.predicate);
  key->push_back('\x1f');
  key->append(triple.object);
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
  ShardedCorpus corpus(options);
  for (SourceId s = 0; s < full.num_sources(); ++s) {
    corpus.AddSource(full.source_name(s));
  }
  for (TripleId t = 0; t < full.num_triples(); ++t) {
    const TripleId global =
        corpus.AddTriple(full.triple(t), full.domain_name(full.domain(t)));
    if (global != t) {
      return Status::InvalidArgument(
          "dataset contains duplicate triples; cannot partition");
    }
    const Label label = full.label(t);
    if (label != Label::kUnknown) {
      corpus.SetLabel(t, label == Label::kTrue);
    }
  }
  for (SourceId s = 0; s < full.num_sources(); ++s) {
    full.output(s).ForEach(
        [&](size_t t) { corpus.Provide(s, static_cast<TripleId>(t)); });
  }
  FUSER_RETURN_IF_ERROR(corpus.Finalize());
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
  corpus.index_.reserve(total);
  std::string key;
  for (size_t global = 0; global < total; ++global) {
    const ShardLocation loc = locations[global];
    EncodeTripleKey(corpus.shards_[loc.shard]->triple(loc.local), &key);
    if (corpus.InternGlobal(key, loc.shard, loc.local) !=
        static_cast<TripleId>(global)) {
      return Status::InvalidArgument("shards contain duplicate triples");
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

SourceId ShardedCorpus::AddSource(std::string_view name) {
  const SourceId id = static_cast<SourceId>(source_index_.size());
  for (auto& shard : shards_) {
    const SourceId local = shard->AddSource(name);
    FUSER_CHECK_EQ(local, id);
  }
  source_index_.emplace(std::string(name), id);
  return id;
}

TripleId ShardedCorpus::InternGlobal(std::string_view key, uint32_t shard,
                                     TripleId local) {
  const TripleId global = static_cast<TripleId>(map_.size());
  auto [it, inserted] = index_.emplace(arena_.Intern(key), global);
  if (!inserted) return it->second;
  map_.Append(ShardLocation{shard, local});
  FUSER_CHECK_EQ(local_to_global_[shard].size(), local);
  local_to_global_[shard].push_back(global);
  return global;
}

TripleId ShardedCorpus::AddTriple(const TripleView& triple,
                                  std::string_view domain) {
  if (single()) return shards_[0]->AddTriple(triple, domain);
  std::string key;
  EncodeTripleKey(triple, &key);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  const uint32_t shard = ShardOfDomain(domain, options_);
  const TripleId local = shards_[shard]->AddTriple(triple, domain);
  return InternGlobal(key, shard, local);
}

void ShardedCorpus::Provide(SourceId source, TripleId global) {
  const ShardLocation loc = Locate(global);
  shards_[loc.shard]->Provide(source, loc.local);
}

void ShardedCorpus::SetLabel(TripleId global, bool is_true) {
  const ShardLocation loc = Locate(global);
  shards_[loc.shard]->SetLabel(loc.local, is_true);
}

Status ShardedCorpus::Finalize() {
  if (source_index_.empty()) {
    return Status::InvalidArgument("dataset has no sources");
  }
  if (num_triples() == 0) {
    return Status::InvalidArgument("dataset has no triples");
  }
  for (auto& shard : shards_) {
    FUSER_RETURN_IF_ERROR(shard->Finalize(/*allow_empty=*/true));
  }
  return Status::OK();
}

TripleId ShardedCorpus::Find(const TripleView& triple) const {
  if (single()) return shards_[0]->FindTriple(triple);
  std::string key;
  EncodeTripleKey(triple, &key);
  auto it = index_.find(key);
  return it == index_.end() ? kInvalidTriple : it->second;
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

  // Triples the batch itself introduces, keyed by encoded text; the value
  // is their index in routed.new_triples (global id = num_triples + index).
  std::unordered_map<std::string, size_t> pending_triples;
  std::string key;
  auto shard_of_triple = [&](const Triple& triple,
                             const std::string& domain,
                             bool create) -> int {
    EncodeTripleKey(triple, &key);
    auto it = index_.find(key);
    if (it != index_.end()) {
      return static_cast<int>(map_.Get(it->second).shard);
    }
    auto pending = pending_triples.find(key);
    if (pending != pending_triples.end()) {
      return static_cast<int>(routed.new_triples[pending->second].shard);
    }
    if (!create) return -1;
    // First mention: its domain decides the shard, exactly as ApplyBatch's
    // first mention decides the interned domain.
    const uint32_t shard = ShardOfDomain(domain, options_);
    pending_triples.emplace(key, routed.new_triples.size());
    routed.new_triples.push_back(RoutedBatch::NewTriple{key, shard});
    ++routed.shard_new_counts[shard];
    return static_cast<int>(shard);
  };

  for (const Observation& obs : batch.observations) {
    note_source(obs.source);
    const int shard = shard_of_triple(obs.triple, obs.domain, /*create=*/true);
    routed.per_shard[shard].observations.push_back(obs);
    routed.dirty[shard] = true;
  }
  for (const LabelUpdate& label : batch.labels) {
    const int shard =
        shard_of_triple(label.triple, /*domain=*/"", /*create=*/false);
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
  for (const RoutedBatch::NewTriple& nt : routed.new_triples) {
    const TripleId local = next_local[nt.shard]++;
    const TripleId global = InternGlobal(nt.key, nt.shard, local);
    if (global + 1 != map_.size()) {
      return Status::Internal("new triple was already present in the index");
    }
  }
  for (const std::string& name : routed.new_sources) {
    source_index_.emplace(name, static_cast<SourceId>(source_index_.size()));
  }
  return Status::OK();
}

}  // namespace fuser
