#include "persist/snapshot_io.h"


#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/mmap_file.h"
#include "core/fusion_method.h"
#include "core/joint_stats.h"
#include "core/pattern_pipeline.h"
#include "persist/atomic_file.h"
#include "persist/binary_io.h"
#include "persist/snapshot_fields.h"

namespace fuser {
namespace {

using persist::ByteSink;
using persist::ByteSource;
using persist::Checksum64;
using persist::DecodeFields;
using persist::EngineSection;
using persist::FieldWriter;

constexpr char kMagic[8] = {'F', 'U', 'S', 'R', 'S', 'N', 'A', 'P'};
constexpr size_t kHeaderFixedBytes = 16;   // magic + version + section count
constexpr size_t kSectionEntryBytes = 32;  // id + reserved + off + size + sum
constexpr uint32_t kMaxSections = 1024;

// Section ids. New sections are additive (old readers skip unknown ids);
// changing the layout *inside* a section bumps kSnapshotFormatVersion.
constexpr uint32_t kSectionEngine = 1;
constexpr uint32_t kSectionDataset = 2;
constexpr uint32_t kSectionModel = 3;
constexpr uint32_t kSectionGrouping = 4;
constexpr uint32_t kSectionServing = 5;

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("corrupt snapshot: " + what);
}

/// Every section must be consumed exactly; trailing bytes mean the writer
/// and reader disagree about the layout.
Status ExpectExhausted(const ByteSource& src, const char* section) {
  if (!src.exhausted()) {
    return Corrupt(std::string("trailing bytes in ") + section + " section");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ENGINE section: the snapshot's scalar state plus the training mask.
// ---------------------------------------------------------------------------

std::string EncodeEngineSection(const Dataset& dataset,
                                const DynamicBitset& train_mask,
                                const FusionSnapshot& snapshot) {
  EngineSection section;
  section.dataset_version = snapshot.dataset_version;
  section.dataset_fingerprint = dataset.ContentFingerprint();
  section.num_triples = snapshot.num_triples;
  section.num_sources = snapshot.num_sources;
  section.num_domains = dataset.num_domains();
  section.options = snapshot.options;
  section.train_mask = train_mask;
  section.quality = snapshot.quality;
  return persist::EncodeFields(section);
}

Status DecodeEngineSection(ByteSource src, EngineSection* out) {
  FUSER_RETURN_IF_ERROR(DecodeFields(&src, out));
  // The options rebuild every plan, so a file must not set what no engine
  // may run under.
  Status valid = ValidateEngineOptions(out->options);
  if (!valid.ok()) return Corrupt("engine options: " + valid.message());
  FUSER_RETURN_IF_ERROR(ExpectExhausted(src, "engine"));
  if (out->train_mask.size() != out->num_triples) {
    return Corrupt("train mask size disagrees with triple count");
  }
  if (out->quality.size() != out->num_sources) {
    return Corrupt("quality vector size disagrees with source count");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DATASET section (format v2): a columnar aligned-span image.
//
// Payload layout, in file order ("64-aligned" = the field's *file offset*
// is a multiple of 64, which makes it 64-aligned in an mmap and 8-aligned
// in any heap buffer):
//
//   pad0: zeros up to the first 64-aligned offset
//   u64 scalars[9]: dataset version, num_sources, num_domains,
//                   num_triples, arena_image_bytes, arena_chunk_bytes,
//                   provider/domain_source/domain_triple pool lengths
//   u64 source_name_refs[S] | u64 domain_name_refs[D]
//   u64 meta_checksum            (FNV-1a over the payload so far)
//   pad1: zeros up to the next 64-aligned offset
//   arena image                  (arena_image_bytes, multiple of chunk)
//   u64 arrays: subjects[m] predicates[m] objects[m]
//               provider_offsets[m] ds_offsets[D] dt_offsets[D]
//               output_words[S*W] covers_words[S*Wd]
//               true_words[W] labeled_words[W]       (W = ceil(m/64))
//   u32 arrays: domains[m] provider_counts[m] provider_pool
//               ds_counts[D] ds_pool dt_counts[D] dt_pool
//   u8 labels[m]
//
// Every byte (pads included) is covered by the section checksum, so the
// single-byte-flip corruption sweep still rejects every flip. The meta
// checksum covers only pad0 + scalars + refs: it is what AttachMode::kMmap
// verifies — O(S + D) instead of O(total) — before trusting the rest.
// The total payload size is fully determined by the scalars, so a
// truncated section fails the size equation before any pointer is formed.
// Multi-byte fields are stored native-endian; the attach path casts the
// image in place, which (like the rest of this format) assumes a
// little-endian host.
// ---------------------------------------------------------------------------

constexpr size_t kDsScalars = 9;
constexpr uint64_t kMaxDsField = uint64_t{1} << 46;  // 64 TiB sanity bound

size_t PadTo64(uint64_t offset) {
  return static_cast<size_t>((64 - (offset & 63)) & 63);
}

/// Byte offsets of every DATASET payload field, derived from the scalar
/// header and the section's file offset. Shared by the writer and both
/// load paths so the layout is defined exactly once.
struct DsLayout {
  uint64_t version = 0;
  size_t num_sources = 0, num_domains = 0, num_triples = 0;
  size_t arena_bytes = 0, chunk_bytes = 0;
  size_t p_pool = 0, ds_pool = 0, dt_pool = 0;
  size_t words = 0, domain_words = 0;  // W, Wd

  size_t pad0 = 0;
  size_t scalars_off = 0, source_refs_off = 0, domain_refs_off = 0;
  size_t meta_checksum_off = 0;
  size_t arena_off = 0;
  size_t subjects_off = 0, predicates_off = 0, objects_off = 0;
  size_t p_offsets_off = 0, ds_offsets_off = 0, dt_offsets_off = 0;
  size_t outputs_off = 0, covers_off = 0;
  size_t true_off = 0, labeled_off = 0;
  size_t domains_off = 0;
  size_t p_counts_off = 0, p_pool_off = 0;
  size_t ds_counts_off = 0, ds_pool_off = 0;
  size_t dt_counts_off = 0, dt_pool_off = 0;
  size_t labels_off = 0;
  size_t total = 0;
};

Status ComputeDsLayout(uint64_t section_offset,
                       const uint64_t scalars[kDsScalars], DsLayout* l) {
  l->version = scalars[0];
  const uint64_t counts[3] = {scalars[1], scalars[2], scalars[3]};
  for (uint64_t c : counts) {
    if (c >= static_cast<uint32_t>(-1)) {
      return Corrupt("dataset count exceeds 32-bit id space");
    }
  }
  l->num_sources = static_cast<size_t>(scalars[1]);
  l->num_domains = static_cast<size_t>(scalars[2]);
  l->num_triples = static_cast<size_t>(scalars[3]);
  if (scalars[4] > kMaxDsField || scalars[6] > kMaxDsField ||
      scalars[7] > kMaxDsField || scalars[8] > kMaxDsField) {
    return Corrupt("implausible dataset section field size");
  }
  l->arena_bytes = static_cast<size_t>(scalars[4]);
  l->chunk_bytes = static_cast<size_t>(scalars[5]);
  if (l->chunk_bytes < 64 || l->chunk_bytes > (size_t{1} << 30) ||
      (l->chunk_bytes & (l->chunk_bytes - 1)) != 0) {
    return Corrupt("bad arena chunk size");
  }
  if (l->arena_bytes % l->chunk_bytes != 0) {
    return Corrupt("arena image not a multiple of its chunk size");
  }
  l->p_pool = static_cast<size_t>(scalars[6]);
  l->ds_pool = static_cast<size_t>(scalars[7]);
  l->dt_pool = static_cast<size_t>(scalars[8]);
  l->words = (l->num_triples + 63) / 64;
  l->domain_words = (l->num_domains + 63) / 64;

  size_t off = PadTo64(section_offset);
  l->pad0 = off;
  Status overflow = Status::OK();
  auto place = [&](size_t* field, size_t count, size_t elem) {
    *field = off;
    const size_t bytes = count * elem;
    if (count > kMaxDsField || off > kMaxDsField) {
      overflow = Corrupt("implausible dataset section field size");
      return;
    }
    off += bytes;
  };
  size_t ignored = 0;
  place(&l->scalars_off, kDsScalars, 8);
  place(&l->source_refs_off, l->num_sources, 8);
  place(&l->domain_refs_off, l->num_domains, 8);
  place(&l->meta_checksum_off, 1, 8);
  place(&ignored, PadTo64(section_offset + off), 1);  // pad1
  place(&l->arena_off, l->arena_bytes, 1);
  place(&l->subjects_off, l->num_triples, 8);
  place(&l->predicates_off, l->num_triples, 8);
  place(&l->objects_off, l->num_triples, 8);
  place(&l->p_offsets_off, l->num_triples, 8);
  place(&l->ds_offsets_off, l->num_domains, 8);
  place(&l->dt_offsets_off, l->num_domains, 8);
  place(&l->outputs_off, l->num_sources * l->words, 8);
  place(&l->covers_off, l->num_sources * l->domain_words, 8);
  place(&l->true_off, l->words, 8);
  place(&l->labeled_off, l->words, 8);
  place(&l->domains_off, l->num_triples, 4);
  place(&l->p_counts_off, l->num_triples, 4);
  place(&l->p_pool_off, l->p_pool, 4);
  place(&l->ds_counts_off, l->num_domains, 4);
  place(&l->ds_pool_off, l->ds_pool, 4);
  place(&l->dt_counts_off, l->num_domains, 4);
  place(&l->dt_pool_off, l->dt_pool, 4);
  place(&l->labels_off, l->num_triples, 1);
  FUSER_RETURN_IF_ERROR(overflow);
  l->total = off;
  return Status::OK();
}

/// Parses a v2 DATASET payload into column pointers. Verifies the size
/// equation and the meta checksum; the caller decides how much more to
/// verify (full section checksum, structural validation, fingerprint)
/// according to the attach mode.
Status ParseDatasetColumns(const char* payload, size_t size,
                           uint64_t section_offset, DatasetColumns* cols) {
  const size_t pad0 = PadTo64(section_offset);
  if (size < pad0 + kDsScalars * 8) {
    return Corrupt("dataset section too small");
  }
  uint64_t scalars[kDsScalars];
  std::memcpy(scalars, payload + pad0, sizeof(scalars));
  DsLayout l;
  FUSER_RETURN_IF_ERROR(ComputeDsLayout(section_offset, scalars, &l));
  if (l.total != size) {
    return Corrupt("dataset section size disagrees with its header");
  }
  uint64_t stored_meta = 0;
  std::memcpy(&stored_meta, payload + l.meta_checksum_off, 8);
  if (Checksum64(payload, l.meta_checksum_off) != stored_meta) {
    return Corrupt("dataset meta checksum mismatch");
  }

  cols->version = l.version;
  cols->num_sources = l.num_sources;
  cols->num_domains = l.num_domains;
  cols->num_triples = l.num_triples;
  cols->arena_image = payload + l.arena_off;
  cols->arena_image_bytes = l.arena_bytes;
  cols->arena_chunk_bytes = l.chunk_bytes;
  auto refs = [&](size_t off) {
    return reinterpret_cast<const StringRef*>(payload + off);
  };
  auto u64s = [&](size_t off) {
    return reinterpret_cast<const uint64_t*>(payload + off);
  };
  auto u32s = [&](size_t off) {
    return reinterpret_cast<const uint32_t*>(payload + off);
  };
  cols->source_names = refs(l.source_refs_off);
  cols->domain_names = refs(l.domain_refs_off);
  cols->subjects = refs(l.subjects_off);
  cols->predicates = refs(l.predicates_off);
  cols->objects = refs(l.objects_off);
  cols->domains = u32s(l.domains_off);
  cols->labels = reinterpret_cast<const uint8_t*>(payload + l.labels_off);
  cols->output_words = u64s(l.outputs_off);
  cols->provider_offsets = u64s(l.p_offsets_off);
  cols->provider_counts = u32s(l.p_counts_off);
  cols->provider_pool = u32s(l.p_pool_off);
  cols->provider_pool_len = l.p_pool;
  cols->domain_source_offsets = u64s(l.ds_offsets_off);
  cols->domain_source_counts = u32s(l.ds_counts_off);
  cols->domain_source_pool = u32s(l.ds_pool_off);
  cols->domain_source_pool_len = l.ds_pool;
  cols->domain_triple_offsets = u64s(l.dt_offsets_off);
  cols->domain_triple_counts = u32s(l.dt_counts_off);
  cols->domain_triple_pool = u32s(l.dt_pool_off);
  cols->domain_triple_pool_len = l.dt_pool;
  cols->covers_words = u64s(l.covers_off);
  cols->true_words = u64s(l.true_off);
  cols->labeled_words = u64s(l.labeled_off);
  return Status::OK();
}

/// Structural validation of parsed columns: every ref inside the arena,
/// every id in range, every CSR row inside its pool. O(num_triples +
/// pools) — run by kCopy and kMmapVerify so that even a file with valid
/// checksums (crafted, not corrupted) fails with a Status instead of
/// tripping a bounds CHECK later.
Status ValidateDatasetColumns(const DatasetColumns& c) {
  auto ref_ok = [&](StringRef r) {
    return r.offset() + r.length() <= c.arena_image_bytes;
  };
  for (size_t s = 0; s < c.num_sources; ++s) {
    if (!ref_ok(c.source_names[s])) return Corrupt("source name ref OOB");
  }
  for (size_t d = 0; d < c.num_domains; ++d) {
    if (!ref_ok(c.domain_names[d])) return Corrupt("domain name ref OOB");
  }
  for (size_t t = 0; t < c.num_triples; ++t) {
    if (!ref_ok(c.subjects[t]) || !ref_ok(c.predicates[t]) ||
        !ref_ok(c.objects[t])) {
      return Corrupt("triple field ref OOB");
    }
    if (c.domains[t] >= c.num_domains) {
      return Corrupt("triple domain id out of range");
    }
    if (c.labels[t] > 2) return Corrupt("label out of range");
  }
  auto csr_ok = [](const uint64_t* offs, const uint32_t* cnts, size_t rows,
                   size_t pool_len, const uint32_t* pool, size_t id_bound) {
    for (size_t r = 0; r < rows; ++r) {
      if (offs[r] > pool_len || cnts[r] > pool_len - offs[r]) return false;
      for (size_t i = 0; i < cnts[r]; ++i) {
        if (pool[offs[r] + i] >= id_bound) return false;
      }
    }
    return true;
  };
  if (!csr_ok(c.provider_offsets, c.provider_counts, c.num_triples,
              c.provider_pool_len, c.provider_pool, c.num_sources)) {
    return Corrupt("provider table out of bounds");
  }
  if (!csr_ok(c.domain_source_offsets, c.domain_source_counts, c.num_domains,
              c.domain_source_pool_len, c.domain_source_pool,
              c.num_sources)) {
    return Corrupt("domain source table out of bounds");
  }
  if (!csr_ok(c.domain_triple_offsets, c.domain_triple_counts, c.num_domains,
              c.domain_triple_pool_len, c.domain_triple_pool,
              c.num_triples)) {
    return Corrupt("domain triple table out of bounds");
  }
  return Status::OK();
}

/// A CSR table's arrays in serializable (compact, row-ordered) form.
/// Zero-garbage tables are referenced in place; a table with relocation
/// garbage gets its offsets/pool rebuilt here.
struct CompactCsrView {
  std::vector<uint64_t> offsets_storage;
  std::vector<uint32_t> pool_storage;
  const uint64_t* offsets = nullptr;
  const uint32_t* counts = nullptr;
  const uint32_t* pool = nullptr;
  size_t pool_len = 0;
};

CompactCsrView MakeCompactView(const CsrTable<uint32_t>& table) {
  CompactCsrView v;
  v.counts = table.counts_data();
  if (table.garbage() == 0) {
    v.offsets = table.offsets_data();
    v.pool = table.pool_data();
    v.pool_len = table.pool_size();
    return v;
  }
  const size_t rows = table.num_rows();
  v.offsets_storage.resize(rows);
  v.pool_storage.reserve(table.live_size());
  for (size_t r = 0; r < rows; ++r) {
    v.offsets_storage[r] = v.pool_storage.size();
    const Span<uint32_t> row = table.row(r);
    v.pool_storage.insert(v.pool_storage.end(), row.begin(), row.end());
  }
  v.offsets = v.offsets_storage.data();
  v.pool = v.pool_storage.data();
  v.pool_len = v.pool_storage.size();
  return v;
}

// ---------------------------------------------------------------------------
// MODEL section: source quality, the cluster partition and each cluster's
// pattern counts.
// ---------------------------------------------------------------------------

StatusOr<std::string> EncodeModelSection(const CorrelationModel& model) {
  ByteSink sink;
  FieldWriter write(&sink);
  write(model.source_quality);
  write(model.clustering.clusters);
  for (size_t c = 0; c < model.cluster_stats.size(); ++c) {
    const auto* stats =
        dynamic_cast<const EmpiricalJointStats*>(model.cluster_stats[c].get());
    if (stats == nullptr) {
      return Status::Unimplemented(
          "only empirical correlation models can be persisted (cluster " +
          std::to_string(c) + " has caller-supplied statistics)");
    }
    write(stats->ExportState());
  }
  return sink.data();
}

StatusOr<std::shared_ptr<const CorrelationModel>> DecodeModelSection(
    ByteSource src, const EngineSection& engine) {
  // Alpha, smoothing and scopes are the ENGINE section's, exactly as
  // BuildCorrelationModel takes them from the engine's ModelOptions.
  const ModelOptions& options = engine.options.model;
  auto model = std::make_shared<CorrelationModel>();
  model->alpha = options.alpha;
  model->use_scopes = options.use_scopes;
  FUSER_RETURN_IF_ERROR(DecodeFields(&src, &model->source_quality));
  if (model->source_quality.size() != engine.num_sources) {
    return Corrupt("model quality vector size mismatch");
  }

  std::vector<std::vector<SourceId>> clusters;
  FUSER_RETURN_IF_ERROR(DecodeFields(&src, &clusters));
  for (const std::vector<SourceId>& cluster : clusters) {
    for (SourceId s : cluster) {
      if (s >= engine.num_sources) {
        return Corrupt("cluster member out of range");
      }
    }
  }
  // ClusteringFromPartition validates the partition (every source exactly
  // once) and re-derives cluster_of / index_in_cluster.
  StatusOr<SourceClustering> clustering = ClusteringFromPartition(
      static_cast<size_t>(engine.num_sources), std::move(clusters));
  if (!clustering.ok()) {
    return Corrupt("bad cluster partition: " + clustering.status().message());
  }
  model->clustering = std::move(clustering).value();

  model->cluster_stats.reserve(model->clustering.clusters.size());
  for (const std::vector<SourceId>& cluster : model->clustering.clusters) {
    EmpiricalJointStatsState state;
    FUSER_RETURN_IF_ERROR(DecodeFields(&src, &state));
    if (state.k != static_cast<int>(cluster.size())) {
      return Corrupt("cluster stats width disagrees with cluster size");
    }
    state.options = options;
    StatusOr<std::unique_ptr<EmpiricalJointStats>> stats =
        EmpiricalJointStats::FromState(state);
    if (!stats.ok()) {
      return Corrupt(stats.status().message());
    }
    model->cluster_stats.push_back(std::move(stats).value());
  }
  FUSER_RETURN_IF_ERROR(ExpectExhausted(src, "model"));
  return std::shared_ptr<const CorrelationModel>(std::move(model));
}

// ---------------------------------------------------------------------------
// GROUPING section.
// ---------------------------------------------------------------------------

std::string EncodeGroupingSection(const PatternGrouping& grouping) {
  ByteSink sink;
  FieldWriter write(&sink);
  sink.WriteU64(grouping.num_triples);
  sink.WriteU64(grouping.num_clusters());
  for (size_t c = 0; c < grouping.num_clusters(); ++c) {
    write(grouping.distinct[c]);
    const PatternColumn& column = grouping.columns[c];
    if (column.singleton) {
      sink.WriteBitset(column.provided);
      sink.WriteBitset(column.in_scope);
    } else {
      for (uint32_t id : column.ids) sink.WriteU32(id);
    }
  }
  return sink.data();
}

/// Reads a one-source cluster's bit column and derives its code -> id
/// table from `distinct` (already validated, so every key has a code).
Status DecodeSingletonColumn(ByteSource* src, size_t num_triples,
                             bool use_scopes,
                             const std::vector<PatternKey>& distinct,
                             PatternColumn* column) {
  column->singleton = true;
  for (size_t i = 0; i < distinct.size(); ++i) {
    column->id_of_code[PatternColumn::CodeOf(distinct[i])] =
        static_cast<uint32_t>(i);
  }
  FUSER_RETURN_IF_ERROR(src->ReadBitset(&column->provided));
  FUSER_RETURN_IF_ERROR(src->ReadBitset(&column->in_scope));
  if (column->provided.size() != num_triples ||
      column->in_scope.size() != (use_scopes ? num_triples : 0)) {
    return Corrupt("singleton column size disagrees with triple count");
  }
  // No key has code 1 (provided, out of scope), so this also refuses a
  // provided bit without its in-scope bit.
  const std::array<size_t, 4> first =
      column->FirstTripleOfEachCode(num_triples);
  for (unsigned code = 0; code < 4; ++code) {
    if (first[code] != num_triples &&
        column->id_of_code[code] == PatternColumn::kNoPattern) {
      return Corrupt("singleton column code without a pattern");
    }
  }
  return Status::OK();
}

StatusOr<std::shared_ptr<const PatternGrouping>> DecodeGroupingSection(
    ByteSource src, const Dataset& dataset, const CorrelationModel& model) {
  auto grouping = std::make_shared<PatternGrouping>();
  uint64_t num_triples = 0;
  FUSER_RETURN_IF_ERROR(src.ReadU64(&num_triples));
  if (num_triples != dataset.num_triples()) {
    return Corrupt("grouping triple count disagrees with dataset");
  }
  grouping->num_triples = static_cast<size_t>(num_triples);
  grouping->dataset = &dataset;
  grouping->model_fingerprint = ModelGroupingFingerprint(model);

  size_t num_clusters = 0;
  FUSER_RETURN_IF_ERROR(src.ReadCount(8, &num_clusters));
  if (num_clusters != model.clustering.clusters.size()) {
    return Corrupt("grouping cluster count disagrees with model");
  }
  grouping->distinct.resize(num_clusters);
  grouping->columns.resize(num_clusters);
  grouping->index.resize(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    const size_t k = model.clustering.clusters[c].size();
    const Mask full = FullMask(static_cast<int>(k));
    FUSER_RETURN_IF_ERROR(DecodeFields(&src, &grouping->distinct[c]));
    const size_t num_distinct = grouping->distinct[c].size();
    grouping->index[c].reserve(num_distinct);
    for (size_t i = 0; i < num_distinct; ++i) {
      const PatternKey& key = grouping->distinct[c][i];
      // Scorers index joint statistics by these masks, so a key must be a
      // pattern some triple of this cluster could have.
      const Mask observed = key.providers | key.nonproviders;
      if ((observed & ~full) != 0) {
        return Corrupt("pattern key outside its cluster");
      }
      if ((key.providers & key.nonproviders) != 0) {
        return Corrupt("pattern key both provides and stays silent");
      }
      if (!model.use_scopes && observed != full) {
        return Corrupt("pattern key leaves sources out of scope without "
                       "scopes");
      }
      if (!grouping->index[c].emplace(key, i).second) {
        return Corrupt("duplicate distinct pattern");
      }
    }
    PatternColumn& column = grouping->columns[c];
    if (k == 1) {
      FUSER_RETURN_IF_ERROR(DecodeSingletonColumn(
          &src, grouping->num_triples, model.use_scopes,
          grouping->distinct[c], &column));
      continue;
    }
    std::vector<uint32_t>& ids = column.ids;
    ids.resize(grouping->num_triples);
    FUSER_RETURN_IF_ERROR(src.ReadU32Array(ids.data(), ids.size()));
    for (uint32_t id : ids) {
      if (id >= num_distinct) {
        return Corrupt("pattern id out of range");
      }
    }
  }
  FUSER_RETURN_IF_ERROR(ExpectExhausted(src, "grouping"));
  return std::shared_ptr<const PatternGrouping>(std::move(grouping));
}

// ---------------------------------------------------------------------------
// SERVING section.
// ---------------------------------------------------------------------------

std::string EncodeServingSection(const FusionSnapshot& snapshot) {
  // Deterministic file bytes: entries sorted by name (the map key).
  std::vector<std::pair<std::string, const MethodServing*>> entries;
  entries.reserve(snapshot.serving.size());
  for (const auto& [name, serving] : snapshot.serving) {
    entries.emplace_back(name, serving.get());
  }
  std::sort(entries.begin(), entries.end());

  // Each entry is its spec plus the scores; the decoder derives the name
  // and the representation from the spec and the method table.
  ByteSink sink;
  FieldWriter write(&sink);
  sink.WriteU64(entries.size());
  for (const auto& [name, serving] : entries) {
    write(serving->spec);
    if (serving->pattern_based) {
      const PatternPosteriorTable& table = serving->table;
      sink.WriteDouble(table.alpha);
      sink.WriteU64(table.logs.size());
      for (const PatternPosteriorTable::ClusterLogs& logs : table.logs) {
        sink.WriteU64(logs.flags.size());
        for (double v : logs.log_true) sink.WriteDouble(v);
        for (double v : logs.log_false) sink.WriteDouble(v);
        for (unsigned char f : logs.flags) sink.WriteU8(f);
      }
      write(table.posterior);
    } else {
      write(serving->dense);
    }
  }
  return sink.data();
}

using ServingMap =
    std::unordered_map<std::string, std::shared_ptr<const MethodServing>>;

/// Decodes the serving entries against the already-decoded shared state.
/// Pattern-based entries get their ad-hoc scorer rebuilt through
/// MakeScoringPlan — the plan captures only the model (shared
/// with the snapshot) and per-cluster strategy decisions, so rebuilding it
/// is cheap and reproduces the original closures exactly.
Status DecodeServingSection(ByteSource src, const MethodContext& context,
                            ServingMap* out) {
  size_t count = 0;
  FUSER_RETURN_IF_ERROR(src.ReadCount(8, &count));
  for (size_t i = 0; i < count; ++i) {
    auto serving = std::make_shared<MethodServing>();
    FUSER_RETURN_IF_ERROR(DecodeFields(&src, &serving->spec));
    Status valid = ValidateMethodSpec(serving->spec);
    if (!valid.ok()) {
      return Corrupt("serving entry spec: " + valid.message());
    }
    const std::string name = serving->spec.Name();
    serving->pattern_based = FindMethod(serving->spec.kind)->pattern_based;
    if (serving->pattern_based) {
      if (context.grouping == nullptr) {
        return Corrupt("pattern-based serving entry without a grouping");
      }
      PatternPosteriorTable& table = serving->table;
      FUSER_RETURN_IF_ERROR(src.ReadDouble(&table.alpha));
      size_t num_clusters = 0;
      FUSER_RETURN_IF_ERROR(src.ReadCount(8, &num_clusters));
      if (num_clusters != context.grouping->num_clusters()) {
        return Corrupt("posterior table cluster count mismatch");
      }
      table.logs.resize(num_clusters);
      for (size_t c = 0; c < num_clusters; ++c) {
        PatternPosteriorTable::ClusterLogs& logs = table.logs[c];
        size_t n = 0;
        FUSER_RETURN_IF_ERROR(src.ReadCount(8 + 8 + 1, &n));
        if (n != context.grouping->distinct[c].size()) {
          return Corrupt("posterior table size disagrees with grouping");
        }
        logs.log_true.resize(n);
        logs.log_false.resize(n);
        logs.flags.resize(n);
        FUSER_RETURN_IF_ERROR(
            src.ReadDoubleArray(logs.log_true.data(), n));
        FUSER_RETURN_IF_ERROR(
            src.ReadDoubleArray(logs.log_false.data(), n));
        for (unsigned char& f : logs.flags) {
          uint8_t raw = 0;
          FUSER_RETURN_IF_ERROR(src.ReadU8(&raw));
          if (raw > 3) return Corrupt("posterior table flag out of range");
          f = raw;
        }
      }
      FUSER_RETURN_IF_ERROR(DecodeFields(&src, &table.posterior));
      // BuildPatternPosteriorTable populates `posterior` exactly when the
      // grouping has one cluster; hold restored tables to the same
      // invariant so the combine paths take the same branches.
      const size_t expected =
          num_clusters == 1 ? context.grouping->distinct[0].size() : 0;
      if (table.posterior.size() != expected) {
        return Corrupt("posterior vector size mismatch");
      }
      StatusOr<PatternScoringPlan> plan =
          MakeScoringPlan(context, serving->spec);
      if (!plan.ok()) {
        return Status(plan.status().code(),
                      name + ": " + plan.status().message());
      }
      serving->adhoc_scorer = std::move(plan->scorer);
    } else {
      FUSER_RETURN_IF_ERROR(DecodeFields(&src, &serving->dense));
      if (serving->dense.size() != context.dataset->num_triples()) {
        return Corrupt("dense score vector size mismatch");
      }
    }
    if (!out->emplace(name, std::move(serving)).second) {
      return Corrupt("duplicate serving entry");
    }
  }
  return ExpectExhausted(src, "serving");
}

// ---------------------------------------------------------------------------
// File assembly and parsing.
// ---------------------------------------------------------------------------

/// Incremental Checksum64: reproduces the whole-buffer hash for any split
/// of the input into Update calls. Checksum64 (HashBytes64) consumes the
/// buffer in 8-byte chunks with a byte-wise tail, and the chunk boundaries
/// are positions relative to the buffer start — so the streaming version
/// carries a partial chunk between calls instead of naively re-seeding.
class ChainedHasher {
 public:
  void Reset() {
    h_ = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
    pending_len_ = 0;
  }

  void Update(const void* data, size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    if (pending_len_ > 0) {
      while (size > 0 && pending_len_ < 8) {
        pending_[pending_len_++] = *p++;
        --size;
      }
      if (pending_len_ < 8) return;
      Mix(pending_);
      pending_len_ = 0;
    }
    for (; size >= 8; p += 8, size -= 8) Mix(p);
    for (size_t i = 0; i < size; ++i) pending_[pending_len_++] = p[i];
  }

  uint64_t Finish() const {
    uint64_t h = h_;
    for (size_t i = 0; i < pending_len_; ++i) {
      h ^= pending_[i];
      h *= 0x100000001B3ULL;
    }
    return h;
  }

 private:
  void Mix(const unsigned char* p) {
    uint64_t chunk = 0;
    std::memcpy(&chunk, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    chunk = __builtin_bswap64(chunk);
#endif
    h_ ^= chunk;
    h_ *= 0x100000001B3ULL;
  }

  uint64_t h_ = 0;
  unsigned char pending_[8];
  size_t pending_len_ = 0;
};

/// Streams bytes to a stdio file while maintaining the current section's
/// running checksum and byte count.
class FileSectionWriter {
 public:
  explicit FileSectionWriter(std::FILE* f) : file_(f) {}

  void BeginSection() {
    hasher_.Reset();
    section_bytes_ = 0;
  }

  Status Write(const void* data, size_t size) {
    if (size == 0) return Status::OK();
    if (std::fwrite(data, 1, size, file_) != size) {
      return Status::IoError("short write to snapshot file");
    }
    hasher_.Update(data, size);
    section_bytes_ += size;
    return Status::OK();
  }

  Status WriteZeros(size_t size) {
    static const char zeros[512] = {0};
    while (size > 0) {
      const size_t n = std::min(size, sizeof(zeros));
      FUSER_RETURN_IF_ERROR(Write(zeros, n));
      size -= n;
    }
    return Status::OK();
  }

  uint64_t section_checksum() const { return hasher_.Finish(); }
  uint64_t section_bytes() const { return section_bytes_; }

 private:
  std::FILE* file_;
  ChainedHasher hasher_;
  uint64_t section_bytes_ = 0;
};

/// Streams the v2 DATASET payload (layout `l`, which the caller computed
/// from this dataset's scalars at the section's final file offset).
Status WriteDatasetSection(const Dataset& dataset, const DsLayout& l,
                           const uint64_t scalars[kDsScalars],
                           const CompactCsrView& providers,
                           const CompactCsrView& domain_sources,
                           const CompactCsrView& domain_triples,
                           FileSectionWriter* w) {
  FUSER_RETURN_IF_ERROR(w->WriteZeros(l.pad0));
  FUSER_RETURN_IF_ERROR(w->Write(scalars, kDsScalars * 8));
  const Span<StringRef> source_refs = dataset.source_name_refs();
  const Span<StringRef> domain_refs = dataset.domain_name_refs();
  FUSER_RETURN_IF_ERROR(w->Write(source_refs.data(), source_refs.size() * 8));
  FUSER_RETURN_IF_ERROR(w->Write(domain_refs.data(), domain_refs.size() * 8));
  // Meta checksum: everything written so far (pad0 + scalars + refs).
  uint64_t meta;
  {
    const std::string zeros(l.pad0, '\0');
    ChainedHasher hasher;
    hasher.Reset();
    hasher.Update(zeros.data(), zeros.size());
    hasher.Update(scalars, kDsScalars * 8);
    hasher.Update(source_refs.data(), source_refs.size() * 8);
    hasher.Update(domain_refs.data(), domain_refs.size() * 8);
    meta = hasher.Finish();
  }
  FUSER_RETURN_IF_ERROR(w->Write(&meta, 8));
  FUSER_RETURN_IF_ERROR(
      w->WriteZeros(l.arena_off - (l.meta_checksum_off + 8)));  // pad1

  Status arena_status = Status::OK();
  dataset.string_arena().ForEachImageChunk([&](const char* p, size_t n) {
    if (arena_status.ok()) arena_status = w->Write(p, n);
  });
  FUSER_RETURN_IF_ERROR(arena_status);

  const TripleDictionary& dict = dataset.triple_dict();
  const size_t m = l.num_triples;
  FUSER_RETURN_IF_ERROR(w->Write(dict.subjects().data(), m * 8));
  FUSER_RETURN_IF_ERROR(w->Write(dict.predicates().data(), m * 8));
  FUSER_RETURN_IF_ERROR(w->Write(dict.objects().data(), m * 8));
  FUSER_RETURN_IF_ERROR(w->Write(providers.offsets, m * 8));
  FUSER_RETURN_IF_ERROR(
      w->Write(domain_sources.offsets, l.num_domains * 8));
  FUSER_RETURN_IF_ERROR(
      w->Write(domain_triples.offsets, l.num_domains * 8));
  for (size_t s = 0; s < l.num_sources; ++s) {
    FUSER_RETURN_IF_ERROR(
        w->Write(dataset.output(static_cast<SourceId>(s)).words(),
                 l.words * 8));
  }
  for (size_t s = 0; s < l.num_sources; ++s) {
    FUSER_RETURN_IF_ERROR(
        w->Write(dataset.covers_bitset(static_cast<SourceId>(s)).words(),
                 l.domain_words * 8));
  }
  FUSER_RETURN_IF_ERROR(w->Write(dataset.true_mask().words(), l.words * 8));
  FUSER_RETURN_IF_ERROR(
      w->Write(dataset.labeled_mask().words(), l.words * 8));

  FUSER_RETURN_IF_ERROR(w->Write(dataset.domains_span().data(), m * 4));
  FUSER_RETURN_IF_ERROR(w->Write(providers.counts, m * 4));
  FUSER_RETURN_IF_ERROR(w->Write(providers.pool, providers.pool_len * 4));
  FUSER_RETURN_IF_ERROR(
      w->Write(domain_sources.counts, l.num_domains * 4));
  FUSER_RETURN_IF_ERROR(
      w->Write(domain_sources.pool, domain_sources.pool_len * 4));
  FUSER_RETURN_IF_ERROR(
      w->Write(domain_triples.counts, l.num_domains * 4));
  FUSER_RETURN_IF_ERROR(
      w->Write(domain_triples.pool, domain_triples.pool_len * 4));
  FUSER_RETURN_IF_ERROR(w->Write(dataset.labels_span().data(), m));
  return Status::OK();
}

/// Extends `bytes` with file content up to byte `target` (sequential reads
/// on one stream; `bytes` always holds the file prefix [0, bytes->size())).
Status ExtendPrefix(std::ifstream& in, std::string* bytes, size_t target) {
  if (target <= bytes->size()) return Status::OK();
  const size_t old_size = bytes->size();
  bytes->resize(target);
  in.read(&(*bytes)[old_size],
          static_cast<std::streamsize>(target - old_size));
  if (!in) {
    return Status::IoError("snapshot read failed");
  }
  return Status::OK();
}

struct SectionSpan {
  size_t offset = 0;
  size_t size = 0;
  uint64_t checksum = 0;
};

/// Parses and validates the header and section table (`bytes` must cover
/// them; section bounds are validated against `file_size`). Section
/// payload checksums are *not* verified here — OpenSection checks each
/// section right before it is parsed, so attach-mode loads never pay for
/// reading or hashing the (large) dataset section they skip.
Status ParseHeader(std::string_view bytes, size_t file_size,
                   std::map<uint32_t, SectionSpan>* sections) {
  if (bytes.size() < kHeaderFixedBytes + 8) {
    return Corrupt("file truncated (no header)");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic (not a fuser snapshot)");
  }
  ByteSource header(bytes.data() + sizeof(kMagic),
                    bytes.size() - sizeof(kMagic));
  uint32_t format_version = 0;
  uint32_t section_count = 0;
  FUSER_RETURN_IF_ERROR(header.ReadU32(&format_version));
  FUSER_RETURN_IF_ERROR(header.ReadU32(&section_count));
  if (format_version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot format version " +
        std::to_string(format_version) + " (this build reads version " +
        std::to_string(kSnapshotFormatVersion) + ")");
  }
  if (section_count > kMaxSections) {
    return Corrupt("implausible section count");
  }
  const size_t table_end =
      kHeaderFixedBytes + kSectionEntryBytes * section_count;
  if (bytes.size() < table_end + 8 || file_size < table_end + 8) {
    return Corrupt("file truncated (section table)");
  }
  ByteSource tail(bytes.data() + table_end, 8);
  uint64_t stored_header_checksum = 0;
  FUSER_RETURN_IF_ERROR(tail.ReadU64(&stored_header_checksum));
  if (Checksum64(bytes.data(), table_end) != stored_header_checksum) {
    return Corrupt("header checksum mismatch");
  }
  for (uint32_t i = 0; i < section_count; ++i) {
    uint32_t id = 0, reserved = 0;
    uint64_t offset = 0, size = 0, checksum = 0;
    FUSER_RETURN_IF_ERROR(header.ReadU32(&id));
    FUSER_RETURN_IF_ERROR(header.ReadU32(&reserved));
    FUSER_RETURN_IF_ERROR(header.ReadU64(&offset));
    FUSER_RETURN_IF_ERROR(header.ReadU64(&size));
    FUSER_RETURN_IF_ERROR(header.ReadU64(&checksum));
    if (offset < table_end + 8 || offset > file_size ||
        size > file_size - offset) {
      return Corrupt("section outside file bounds");
    }
    SectionSpan span{static_cast<size_t>(offset), static_cast<size_t>(size),
                     checksum};
    if (!sections->emplace(id, span).second) {
      return Corrupt("duplicate section id");
    }
  }
  return Status::OK();
}

/// Returns a checksum-verified ByteSource over one section, or NotFound
/// when the file has no such section.
StatusOr<ByteSource> OpenSection(std::string_view bytes,
                                 const std::map<uint32_t, SectionSpan>& table,
                                 uint32_t id) {
  auto it = table.find(id);
  if (it == table.end()) {
    return Status::NotFound("snapshot has no section " + std::to_string(id));
  }
  const SectionSpan& span = it->second;
  if (span.offset > bytes.size() || span.size > bytes.size() - span.offset) {
    return Status::Internal("section " + std::to_string(id) + " not loaded");
  }
  if (Checksum64(bytes.data() + span.offset, span.size) != span.checksum) {
    return Corrupt("checksum mismatch in section " + std::to_string(id));
  }
  return ByteSource(bytes.data() + span.offset, span.size);
}

StatusOr<LoadedSnapshot> LoadImpl(const std::string& path,
                                  const Dataset* attach, AttachMode mode) {
  // What we have of the file: a growing prefix (buffered modes) or the
  // whole mapped file (mmap modes).
  std::string buffer;
  std::shared_ptr<MappedFile> mapped;
  std::string_view bytes;
  size_t file_size = 0;

  const bool use_mapping = attach == nullptr && mode != AttachMode::kCopy;
  std::ifstream in;
  if (use_mapping) {
    FUSER_ASSIGN_OR_RETURN(mapped, MappedFile::Open(path));
    bytes = std::string_view(mapped->data(), mapped->size());
    file_size = mapped->size();
  } else {
    in.open(path, std::ios::binary | std::ios::ate);
    if (!in) {
      return Status::IoError("cannot open snapshot file: " + path);
    }
    const std::streamoff stat_size = in.tellg();
    if (stat_size < 0) {
      return Status::IoError("cannot stat snapshot file: " + path);
    }
    file_size = static_cast<size_t>(stat_size);
    in.seekg(0);
    // Read the header and section table first; then read only as far into
    // the file as the sections this load will actually parse. The DATASET
    // section is written last precisely so an attach-mode load (WarmStart
    // over a dataset the process already holds) stops short of it.
    FUSER_RETURN_IF_ERROR(ExtendPrefix(
        in, &buffer, std::min(file_size, kHeaderFixedBytes + 8)));
    size_t table_end = kHeaderFixedBytes + 8;
    if (buffer.size() >= kHeaderFixedBytes) {
      ByteSource counter(buffer.data() + 12, 4);
      uint32_t section_count = 0;
      (void)counter.ReadU32(&section_count);
      if (section_count <= kMaxSections) {
        table_end = kHeaderFixedBytes + kSectionEntryBytes * section_count + 8;
      }
    }
    FUSER_RETURN_IF_ERROR(
        ExtendPrefix(in, &buffer, std::min(file_size, table_end)));
    bytes = buffer;
  }

  std::map<uint32_t, SectionSpan> table;
  FUSER_RETURN_IF_ERROR(ParseHeader(bytes, file_size, &table));
  if (!use_mapping) {
    size_t needed_end = buffer.size();
    for (const auto& [id, span] : table) {
      if (attach != nullptr && id == kSectionDataset) continue;
      needed_end = std::max(needed_end, span.offset + span.size);
    }
    FUSER_RETURN_IF_ERROR(ExtendPrefix(in, &buffer, needed_end));
    bytes = buffer;
  }

  FUSER_ASSIGN_OR_RETURN(ByteSource engine_src,
                         OpenSection(bytes, table, kSectionEngine));
  EngineSection engine;
  FUSER_RETURN_IF_ERROR(DecodeEngineSection(engine_src, &engine));

  LoadedSnapshot loaded;
  const Dataset* dataset = attach;
  if (attach != nullptr) {
    if (attach->num_triples() != engine.num_triples ||
        attach->num_sources() != engine.num_sources ||
        attach->num_domains() != engine.num_domains) {
      return Status::InvalidArgument(
          "snapshot was saved against a different dataset "
          "(source/triple/domain counts disagree)");
    }
    if (attach->version() != engine.dataset_version) {
      return Status::InvalidArgument(
          "snapshot dataset_version " +
          std::to_string(engine.dataset_version) +
          " does not match the dataset's version " +
          std::to_string(attach->version()) +
          " (the dataset changed since the snapshot was saved)");
    }
    // The version counter is per-object (every freshly finalized dataset
    // starts at 1), so also fingerprint the contents: same-sized data
    // reloaded from edited TSVs must not warm-start against stale state.
    if (attach->ContentFingerprint() != engine.dataset_fingerprint) {
      return Status::InvalidArgument(
          "snapshot was saved against different dataset contents "
          "(content fingerprint mismatch)");
    }
  } else {
    auto it = table.find(kSectionDataset);
    if (it == table.end()) {
      return Status::NotFound("snapshot has no section " +
                              std::to_string(kSectionDataset));
    }
    const SectionSpan& span = it->second;
    // kCopy and kMmapVerify hash the whole section; kMmap trusts the meta
    // checksum inside the payload (that is the point of the mode).
    if (mode != AttachMode::kMmap &&
        Checksum64(bytes.data() + span.offset, span.size) != span.checksum) {
      return Corrupt("checksum mismatch in section " +
                     std::to_string(kSectionDataset));
    }
    DatasetColumns cols;
    FUSER_RETURN_IF_ERROR(ParseDatasetColumns(
        bytes.data() + span.offset, span.size, span.offset, &cols));
    if (cols.version != engine.dataset_version ||
        cols.num_triples != engine.num_triples ||
        cols.num_sources != engine.num_sources ||
        cols.num_domains != engine.num_domains) {
      return Corrupt("dataset section disagrees with engine state");
    }
    if (mode != AttachMode::kMmap) {
      FUSER_RETURN_IF_ERROR(ValidateDatasetColumns(cols));
    }
    loaded.dataset = Dataset::FromColumns(cols, /*borrow=*/use_mapping,
                                          /*keepalive=*/mapped);
    if (mode != AttachMode::kMmap &&
        loaded.dataset->ContentFingerprint() != engine.dataset_fingerprint) {
      return Corrupt("re-materialized dataset fingerprint mismatch");
    }
    dataset = loaded.dataset.get();
  }

  auto snapshot = std::make_shared<FusionSnapshot>();
  snapshot->id = 1;
  snapshot->dataset_version = engine.dataset_version;
  snapshot->num_triples = static_cast<size_t>(engine.num_triples);
  snapshot->num_sources = static_cast<size_t>(engine.num_sources);
  snapshot->options = engine.options;
  snapshot->quality = std::move(engine.quality);
  loaded.train_mask = std::move(engine.train_mask);

  StatusOr<ByteSource> model_src = OpenSection(bytes, table, kSectionModel);
  if (model_src.ok()) {
    FUSER_ASSIGN_OR_RETURN(snapshot->model,
                           DecodeModelSection(*model_src, engine));
  } else if (model_src.status().code() != StatusCode::kNotFound) {
    return model_src.status();
  }

  StatusOr<ByteSource> grouping_src =
      OpenSection(bytes, table, kSectionGrouping);
  if (grouping_src.ok()) {
    if (snapshot->model == nullptr) {
      return Corrupt("grouping section without a model section");
    }
    FUSER_ASSIGN_OR_RETURN(
        snapshot->grouping,
        DecodeGroupingSection(*grouping_src, *dataset, *snapshot->model));
  } else if (grouping_src.status().code() != StatusCode::kNotFound) {
    return grouping_src.status();
  }

  StatusOr<ByteSource> serving_src = OpenSection(bytes, table, kSectionServing);
  if (serving_src.ok()) {
    MethodContext context;
    context.dataset = dataset;
    context.options = &snapshot->options;
    context.quality = &snapshot->quality;
    context.model = snapshot->model.get();
    context.grouping = snapshot->grouping.get();
    context.num_threads = 1;
    FUSER_RETURN_IF_ERROR(
        DecodeServingSection(*serving_src, context, &snapshot->serving));
  } else if (serving_src.status().code() != StatusCode::kNotFound) {
    return serving_src.status();
  }

  loaded.snapshot = std::move(snapshot);
  return loaded;
}

}  // namespace

Status SaveSnapshot(const std::string& path, const Dataset& dataset,
                    const DynamicBitset& train_mask,
                    const FusionSnapshot& snapshot) {
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset must be finalized");
  }
  if (snapshot.num_triples != dataset.num_triples() ||
      snapshot.num_sources != dataset.num_sources()) {
    return Status::InvalidArgument(
        "snapshot does not belong to this dataset (size mismatch)");
  }
  if (snapshot.dataset_version != dataset.version()) {
    return Status::InvalidArgument(
        "snapshot predates the dataset's current version; publish a fresh "
        "snapshot before saving");
  }
  if (train_mask.size() != dataset.num_triples()) {
    return Status::InvalidArgument("train mask size != num_triples");
  }
  if (snapshot.grouping != nullptr &&
      snapshot.grouping->num_triples != dataset.num_triples()) {
    return Status::InvalidArgument("snapshot grouping size mismatch");
  }

  // Small sections are assembled in memory; the DATASET section — the
  // bulk of the file — is streamed straight from the dataset's columns,
  // so saving never materializes a second copy of the corpus. It goes
  // last: warm starts over an already-loaded dataset (FusionEngine::
  // WarmStart) read only the file prefix up to it.
  std::vector<std::pair<uint32_t, std::string>> small_sections;
  small_sections.emplace_back(
      kSectionEngine, EncodeEngineSection(dataset, train_mask, snapshot));
  if (snapshot.model != nullptr) {
    FUSER_ASSIGN_OR_RETURN(std::string model_bytes,
                           EncodeModelSection(*snapshot.model));
    small_sections.emplace_back(kSectionModel, std::move(model_bytes));
  }
  if (snapshot.grouping != nullptr) {
    small_sections.emplace_back(kSectionGrouping,
                                EncodeGroupingSection(*snapshot.grouping));
  }
  if (!snapshot.serving.empty()) {
    small_sections.emplace_back(kSectionServing,
                                EncodeServingSection(snapshot));
  }

  const size_t num_sections = small_sections.size() + 1;
  const size_t header_end =
      kHeaderFixedBytes + kSectionEntryBytes * num_sections + 8;
  uint64_t dataset_offset = header_end;
  for (const auto& [id, payload] : small_sections) {
    (void)id;
    dataset_offset += payload.size();
  }

  const CompactCsrView providers = MakeCompactView(dataset.providers_table());
  const CompactCsrView domain_sources =
      MakeCompactView(dataset.domain_sources_table());
  const CompactCsrView domain_triples =
      MakeCompactView(dataset.domain_triples_table());
  const StringArena& arena = dataset.string_arena();
  const uint64_t scalars[kDsScalars] = {
      dataset.version(),         dataset.num_sources(),
      dataset.num_domains(),     dataset.num_triples(),
      arena.image_bytes(),       arena.chunk_bytes(),
      providers.pool_len,        domain_sources.pool_len,
      domain_triples.pool_len};
  DsLayout layout;
  FUSER_RETURN_IF_ERROR(ComputeDsLayout(dataset_offset, scalars, &layout));

  auto build_header = [&](uint64_t dataset_checksum) {
    ByteSink header;
    header.WriteRaw(kMagic, sizeof(kMagic));
    header.WriteU32(kSnapshotFormatVersion);
    header.WriteU32(static_cast<uint32_t>(num_sections));
    uint64_t offset = header_end;
    for (const auto& [id, payload] : small_sections) {
      header.WriteU32(id);
      header.WriteU32(0);  // reserved
      header.WriteU64(offset);
      header.WriteU64(payload.size());
      header.WriteU64(Checksum64(payload.data(), payload.size()));
      offset += payload.size();
    }
    header.WriteU32(kSectionDataset);
    header.WriteU32(0);  // reserved
    header.WriteU64(dataset_offset);
    header.WriteU64(layout.total);
    header.WriteU64(dataset_checksum);
    header.WriteU64(Checksum64(header.data().data(), header.size()));
    return header.data();
  };

  return persist::CommitFileAtomic(path, [&](std::FILE* out) -> Status {
    // Pass 1: header with a placeholder dataset checksum, the small
    // payloads, then the streamed dataset payload (checksummed on the way
    // out). Pass 2 seeks back and rewrites the header with the real value.
    FileSectionWriter writer(out);
    writer.BeginSection();
    const std::string placeholder_header = build_header(0);
    FUSER_RETURN_IF_ERROR(
        writer.Write(placeholder_header.data(), placeholder_header.size()));
    for (const auto& [id, payload] : small_sections) {
      (void)id;
      FUSER_RETURN_IF_ERROR(writer.Write(payload.data(), payload.size()));
    }
    writer.BeginSection();
    FUSER_RETURN_IF_ERROR(WriteDatasetSection(dataset, layout, scalars,
                                              providers, domain_sources,
                                              domain_triples, &writer));
    if (writer.section_bytes() != layout.total) {
      return Status::Internal("dataset section size accounting bug");
    }
    const std::string final_header = build_header(writer.section_checksum());
    if (std::fseek(out, 0, SEEK_SET) != 0 ||
        std::fwrite(final_header.data(), 1, final_header.size(), out) !=
            final_header.size()) {
      return Status::IoError("snapshot header rewrite failed");
    }
    return Status::OK();
  });
}

StatusOr<LoadedSnapshot> LoadSnapshot(const std::string& path) {
  const char* force = std::getenv("FUSER_FORCE_MMAP_ATTACH");
  if (force != nullptr && std::string_view(force) == "1") {
    return LoadImpl(path, nullptr, AttachMode::kMmapVerify);
  }
  return LoadImpl(path, nullptr, AttachMode::kCopy);
}

StatusOr<LoadedSnapshot> LoadSnapshot(const std::string& path,
                                      const LoadOptions& options) {
  return LoadImpl(path, nullptr, options.attach);
}

StatusOr<LoadedSnapshot> LoadSnapshotFor(const std::string& path,
                                         const Dataset& dataset) {
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset must be finalized");
  }
  return LoadImpl(path, &dataset, AttachMode::kCopy);
}

}  // namespace fuser
