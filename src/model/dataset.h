// Dataset: sources, their output triples, domains/scopes, and gold labels.
//
// Implements the paper's data model (Section 2.1): a set of sources
// S = {S1..Sn}, outputs O = {O1..On}, and for each triple t the observation
// set Ot. Open-world semantics: a source's *non*-provision of t is an
// observation only if the source is "in scope" for t, i.e., provides some
// other triple in t's domain; otherwise the source is silent about t.
//
// Storage is columnar and arena-backed (see README "Memory architecture"):
//   * every string (triple fields, source/domain names) lives once in a
//     StringArena, referenced by packed StringRefs;
//   * per-triple data (refs, domain, label) are flat columns;
//   * providers / scope rows are CSR tables (offset+count into one pool)
//     instead of vector<vector<Id>>;
//   * all of it either owns its memory or borrows it from an attached
//     snapshot image (mmap). Mutators promote borrowed storage to owned
//     copies on first write (copy-on-write), so ApplyBatch works
//     identically on attached datasets.
//
// Usage:
//   Dataset d;
//   SourceId s = d.AddSource("extractor-1");
//   TripleId t = d.AddTriple({"Obama", "profession", "president"}, "obama");
//   d.Provide(s, t);
//   d.SetLabel(t, /*is_true=*/true);
//   d.Finalize();
#ifndef FUSER_MODEL_DATASET_H_
#define FUSER_MODEL_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/bitset.h"
#include "common/column.h"
#include "common/span.h"
#include "common/status.h"
#include "model/triple.h"

namespace fuser {

/// Gold-standard label of a triple.
enum class Label : uint8_t { kUnknown = 0, kFalse = 1, kTrue = 2 };

/// One streamed source-triple observation (Si |= t). Sources, triples, and
/// domains are identified by name so a batch can introduce new ones.
struct Observation {
  std::string source;
  Triple triple;
  std::string domain;  // "" = the default global domain
};

/// One streamed gold label.
struct LabelUpdate {
  Triple triple;
  bool is_true = false;
};

/// A micro-batch of streamed observations and labels, applied atomically by
/// Dataset::ApplyBatch after Finalize.
struct ObservationBatch {
  /// Sources to intern (in order) before any observation is processed.
  /// ApplyBatch normally creates sources lazily at their first observation;
  /// a sharded router instead pre-registers every new source of the batch
  /// in every shard so shard-local SourceIds stay equal to global ones.
  /// Names already present are skipped.
  std::vector<std::string> register_sources;
  std::vector<Observation> observations;
  std::vector<LabelUpdate> labels;

  bool empty() const {
    return register_sources.empty() && observations.empty() && labels.empty();
  }
};

/// Structural delta produced by ApplyBatch: exactly what changed, in terms
/// the incremental engine paths can consume. Old masks are reconstructable
/// from the current dataset minus the recorded additions (observations only
/// ever add provider/scope bits).
struct DatasetDelta {
  size_t old_num_triples = 0;
  size_t old_num_sources = 0;
  size_t old_num_domains = 0;
  std::vector<SourceId> new_sources;
  std::vector<TripleId> new_triples;  // ids are >= old_num_triples
  /// (source, triple) pairs newly provided by this batch (duplicates of
  /// existing observations are dropped). Includes provides of new triples.
  std::vector<std::pair<SourceId, TripleId>> new_provides;
  /// (source, domain) pairs where the source newly covers the domain, i.e.
  /// every triple of the domain gained an in-scope source.
  std::vector<std::pair<SourceId, DomainId>> scope_gains;
  /// (triple, previous label) for every label that actually changed.
  std::vector<std::pair<TripleId, Label>> label_changes;

  bool empty() const {
    return new_sources.empty() && new_triples.empty() &&
           new_provides.empty() && scope_gains.empty() &&
           label_changes.empty();
  }
};

/// Raw pointers into one validated, contiguous snapshot image — the
/// wire-format view of a finalized dataset's columns. Built by the persist
/// layer and handed to Dataset::FromColumns, which either copies the
/// arrays (bulk load) or binds its storage to them (mmap attach). All CSR
/// arrays are compact (pool in row order, no garbage).
struct DatasetColumns {
  uint64_t version = 0;
  size_t num_sources = 0;
  size_t num_domains = 0;
  size_t num_triples = 0;

  const char* arena_image = nullptr;
  size_t arena_image_bytes = 0;
  size_t arena_chunk_bytes = 0;

  const StringRef* source_names = nullptr;  // [num_sources]
  const StringRef* domain_names = nullptr;  // [num_domains]
  const StringRef* subjects = nullptr;      // [num_triples]
  const StringRef* predicates = nullptr;    // [num_triples]
  const StringRef* objects = nullptr;       // [num_triples]
  const DomainId* domains = nullptr;        // [num_triples]
  const uint8_t* labels = nullptr;          // [num_triples]

  const uint64_t* output_words = nullptr;  // [num_sources * W], W=ceil(m/64)

  const uint64_t* provider_offsets = nullptr;  // [num_triples]
  const uint32_t* provider_counts = nullptr;   // [num_triples]
  const SourceId* provider_pool = nullptr;     // [provider_pool_len]
  size_t provider_pool_len = 0;

  const uint64_t* domain_source_offsets = nullptr;  // [num_domains]
  const uint32_t* domain_source_counts = nullptr;   // [num_domains]
  const SourceId* domain_source_pool = nullptr;
  size_t domain_source_pool_len = 0;

  const uint64_t* domain_triple_offsets = nullptr;  // [num_domains]
  const uint32_t* domain_triple_counts = nullptr;   // [num_domains]
  const TripleId* domain_triple_pool = nullptr;
  size_t domain_triple_pool_len = 0;

  const uint64_t* covers_words = nullptr;  // [num_sources * Wd], Wd=ceil(D/64)
  const uint64_t* true_words = nullptr;    // [W]
  const uint64_t* labeled_words = nullptr; // [W]
};

/// Memory/layout report (fuser_cli --stats, bench_memory). Owned bytes are
/// heap the dataset allocated; mapped bytes are served from an attached
/// snapshot image. Index bytes are the lazily built lookup structures
/// (string interner table, triple id index, name maps) — zero until the
/// first name/triple lookup after an attach.
struct DatasetMemoryStats {
  size_t num_triples = 0;
  size_t num_sources = 0;
  size_t num_domains = 0;
  size_t arena_bytes = 0;    // string payload (owned or mapped)
  size_t column_bytes = 0;   // ref/domain/label columns
  size_t csr_bytes = 0;      // providers + scope tables
  size_t bitset_bytes = 0;   // outputs, covers, masks
  size_t index_bytes = 0;    // lookup structures (approximate)
  size_t owned_bytes = 0;    // heap total
  size_t mapped_bytes = 0;   // attached-image total
  size_t total_bytes = 0;    // owned + mapped
  /// "owned", "mmap", or "mmap+promoted".
  const char* storage_mode = "owned";
};

class Dataset {
 public:
  Dataset();

  // Dataset owns large columns and bitsets; keep it move-only to avoid
  // accidental deep copies.
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  // ---- Construction (before Finalize) ----

  /// Registers a source; names must be unique.
  SourceId AddSource(std::string_view name);

  /// Interns a triple, assigning it to the domain named `domain` ("" means
  /// the default global domain). Re-adding an existing triple returns its
  /// id (and ignores a conflicting domain).
  TripleId AddTriple(const TripleView& triple, std::string_view domain = {});

  /// Records that `source` outputs `triple` (Si |= t). Idempotent.
  void Provide(SourceId source, TripleId triple);

  /// Sets the gold label of a triple.
  void SetLabel(TripleId triple, bool is_true);

  /// Builds the derived indexes (provider lists, scope tables, gold
  /// bitsets). Must be called once; afterwards the dataset only changes
  /// through ApplyBatch. `allow_empty` relaxes the no-sources/no-triples
  /// errors for shard datasets whose partition happens to be empty (all
  /// derived structures finalize to zero width and ApplyBatch may fill
  /// them later).
  Status Finalize() { return Finalize(/*allow_empty=*/false); }
  Status Finalize(bool allow_empty);

  bool finalized() const { return finalized_; }

  // ---- Streaming ingestion (after Finalize) ----

  /// Applies a micro-batch of streamed observations and labels, maintaining
  /// every derived index incrementally (providers, scope tables, gold
  /// bitsets). Unknown sources/triples/domains are created; duplicate
  /// observations and no-op labels are dropped. Labels for triples no
  /// source provides are skipped, mirroring LoadDataset. On success the
  /// structural delta is written to `*delta` (never null) and version() is
  /// bumped. On an attached (mmap) dataset this is the moment borrowed
  /// storage gets promoted to owned memory (copy-on-write, per structure).
  Status ApplyBatch(const ObservationBatch& batch, DatasetDelta* delta);

  /// Monotonic change counter: bumped by Finalize and every ApplyBatch.
  /// Consumers caching derived state (e.g. FusionEngine) compare versions
  /// to detect out-of-band mutation.
  uint64_t version() const { return version_; }

  /// Order-sensitive structural fingerprint of everything scoring depends
  /// on: the sizes, every triple's domain and label, and every source's
  /// output bitset. String contents are deliberately excluded — scores
  /// are a function of structure and labels alone — which keeps the hash
  /// cheap enough for the warm-start hot path. Snapshot files record it
  /// so WarmStart can refuse a dataset whose *contents* changed even when
  /// the sizes and the version counter happen to line up (e.g. TSVs
  /// edited in place and reloaded). Valid after Finalize().
  uint64_t ContentFingerprint() const;

  // ---- Sizes ----

  size_t num_sources() const { return source_names_.size(); }
  size_t num_triples() const { return dict_.size(); }
  size_t num_domains() const { return domain_names_.size(); }

  // ---- Triples & labels ----

  /// A view into the string arena; copy into a Triple to outlive the
  /// dataset.
  TripleView triple(TripleId t) const { return dict_.Get(t); }
  TripleId FindTriple(const TripleView& t) const;
  Label label(TripleId t) const { return labels_[t]; }
  DomainId domain(TripleId t) const { return domains_[t]; }
  std::string_view domain_name(DomainId d) const {
    return strings_->arena().View(domain_names_[d]);
  }

  /// Triples labeled true / triples with any label (as bitsets over ids).
  /// Valid after Finalize().
  const DynamicBitset& true_mask() const { return true_mask_; }
  const DynamicBitset& labeled_mask() const { return labeled_mask_; }

  size_t num_labeled() const { return labeled_mask_.Count(); }
  size_t num_true() const { return true_mask_.Count(); }

  // ---- Sources & observations ----

  std::string_view source_name(SourceId s) const {
    return strings_->arena().View(source_names_[s]);
  }

  /// The output set Oi of a source, as a bitset over triple ids.
  const DynamicBitset& output(SourceId s) const { return outputs_[s]; }

  bool provides(SourceId s, TripleId t) const { return outputs_[s].Test(t); }

  /// Sources providing t (St), ascending. Valid after Finalize().
  Span<SourceId> providers(TripleId t) const { return providers_.row(t); }

  /// Sources in scope for t: those that provide at least one triple in t's
  /// domain. Every provider of t is in scope. Valid after Finalize().
  Span<SourceId> in_scope_sources(TripleId t) const {
    return domain_sources_.row(domains_[t]);
  }

  bool in_scope(SourceId s, TripleId t) const {
    return source_covers_domain_[s].Test(domains_[t]);
  }

  /// Whether `s` provides any triple of domain `d` (the scope relation,
  /// keyed by domain instead of by triple). Valid after Finalize().
  bool covers_domain(SourceId s, DomainId d) const {
    return source_covers_domain_[s].Test(d);
  }

  /// Number of triples a source provides.
  size_t output_size(SourceId s) const { return outputs_[s].Count(); }

  /// Triples of domain d, ascending. Valid after Finalize().
  Span<TripleId> triples_in_domain(DomainId d) const {
    return domain_triples_.row(d);
  }

  // ---- Columnar access (persistence, src/persist/) ----

  const StringArena& string_arena() const { return strings_->arena(); }
  Span<StringRef> source_name_refs() const { return source_names_.span(); }
  Span<StringRef> domain_name_refs() const { return domain_names_.span(); }
  const TripleDictionary& triple_dict() const { return dict_; }
  Span<DomainId> domains_span() const { return domains_.span(); }
  Span<Label> labels_span() const { return labels_.span(); }
  const CsrTable<SourceId>& providers_table() const { return providers_; }
  const CsrTable<SourceId>& domain_sources_table() const {
    return domain_sources_;
  }
  const CsrTable<TripleId>& domain_triples_table() const {
    return domain_triples_;
  }
  const DynamicBitset& covers_bitset(SourceId s) const {
    return source_covers_domain_[s];
  }

  /// Builds a finalized dataset over a validated snapshot image. With
  /// `borrow` the columns alias the image (zero-copy attach; `keepalive`
  /// pins the mapping for the dataset's lifetime); without it every array
  /// is bulk-copied into owned storage and `keepalive` may be null.
  /// Lookup structures (name maps, triple index, interner table) are NOT
  /// built here — they materialize lazily on the first lookup — so attach
  /// cost is O(num_sources + num_domains), independent of triple count.
  static std::unique_ptr<Dataset> FromColumns(
      const DatasetColumns& columns, bool borrow,
      std::shared_ptr<const void> keepalive);

  /// Whether any storage is still borrowed from an attached image.
  bool attached() const { return attached_; }

  DatasetMemoryStats MemoryStats() const;

 private:
  DomainId InternDomain(std::string_view name);
  /// Rebuilds the lazy lookup structures (name maps, interner table,
  /// triple id index) after a snapshot attach. No-op when current.
  void EnsureLookups() const;

  bool finalized_ = false;
  uint64_t version_ = 0;
  bool attached_ = false;

  /// Owns the arena; heap-allocated so interior pointers (views keyed in
  /// the lazy name maps, the dictionary's interner binding) survive
  /// Dataset moves.
  std::unique_ptr<StringInterner> strings_;
  mutable TripleDictionary dict_;
  Column<StringRef> source_names_;
  Column<StringRef> domain_names_;
  Column<Label> labels_;
  Column<DomainId> domains_;

  // Lazy lookup structures, keyed by arena views (rebuilt after attach).
  mutable std::unordered_map<std::string_view, SourceId> source_index_;
  mutable std::unordered_map<std::string_view, DomainId> domain_index_;
  mutable bool lookups_ready_ = true;

  // outputs_[s] is a bitset over triples. Before Finalize() it grows by
  // doubling in Provide; Finalize() trims it to the triple count.
  std::vector<DynamicBitset> outputs_;

  // Derived (Finalize; maintained incrementally by ApplyBatch).
  CsrTable<SourceId> providers_;
  CsrTable<SourceId> domain_sources_;
  CsrTable<TripleId> domain_triples_;
  std::vector<DynamicBitset> source_covers_domain_;
  DynamicBitset true_mask_;
  DynamicBitset labeled_mask_;

  /// Pins the mmap'd snapshot image borrowed storage points into.
  std::shared_ptr<const void> keepalive_;
};

}  // namespace fuser

#endif  // FUSER_MODEL_DATASET_H_
