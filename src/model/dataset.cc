#include "model/dataset.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/logging.h"

namespace fuser {

namespace {

/// Fills `csr` with one row per bit position of `sets` (one bitset of
/// `width` bits per source): row j lists the sources whose bit j is set,
/// ascending. One 64-row block at a time, the block's word of each
/// 64-source group transposes into one source mask per row, so the pool
/// fills in row order.
void TransposeToCsr(const std::vector<DynamicBitset>& sets, size_t width,
                    CsrTable<SourceId>* csr) {
  size_t total = 0;
  for (const DynamicBitset& set : sets) total += set.Count();
  csr->ResetForRows(width, total);
  const size_t n = sets.size();
  const size_t groups = (n + 63) / 64;
  std::vector<uint64_t> masks(groups * 64);
  std::vector<SourceId> row;
  row.reserve(n);
  for (size_t w = 0; w * 64 < width; ++w) {
    for (size_t g = 0; g < groups; ++g) {
      const size_t k = std::min<size_t>(64, n - g * 64);
      uint64_t words[64];
      for (size_t i = 0; i < k; ++i) words[i] = sets[g * 64 + i].word(w);
      TransposeBitColumns(words, k, &masks[g * 64]);
    }
    for (size_t j = 0, end = std::min<size_t>(64, width - w * 64); j < end;
         ++j) {
      row.clear();
      for (size_t g = 0; g < groups; ++g) {
        ForEachBit(masks[g * 64 + j], [&](int i) {
          row.push_back(static_cast<SourceId>(g * 64 + i));
        });
      }
      csr->PushRow(row.data(), row.size());
    }
  }
}

}  // namespace

Dataset::Dataset() : strings_(std::make_unique<StringInterner>()) {
  dict_.BindInterner(strings_.get());
}

SourceId Dataset::AddSource(std::string_view name) {
  FUSER_CHECK(!finalized_) << "AddSource after Finalize";
  const StringRef ref = strings_->Intern(name);
  const std::string_view key = strings_->arena().View(ref);
  auto it = source_index_.find(key);
  FUSER_CHECK(it == source_index_.end()) << "duplicate source name: " << name;
  SourceId id = static_cast<SourceId>(source_names_.size());
  source_names_.push_back(ref);
  source_index_.emplace(key, id);
  outputs_.emplace_back();  // grows in Provide
  return id;
}

DomainId Dataset::InternDomain(std::string_view name) {
  auto it = domain_index_.find(name);
  if (it != domain_index_.end()) return it->second;
  const StringRef ref = strings_->Intern(name);
  DomainId id = static_cast<DomainId>(domain_names_.size());
  domain_names_.push_back(ref);
  domain_index_.emplace(strings_->arena().View(ref), id);
  return id;
}

TripleId Dataset::AddTriple(const TripleView& triple,
                            std::string_view domain) {
  FUSER_CHECK(!finalized_) << "AddTriple after Finalize";
  const size_t before = dict_.size();
  TripleId id = dict_.Intern(triple);
  if (dict_.size() > before) {
    labels_.push_back(Label::kUnknown);
    // An existing triple keeps its original domain; only new triples
    // intern theirs.
    domains_.push_back(InternDomain(domain));
  }
  return id;
}

void Dataset::Provide(SourceId source, TripleId triple) {
  FUSER_CHECK(!finalized_) << "Provide after Finalize";
  FUSER_CHECK_LT(source, source_names_.size());
  FUSER_CHECK_LT(triple, dict_.size());
  // The output grows by doubling as triples arrive; Finalize trims it to
  // the triple count.
  DynamicBitset& output = outputs_[source];
  if (triple >= output.size()) {
    output.Resize(std::max<size_t>(size_t{triple} + 1, 2 * output.size()));
  }
  output.Set(triple);
}

void Dataset::SetLabel(TripleId triple, bool is_true) {
  FUSER_CHECK(!finalized_) << "SetLabel after Finalize";
  FUSER_CHECK_LT(triple, labels_.size());
  labels_.Set(triple, is_true ? Label::kTrue : Label::kFalse);
}

TripleId Dataset::FindTriple(const TripleView& t) const {
  EnsureLookups();
  return dict_.Lookup(t);
}

Status Dataset::Finalize(bool allow_empty) {
  if (finalized_) {
    return Status::FailedPrecondition("Finalize called twice");
  }
  if (!allow_empty) {
    if (source_names_.empty()) {
      return Status::InvalidArgument("dataset has no sources");
    }
    if (dict_.size() == 0) {
      return Status::InvalidArgument("dataset has no triples");
    }
  }
  const size_t m = dict_.size();
  const size_t n = source_names_.size();
  const size_t num_domains = domain_names_.size();

  for (DynamicBitset& output : outputs_) {
    output.Resize(m);
    output.ShrinkToFit();
  }
  TransposeToCsr(outputs_, m, &providers_);

  source_covers_domain_.assign(n, DynamicBitset(num_domains));
  for (size_t s = 0; s < n; ++s) {
    outputs_[s].ForEach(
        [&](size_t t) { source_covers_domain_[s].Set(domains_[t]); });
  }
  TransposeToCsr(source_covers_domain_, num_domains, &domain_sources_);

  std::vector<uint32_t> counts(num_domains, 0);
  for (TripleId t = 0; t < m; ++t) ++counts[domains_[t]];
  domain_triples_.ResetWithCounts(counts);
  for (TripleId t = 0; t < m; ++t) domain_triples_.Fill(domains_[t], t);
  domain_triples_.FinishFill();

  true_mask_ = DynamicBitset(m);
  labeled_mask_ = DynamicBitset(m);
  for (size_t t = 0; t < m; ++t) {
    if (labels_[t] != Label::kUnknown) {
      labeled_mask_.Set(t);
      if (labels_[t] == Label::kTrue) true_mask_.Set(t);
    }
  }

  finalized_ = true;
  ++version_;
  return Status::OK();
}

Status Dataset::ApplyBatch(const ObservationBatch& batch,
                           DatasetDelta* delta) {
  FUSER_CHECK(delta != nullptr);
  if (!finalized_) {
    return Status::FailedPrecondition(
        "ApplyBatch before Finalize (use AddTriple/Provide instead)");
  }
  EnsureLookups();
  *delta = DatasetDelta{};
  delta->old_num_triples = dict_.size();
  delta->old_num_sources = source_names_.size();
  delta->old_num_domains = domain_names_.size();

  auto add_source = [&](std::string_view name) {
    const StringRef ref = strings_->Intern(name);
    SourceId s = static_cast<SourceId>(source_names_.size());
    source_names_.push_back(ref);
    source_index_.emplace(strings_->arena().View(ref), s);
    outputs_.emplace_back();              // resized to full width below
    source_covers_domain_.emplace_back();
    delta->new_sources.push_back(s);
    return s;
  };

  // Pass 0: pre-registered sources (sharded routing aligns shard-local
  // SourceIds with global ones by broadcasting new names in global order).
  for (const std::string& name : batch.register_sources) {
    if (source_index_.find(name) != source_index_.end()) continue;
    add_source(name);
  }

  // Pass 1: intern sources, domains, and triples; collect the provide list.
  std::vector<std::pair<SourceId, TripleId>> provides;
  provides.reserve(batch.observations.size());
  for (const Observation& obs : batch.observations) {
    SourceId s;
    auto it = source_index_.find(obs.source);
    if (it != source_index_.end()) {
      s = it->second;
    } else {
      s = add_source(obs.source);
    }
    const size_t before = dict_.size();
    TripleId t = dict_.Intern(obs.triple);
    if (dict_.size() > before) {
      labels_.push_back(Label::kUnknown);
      // An existing triple keeps its original domain (as in AddTriple).
      domains_.push_back(InternDomain(obs.domain));
      delta->new_triples.push_back(t);
    }
    provides.emplace_back(s, t);
  }

  // Resize the derived structures to the new widths. Unchanged widths are
  // no-ops, so an attached dataset is only promoted where it grows (or, in
  // pass 2/3, where a bit actually flips).
  const size_t m = dict_.size();
  const size_t num_domains = domain_names_.size();
  for (DynamicBitset& output : outputs_) output.Resize(m);
  if (m > providers_.num_rows()) {
    providers_.AppendRows(m - providers_.num_rows());
  }
  for (DynamicBitset& covers : source_covers_domain_) {
    covers.Resize(num_domains);
  }
  if (num_domains > domain_sources_.num_rows()) {
    domain_sources_.AppendRows(num_domains - domain_sources_.num_rows());
    domain_triples_.AppendRows(num_domains - domain_triples_.num_rows());
  }
  for (TripleId t : delta->new_triples) {
    domain_triples_.InsertSorted(domains_[t], t);
  }
  true_mask_.Resize(m);
  labeled_mask_.Resize(m);

  // Pass 2: apply the provides, maintaining provider lists and scope tables.
  for (const auto& [s, t] : provides) {
    if (outputs_[s].Test(t)) continue;  // duplicate observation
    outputs_[s].Set(t);
    providers_.InsertSorted(t, s);
    delta->new_provides.emplace_back(s, t);
    const DomainId d = domains_[t];
    if (!source_covers_domain_[s].Test(d)) {
      source_covers_domain_[s].Set(d);
      domain_sources_.InsertSorted(d, s);
      delta->scope_gains.emplace_back(s, d);
    }
  }

  // Pass 3: labels. Labels for triples no source provides are skipped
  // (LoadDataset semantics: only provided triples are evaluated).
  for (const LabelUpdate& lu : batch.labels) {
    TripleId t = dict_.Lookup(lu.triple);
    if (t == kInvalidTriple || providers_.row(t).empty()) continue;
    const Label new_label = lu.is_true ? Label::kTrue : Label::kFalse;
    if (labels_[t] == new_label) continue;
    delta->label_changes.emplace_back(t, labels_[t]);
    labels_.Set(t, new_label);
    labeled_mask_.Set(t);
    true_mask_.Assign(t, lu.is_true);
  }

  // Reclaim CSR garbage left by relocating inserts (amortized O(1)).
  providers_.MaybeCompact();
  domain_sources_.MaybeCompact();
  domain_triples_.MaybeCompact();

  // A no-op batch (all duplicates) leaves the version alone so runs scored
  // before it stay evaluable.
  if (!delta->empty()) ++version_;
  return Status::OK();
}

uint64_t Dataset::ContentFingerprint() const {
  FUSER_CHECK(finalized_) << "ContentFingerprint before Finalize";
  const uint64_t sizes[3] = {num_sources(), num_triples(), num_domains()};
  uint64_t h = HashBytes64(sizes, sizeof(sizes));
  h = HashBytes64(domains_.data(), domains_.size() * sizeof(DomainId), h);
  h = HashBytes64(labels_.data(), labels_.size() * sizeof(Label), h);
  for (const DynamicBitset& output : outputs_) {
    h = HashBytes64(output.words(), output.num_words() * sizeof(uint64_t), h);
  }
  return h;
}

void Dataset::EnsureLookups() const {
  if (lookups_ready_) return;
  const StringArena& arena = strings_->arena();
  source_index_.reserve(source_names_.size());
  for (size_t s = 0; s < source_names_.size(); ++s) {
    const StringRef ref = source_names_[s];
    strings_->InsertExisting(ref);
    source_index_.emplace(arena.View(ref), static_cast<SourceId>(s));
  }
  domain_index_.reserve(domain_names_.size());
  for (size_t d = 0; d < domain_names_.size(); ++d) {
    const StringRef ref = domain_names_[d];
    strings_->InsertExisting(ref);
    domain_index_.emplace(arena.View(ref), static_cast<DomainId>(d));
  }
  dict_.BuildIndex();
  lookups_ready_ = true;
}

std::unique_ptr<Dataset> Dataset::FromColumns(
    const DatasetColumns& c, bool borrow,
    std::shared_ptr<const void> keepalive) {
  auto d = std::make_unique<Dataset>();
  d->strings_ = std::make_unique<StringInterner>(c.arena_chunk_bytes);
  d->dict_.BindInterner(d->strings_.get());
  if (borrow) {
    d->strings_->mutable_arena()->AttachImage(c.arena_image,
                                              c.arena_image_bytes);
  } else {
    d->strings_->mutable_arena()->AdoptImageCopy(c.arena_image,
                                                 c.arena_image_bytes);
  }

  d->source_names_.Attach(c.source_names, c.num_sources);
  d->domain_names_.Attach(c.domain_names, c.num_domains);
  d->dict_.AttachColumns(c.subjects, c.predicates, c.objects, c.num_triples);
  d->domains_.Attach(c.domains, c.num_triples);
  d->labels_.Attach(reinterpret_cast<const Label*>(c.labels), c.num_triples);

  const size_t m = c.num_triples;
  const size_t words_per_output = (m + 63) / 64;
  d->outputs_.reserve(c.num_sources);
  for (size_t s = 0; s < c.num_sources; ++s) {
    d->outputs_.push_back(
        DynamicBitset::View(c.output_words + s * words_per_output, m));
  }

  d->providers_.Attach(c.provider_offsets, c.provider_counts, c.provider_pool,
                       m, c.provider_pool_len);
  d->domain_sources_.Attach(c.domain_source_offsets, c.domain_source_counts,
                            c.domain_source_pool, c.num_domains,
                            c.domain_source_pool_len);
  d->domain_triples_.Attach(c.domain_triple_offsets, c.domain_triple_counts,
                            c.domain_triple_pool, c.num_domains,
                            c.domain_triple_pool_len);

  const size_t words_per_cover = (c.num_domains + 63) / 64;
  d->source_covers_domain_.reserve(c.num_sources);
  for (size_t s = 0; s < c.num_sources; ++s) {
    d->source_covers_domain_.push_back(DynamicBitset::View(
        c.covers_words + s * words_per_cover, c.num_domains));
  }
  d->true_mask_ = DynamicBitset::View(c.true_words, m);
  d->labeled_mask_ = DynamicBitset::View(c.labeled_words, m);

  d->finalized_ = true;
  d->version_ = c.version;
  d->lookups_ready_ = false;

  if (borrow) {
    d->attached_ = true;
    d->keepalive_ = std::move(keepalive);
  } else {
    // Bulk-promote everything; the source arrays are transient (a decoded
    // section buffer), so nothing may stay borrowed.
    d->source_names_.EnsureOwned();
    d->domain_names_.EnsureOwned();
    d->dict_.EnsureOwned();
    d->domains_.EnsureOwned();
    d->labels_.EnsureOwned();
    for (DynamicBitset& output : d->outputs_) output.EnsureOwned();
    d->providers_.EnsureOwned();
    d->domain_sources_.EnsureOwned();
    d->domain_triples_.EnsureOwned();
    for (DynamicBitset& covers : d->source_covers_domain_) {
      covers.EnsureOwned();
    }
    d->true_mask_.EnsureOwned();
    d->labeled_mask_.EnsureOwned();
  }
  return d;
}

DatasetMemoryStats Dataset::MemoryStats() const {
  DatasetMemoryStats st;
  st.num_triples = num_triples();
  st.num_sources = num_sources();
  st.num_domains = num_domains();

  const StringArena& arena = strings_->arena();
  st.arena_bytes = arena.owned_bytes() + arena.mapped_bytes();

  size_t owned = arena.owned_bytes();
  size_t mapped = arena.mapped_bytes();

  auto add_column = [&](size_t size, size_t elem, size_t owned_bytes,
                        bool borrowed) {
    const size_t bytes = borrowed ? size * elem : owned_bytes;
    st.column_bytes += bytes;
    (borrowed ? mapped : owned) += bytes;
  };
  add_column(source_names_.size(), sizeof(StringRef),
             source_names_.owned_bytes(), source_names_.borrowed());
  add_column(domain_names_.size(), sizeof(StringRef),
             domain_names_.owned_bytes(), domain_names_.borrowed());
  add_column(dict_.size() * 3, sizeof(StringRef), dict_.column_owned_bytes(),
             dict_.columns_borrowed());
  add_column(domains_.size(), sizeof(DomainId), domains_.owned_bytes(),
             domains_.borrowed());
  add_column(labels_.size(), sizeof(Label), labels_.owned_bytes(),
             labels_.borrowed());

  auto add_csr = [&](size_t rows, size_t pool, size_t elem,
                     size_t owned_bytes, bool borrowed) {
    const size_t bytes =
        borrowed ? rows * (sizeof(uint64_t) + sizeof(uint32_t)) + pool * elem
                 : owned_bytes;
    st.csr_bytes += bytes;
    (borrowed ? mapped : owned) += bytes;
  };
  add_csr(providers_.num_rows(), providers_.pool_size(), sizeof(SourceId),
          providers_.owned_bytes(), providers_.borrowed());
  add_csr(domain_sources_.num_rows(), domain_sources_.pool_size(),
          sizeof(SourceId), domain_sources_.owned_bytes(),
          domain_sources_.borrowed());
  add_csr(domain_triples_.num_rows(), domain_triples_.pool_size(),
          sizeof(TripleId), domain_triples_.owned_bytes(),
          domain_triples_.borrowed());

  auto add_bitset = [&](const DynamicBitset& b) {
    const size_t bytes = b.num_words() * sizeof(uint64_t);
    st.bitset_bytes += bytes;
    (b.borrowed() ? mapped : owned) += bytes;
  };
  for (const DynamicBitset& output : outputs_) add_bitset(output);
  for (const DynamicBitset& covers : source_covers_domain_) {
    add_bitset(covers);
  }
  add_bitset(true_mask_);
  add_bitset(labeled_mask_);

  // Lookup structures: interner table, triple index, and the two name
  // maps (approximated at one cache line per entry of node + bucket cost).
  st.index_bytes = strings_->table_bytes() + dict_.index_bytes() +
                   (source_index_.size() + domain_index_.size()) * 64;
  owned += st.index_bytes;

  st.owned_bytes = owned;
  st.mapped_bytes = mapped;
  st.total_bytes = owned + mapped;
  st.storage_mode =
      attached_ ? (mapped > 0 ? "mmap" : "mmap+promoted") : "owned";
  return st;
}

}  // namespace fuser
