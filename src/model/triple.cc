#include "model/triple.h"

#include "common/bit_util.h"
#include "common/logging.h"

namespace fuser {

namespace {
// FNV-1a over a string, continuing from `h`.
size_t HashCombine(size_t h, std::string_view s) {
  constexpr size_t kPrime = 1099511628211ULL;
  for (char c : s) {
    h ^= static_cast<size_t>(static_cast<unsigned char>(c));
    h *= kPrime;
  }
  h ^= 0xFF;  // field separator so {"ab",""} != {"a","b"}
  h *= kPrime;
  return h;
}
}  // namespace

std::string TripleView::ToString() const {
  std::string out;
  out.reserve(subject.size() + predicate.size() + object.size() + 6);
  out.append("{");
  out.append(subject);
  out.append(", ");
  out.append(predicate);
  out.append(", ");
  out.append(object);
  out.append("}");
  return out;
}

size_t TripleHash::operator()(const Triple& t) const {
  size_t h = 14695981039346656037ULL;
  h = HashCombine(h, t.subject);
  h = HashCombine(h, t.predicate);
  h = HashCombine(h, t.object);
  return h;
}

uint64_t TripleDictionary::HashRefs(StringRef s, StringRef p,
                                    StringRef o) const {
  // MixMaskPair ends in a bare multiply, which leaves its low bits weak
  // for structured inputs — and packed refs are highly structured
  // (sequential 40-bit offsets above a near-constant 24-bit length). The
  // slot index is `hash & mask`, so run a full avalanche over the mix.
  return Avalanche64(
      MixMaskPair(s.packed(), MixMaskPair(p.packed(), o.packed())));
}

bool TripleDictionary::Probe(StringRef s, StringRef p, StringRef o,
                             uint64_t hash, size_t* slot) const {
  const size_t mask = slots_.size() - 1;
  const uint8_t tag = SlotTag(hash);
  size_t i = hash & mask;
  for (; tags_[i] != kEmptySlotTag; i = (i + 1) & mask) {
    if (tags_[i] != tag) continue;
    // Refs are canonical (the interner dedups), so equality is pure ref
    // comparison — no string bytes touched.
    const TripleId id = slots_[i];
    if (subjects_[id] == s && predicates_[id] == p && objects_[id] == o) {
      *slot = i;
      return true;
    }
  }
  *slot = i;
  return false;
}

void TripleDictionary::MaybeGrow() {
  if (slots_.empty()) {
    slots_.assign(64, 0);
    tags_.assign(64, kEmptySlotTag);
    return;
  }
  if (size() * 10 < slots_.size() * 7) return;
  const size_t cap = slots_.size() * 2;
  slots_.assign(cap, 0);
  tags_.assign(cap, kEmptySlotTag);
  InsertAll();
}

void TripleDictionary::InsertAll() {
  // Ids in order stream the ref columns; the slots they land in are
  // random, so each one starts loading a few ids ahead.
  constexpr TripleId kAhead = 8;
  const size_t mask = slots_.size() - 1;
  const TripleId n = static_cast<TripleId>(size());
  for (TripleId id = 0; id < n; ++id) {
    if (id + kAhead < n) {
      const size_t ahead = HashOf(id + kAhead) & mask;
      __builtin_prefetch(&tags_[ahead]);
      __builtin_prefetch(&slots_[ahead]);
    }
    const uint64_t hash = HashOf(id);
    size_t i = hash & mask;
    while (tags_[i] != kEmptySlotTag) i = (i + 1) & mask;
    slots_[i] = id;
    tags_[i] = SlotTag(hash);
  }
}

TripleId TripleDictionary::Intern(const TripleView& t) {
  FUSER_CHECK(interner_ != nullptr && index_built_);
  // The three fields' interner slots are independent cache misses: start
  // loading all of them before probing any.
  const uint64_t hs = StringInterner::Hash(t.subject);
  const uint64_t hp = StringInterner::Hash(t.predicate);
  const uint64_t ho = StringInterner::Hash(t.object);
  interner_->Prefetch(hs);
  interner_->Prefetch(hp);
  interner_->Prefetch(ho);
  const StringRef s = interner_->Intern(t.subject, hs);
  const StringRef p = interner_->Intern(t.predicate, hp);
  const StringRef o = interner_->Intern(t.object, ho);
  MaybeGrow();
  const uint64_t hash = HashRefs(s, p, o);
  size_t i;
  if (Probe(s, p, o, hash, &i)) return slots_[i];
  const TripleId id = static_cast<TripleId>(size());
  subjects_.push_back(s);
  predicates_.push_back(p);
  objects_.push_back(o);
  slots_[i] = id;
  tags_[i] = SlotTag(hash);
  return id;
}

TripleId TripleDictionary::Lookup(const TripleView& t) const {
  FUSER_CHECK(interner_ != nullptr && index_built_);
  if (slots_.empty()) return kInvalidTriple;
  const StringRef s = interner_->Find(t.subject);
  const StringRef p = interner_->Find(t.predicate);
  const StringRef o = interner_->Find(t.object);
  if (!s.valid() || !p.valid() || !o.valid()) return kInvalidTriple;
  size_t i;
  return Probe(s, p, o, HashRefs(s, p, o), &i) ? slots_[i] : kInvalidTriple;
}

TripleView TripleDictionary::Get(TripleId id) const {
  FUSER_CHECK_LT(id, size());
  const StringArena& arena = interner_->arena();
  return TripleView(arena.View(subjects_[id]), arena.View(predicates_[id]),
                    arena.View(objects_[id]));
}

void TripleDictionary::AttachColumns(const StringRef* subjects,
                                     const StringRef* predicates,
                                     const StringRef* objects, size_t n) {
  subjects_.Attach(subjects, n);
  predicates_.Attach(predicates, n);
  objects_.Attach(objects, n);
  slots_.clear();
  slots_.shrink_to_fit();
  tags_.clear();
  tags_.shrink_to_fit();
  index_built_ = false;
}

void TripleDictionary::EnsureOwned() {
  subjects_.EnsureOwned();
  predicates_.EnsureOwned();
  objects_.EnsureOwned();
}

void TripleDictionary::BuildIndex() {
  if (index_built_) return;
  const size_t n = size();
  // Power-of-two capacity with load factor <= 0.7.
  size_t cap = 64;
  while (n * 10 >= cap * 7) cap *= 2;
  slots_.assign(cap, 0);
  tags_.assign(cap, kEmptySlotTag);
  for (TripleId id = 0; id < n; ++id) {
    interner_->InsertExisting(subjects_[id]);
    interner_->InsertExisting(predicates_[id]);
    interner_->InsertExisting(objects_[id]);
  }
  InsertAll();
  index_built_ = true;
}

}  // namespace fuser
