// Knowledge triples and interning.
//
// A triple is {subject, predicate, object} (equivalently a {row, column,
// value} cell, per Section 2.1 of the paper). The dictionary interns
// triples so that the rest of the system works with dense 32-bit
// TripleIds.
//
// Storage is columnar: three StringRef columns (subject/predicate/object)
// into a shared StringInterner, plus an open-addressing index of
// TripleIds that hashes through the ref columns and keeps a SlotTag per
// slot, so a probe reads the columns only where the tag matches. Because
// the interner dedups strings, triple equality is ref equality — no byte
// comparison on the lookup hot path, no second copy of the strings as map
// keys, and the columns mmap-attach directly from a snapshot.
#ifndef FUSER_MODEL_TRIPLE_H_
#define FUSER_MODEL_TRIPLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/column.h"

namespace fuser {

using TripleId = uint32_t;
using SourceId = uint32_t;
using DomainId = uint32_t;

inline constexpr TripleId kInvalidTriple = static_cast<TripleId>(-1);

/// An owning knowledge triple (construction-time / streaming value type).
/// Equality is field-wise.
struct Triple {
  std::string subject;
  std::string predicate;
  std::string object;

  bool operator==(const Triple& other) const {
    return subject == other.subject && predicate == other.predicate &&
           object == other.object;
  }
};

/// A non-owning triple: three views into interned (or caller-owned)
/// strings. This is what Dataset::triple(id) returns — the fields alias
/// the dataset's string arena, so copy the view into a Triple if it must
/// outlive the dataset. Implicitly converts from and to Triple so call
/// sites written against the owning type keep working.
struct TripleView {
  std::string_view subject;
  std::string_view predicate;
  std::string_view object;

  TripleView() = default;
  TripleView(std::string_view s, std::string_view p, std::string_view o)
      : subject(s), predicate(p), object(o) {}
  TripleView(const Triple& t)
      : subject(t.subject), predicate(t.predicate), object(t.object) {}

  operator Triple() const {
    return Triple{std::string(subject), std::string(predicate),
                  std::string(object)};
  }

  bool operator==(const TripleView& o) const {
    return subject == o.subject && predicate == o.predicate &&
           object == o.object;
  }
  bool operator!=(const TripleView& o) const { return !(*this == o); }

  /// "{subject, predicate, object}" for messages and debugging.
  std::string ToString() const;
};

inline bool operator==(const TripleView& a, const Triple& b) {
  return a == TripleView(b);
}
inline bool operator==(const Triple& a, const TripleView& b) {
  return TripleView(a) == b;
}
inline bool operator!=(const TripleView& a, const Triple& b) {
  return !(a == b);
}
inline bool operator!=(const Triple& a, const TripleView& b) {
  return !(a == b);
}

struct TripleHash {
  size_t operator()(const Triple& t) const;
};

/// Interns triples; ids are dense and assigned in insertion order.
///
/// The dictionary does not own its strings: it is bound to a
/// StringInterner (the Dataset's) and stores one StringRef per field. The
/// id index is an open-addressing table over TripleIds with a SlotTag per
/// slot, hashed on the three packed refs; after a snapshot attach the
/// columns arrive without
/// an index and BuildIndex() reconstructs it (and re-registers every
/// field string with the interner) on first lookup.
class TripleDictionary {
 public:
  TripleDictionary() = default;
  TripleDictionary(const TripleDictionary&) = delete;
  TripleDictionary& operator=(const TripleDictionary&) = delete;
  TripleDictionary(TripleDictionary&&) = default;
  TripleDictionary& operator=(TripleDictionary&&) = default;

  /// Must be called before any other method; the interner must outlive
  /// the dictionary (Dataset owns both).
  void BindInterner(StringInterner* interner) { interner_ = interner; }

  /// Returns the id for `t`, adding it if new. Requires a built index.
  TripleId Intern(const TripleView& t);

  /// Returns the id for `t` or kInvalidTriple. Requires a built index.
  TripleId Lookup(const TripleView& t) const;

  TripleView Get(TripleId id) const;

  size_t size() const { return subjects_.size(); }

  // ---- Columnar access (persistence + attach) ----

  Span<StringRef> subjects() const { return subjects_.span(); }
  Span<StringRef> predicates() const { return predicates_.span(); }
  Span<StringRef> objects() const { return objects_.span(); }

  /// Binds the columns to externally owned ref arrays (snapshot attach).
  /// Leaves the index unbuilt; call BuildIndex before the first lookup.
  void AttachColumns(const StringRef* subjects, const StringRef* predicates,
                     const StringRef* objects, size_t n);

  /// Promotes borrowed columns to owned storage (copy-on-write).
  void EnsureOwned();

  bool index_built() const { return index_built_; }

  /// Rebuilds the id index from the columns and re-registers every field
  /// string with the interner. O(size).
  void BuildIndex();

  size_t column_owned_bytes() const {
    return subjects_.owned_bytes() + predicates_.owned_bytes() +
           objects_.owned_bytes();
  }
  /// Slots plus their tags.
  size_t index_bytes() const {
    return slots_.size() * (sizeof(uint32_t) + sizeof(uint8_t));
  }
  bool columns_borrowed() const { return subjects_.borrowed(); }

 private:
  uint64_t HashRefs(StringRef s, StringRef p, StringRef o) const;
  /// Linear probe for the refs from the home slot of `hash`: true with
  /// *slot at their entry, or false with *slot at the empty slot that
  /// ends the run.
  bool Probe(StringRef s, StringRef p, StringRef o, uint64_t hash,
             size_t* slot) const;
  uint64_t HashOf(TripleId id) const {
    return HashRefs(subjects_[id], predicates_[id], objects_[id]);
  }
  void MaybeGrow();
  /// Inserts every id into an empty table of the current capacity.
  void InsertAll();

  StringInterner* interner_ = nullptr;
  Column<StringRef> subjects_;
  Column<StringRef> predicates_;
  Column<StringRef> objects_;
  std::vector<uint32_t> slots_;
  std::vector<uint8_t> tags_;  // SlotTag per slot; kEmptySlotTag if free
  bool index_built_ = true;  // empty dictionaries are trivially indexed
};

}  // namespace fuser

#endif  // FUSER_MODEL_TRIPLE_H_
