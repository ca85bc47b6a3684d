// The field map of a record: walks the record's field list
// (persist/binary_io.h) exactly as persist::FieldWriter encodes it and
// notes where each field starts. Tests that rewrite one field of a saved
// file or frame take its offset from here instead of counting bytes by
// hand, so the offsets follow the field lists the codecs use.
#ifndef FUSER_TESTS_SUPPORT_FIELD_OFFSETS_H_
#define FUSER_TESTS_SUPPORT_FIELD_OFFSETS_H_

#include <cstddef>
#include <map>

#include "common/logging.h"
#include "persist/binary_io.h"

namespace fuser {

class FieldOffsets {
 public:
  /// Encodes `record`, noting the offset of every field at any depth. The
  /// record must outlive the queries: fields are found by address.
  template <class R>
  explicit FieldOffsets(const R& record) {
    (*this)(record);
  }

  /// Offset of `field` (a field of the record, or of a record inside it)
  /// from the start of the record's encoding.
  size_t Of(const void* field) const {
    const auto it = offsets_.find(field);
    FUSER_CHECK(it != offsets_.end());
    return it->second;
  }

  /// The record's encoded size in bytes.
  size_t size() const { return sink_.size(); }

  template <class T>
  void operator()(const T& field) {
    offsets_.emplace(static_cast<const void*>(&field), sink_.size());
    if constexpr (persist::kIsRecordField<T>) {
      VisitFields(*this, field);
    } else if constexpr (IsRecordVector<T>()) {
      sink_.WriteU64(field.size());
      for (const auto& element : field) (*this)(element);
    } else {
      persist::FieldWriter writer(&sink_);
      writer(field);
    }
  }

 private:
  template <class T>
  static constexpr bool IsRecordVector() {
    if constexpr (persist::IsVectorField<T>::value) {
      return persist::kIsRecordField<typename T::value_type>;
    } else {
      return false;
    }
  }

  persist::ByteSink sink_;
  std::map<const void*, size_t> offsets_;
};

}  // namespace fuser

#endif  // FUSER_TESTS_SUPPORT_FIELD_OFFSETS_H_
