// Column<T> and CsrTable<T>: flat columnar storage with copy-on-write
// attach semantics.
//
// Both containers have two storage states:
//   * owned  — a std::vector holds the data (the normal mutable state);
//   * borrowed — the data pointer aims into an external image (an mmap'd
//     snapshot section). Every mutator promotes to owned first
//     (EnsureOwned copies the borrowed bytes), so attaching a snapshot is
//     O(1) per column and the first streamed batch pays the copy — the
//     copy-on-write promotion contract of Dataset::ApplyBatch.
//
// CsrTable is the CSR ("compressed sparse row") replacement for
// vector<vector<Id>>: per-row (offset, count) into one shared pool. Rows
// support sorted insertion by rewriting the row at the pool tail; the
// abandoned bytes are tracked as garbage and compacted once they exceed
// the live size (amortized O(1) per insert).
#ifndef FUSER_COMMON_COLUMN_H_
#define FUSER_COMMON_COLUMN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/span.h"

namespace fuser {

template <typename T>
class Column {
  static_assert(std::is_trivially_copyable<T>::value,
                "columns hold raw-serializable values");

 public:
  Column() = default;
  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;
  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* data() const { return data_; }
  const T& operator[](size_t i) const { return data_[i]; }
  Span<T> span() const { return Span<T>(data_, size_); }

  void push_back(T v) {
    EnsureOwned();
    vec_.push_back(v);
    Sync();
  }

  void Set(size_t i, T v) {
    FUSER_CHECK_LT(i, size_);
    EnsureOwned();
    vec_[i] = v;
  }

  void reserve(size_t n) {
    EnsureOwned();
    vec_.reserve(n);
    Sync();
  }

  /// Binds the column to `n` externally owned elements (snapshot attach).
  void Attach(const T* data, size_t n) {
    vec_.clear();
    vec_.shrink_to_fit();
    data_ = data;
    size_ = n;
    borrowed_ = true;
  }

  /// Copies borrowed storage into an owned vector; no-op when owned.
  void EnsureOwned() {
    if (!borrowed_) return;
    vec_.assign(data_, data_ + size_);
    borrowed_ = false;
    Sync();
  }

  bool borrowed() const { return borrowed_; }

  /// Heap bytes owned by this column (borrowed storage counts as zero).
  size_t owned_bytes() const { return vec_.capacity() * sizeof(T); }

 private:
  void Sync() {
    data_ = vec_.data();
    size_ = vec_.size();
  }

  std::vector<T> vec_;
  const T* data_ = nullptr;
  size_t size_ = 0;
  bool borrowed_ = false;
};

template <typename T>
class CsrTable {
  static_assert(std::is_trivially_copyable<T>::value,
                "CSR pools hold raw-serializable values");

 public:
  CsrTable() = default;
  CsrTable(const CsrTable&) = delete;
  CsrTable& operator=(const CsrTable&) = delete;
  CsrTable(CsrTable&&) = default;
  CsrTable& operator=(CsrTable&&) = default;

  size_t num_rows() const { return rows_; }
  size_t pool_size() const { return pool_len_; }
  size_t garbage() const { return garbage_; }
  bool borrowed() const { return borrowed_; }

  Span<T> row(size_t r) const {
    FUSER_CHECK_LT(r, rows_);
    return Span<T>(pool_ + offsets_[r], counts_[r]);
  }

  // ---- Two-pass bulk build (Finalize) ----

  /// Resets to an owned table with the given row sizes; rows are then
  /// populated in any order via Fill.
  void ResetWithCounts(const std::vector<uint32_t>& counts) {
    rows_ = counts.size();
    offs_v_.resize(rows_);
    cnts_v_.assign(counts.begin(), counts.end());
    uint64_t total = 0;
    for (size_t r = 0; r < rows_; ++r) {
      offs_v_[r] = total;
      total += counts[r];
    }
    pool_v_.assign(total, T{});
    cursor_ = offs_v_;
    live_ = total;
    garbage_ = 0;
    borrowed_ = false;
    Sync();
  }

  /// Appends `v` at row `r`'s next free slot (build phase only).
  void Fill(size_t r, T v) { pool_v_[cursor_[r]++] = v; }

  /// Ends the build phase; verifies every row was filled exactly.
  void FinishFill() {
    for (size_t r = 0; r < rows_; ++r) {
      FUSER_CHECK(cursor_[r] == offs_v_[r] + cnts_v_[r])
          << "CSR row " << r << " not fully filled";
    }
    cursor_.clear();
    cursor_.shrink_to_fit();
  }

  // ---- Row-order bulk build (Finalize) ----

  /// Resets to an empty owned table, reserving `rows` rows and a pool of
  /// `pool_size`; PushRow then appends the rows in order.
  void ResetForRows(size_t rows, size_t pool_size) {
    offs_v_.clear();
    offs_v_.reserve(rows);
    cnts_v_.clear();
    cnts_v_.reserve(rows);
    pool_v_.clear();
    pool_v_.reserve(pool_size);
    rows_ = 0;
    live_ = 0;
    garbage_ = 0;
    borrowed_ = false;
    Sync();
  }

  /// Appends one row holding values[0, n).
  void PushRow(const T* values, size_t n) {
    offs_v_.push_back(pool_v_.size());
    cnts_v_.push_back(static_cast<uint32_t>(n));
    pool_v_.insert(pool_v_.end(), values, values + n);
    ++rows_;
    live_ += n;
    Sync();
  }

  // ---- Streaming mutation (ApplyBatch) ----

  /// Appends `n` empty rows.
  void AppendRows(size_t n) {
    EnsureOwned();
    rows_ += n;
    offs_v_.resize(rows_, pool_v_.size());
    cnts_v_.resize(rows_, 0);
    Sync();
  }

  /// Inserts `v` into row `r` keeping it sorted ascending. The caller
  /// guarantees `v` is not already present. A row at the pool tail grows
  /// in place; any other row is rewritten at the tail and its old bytes
  /// become garbage (reclaimed by MaybeCompact).
  void InsertSorted(size_t r, T v) {
    EnsureOwned();
    FUSER_CHECK_LT(r, rows_);
    const size_t off = static_cast<size_t>(offs_v_[r]);
    const size_t cnt = cnts_v_[r];
    size_t idx = static_cast<size_t>(
        std::lower_bound(pool_v_.begin() + off, pool_v_.begin() + off + cnt,
                         v) -
        pool_v_.begin());
    if (off + cnt == pool_v_.size()) {
      pool_v_.insert(pool_v_.begin() + idx, v);
    } else {
      const size_t new_off = pool_v_.size();
      pool_v_.resize(new_off + cnt + 1);
      T* p = pool_v_.data();
      std::copy(p + off, p + idx, p + new_off);
      p[new_off + (idx - off)] = v;
      std::copy(p + idx, p + off + cnt, p + new_off + (idx - off) + 1);
      offs_v_[r] = new_off;
      garbage_ += cnt;
    }
    cnts_v_[r] = static_cast<uint32_t>(cnt + 1);
    ++live_;
    Sync();
  }

  /// Compacts when abandoned bytes exceed the live payload (amortized
  /// O(1) per InsertSorted).
  void MaybeCompact() {
    if (garbage_ > live_ && garbage_ > 4096) Compact();
  }

  void Compact() {
    if (borrowed_ || garbage_ == 0) return;
    std::vector<T> fresh;
    fresh.reserve(live_);
    for (size_t r = 0; r < rows_; ++r) {
      const size_t off = static_cast<size_t>(offs_v_[r]);
      offs_v_[r] = fresh.size();
      fresh.insert(fresh.end(), pool_v_.begin() + off,
                   pool_v_.begin() + off + cnts_v_[r]);
    }
    pool_v_ = std::move(fresh);
    garbage_ = 0;
    Sync();
  }

  // ---- Attach / promote (persistence) ----

  /// Binds the table to externally owned compact arrays (snapshot attach).
  void Attach(const uint64_t* offsets, const uint32_t* counts, const T* pool,
              size_t rows, size_t pool_len) {
    offs_v_.clear();
    offs_v_.shrink_to_fit();
    cnts_v_.clear();
    cnts_v_.shrink_to_fit();
    pool_v_.clear();
    pool_v_.shrink_to_fit();
    offsets_ = offsets;
    counts_ = counts;
    pool_ = pool;
    rows_ = rows;
    pool_len_ = pool_len;
    live_ = pool_len;
    garbage_ = 0;
    borrowed_ = true;
  }

  void EnsureOwned() {
    if (!borrowed_) return;
    offs_v_.assign(offsets_, offsets_ + rows_);
    cnts_v_.assign(counts_, counts_ + rows_);
    pool_v_.assign(pool_, pool_ + pool_len_);
    borrowed_ = false;
    Sync();
  }

  /// Direct array access for the snapshot writer's fast path (valid for
  /// bulk writes only when garbage() == 0: relocation-free tables keep
  /// the pool in row order).
  const uint64_t* offsets_data() const { return offsets_; }
  const uint32_t* counts_data() const { return counts_; }
  const T* pool_data() const { return pool_; }
  /// Live elements (pool_size() minus garbage).
  size_t live_size() const { return live_; }

  /// Heap bytes owned by this table (borrowed storage counts as zero).
  size_t owned_bytes() const {
    return offs_v_.capacity() * sizeof(uint64_t) +
           cnts_v_.capacity() * sizeof(uint32_t) +
           pool_v_.capacity() * sizeof(T) + cursor_.capacity() * sizeof(uint64_t);
  }

 private:
  void Sync() {
    offsets_ = offs_v_.data();
    counts_ = cnts_v_.data();
    pool_ = pool_v_.data();
    pool_len_ = pool_v_.size();
  }

  std::vector<uint64_t> offs_v_;
  std::vector<uint32_t> cnts_v_;
  std::vector<T> pool_v_;
  std::vector<uint64_t> cursor_;  // build phase only

  const uint64_t* offsets_ = nullptr;
  const uint32_t* counts_ = nullptr;
  const T* pool_ = nullptr;
  size_t rows_ = 0;
  size_t pool_len_ = 0;
  size_t live_ = 0;
  size_t garbage_ = 0;
  bool borrowed_ = false;
};

}  // namespace fuser

#endif  // FUSER_COMMON_COLUMN_H_
