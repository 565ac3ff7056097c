// A mutable set of fixed-width rows of dictionary codes.
//
// The delta evaluator (engine/delta_eval.h) keeps every node's output, join
// mirror and division counters in CodeRows, and the enumeration drivers keep
// their alive, union, entry and hit sets in them; all rows of one query are
// encoded against one dictionary, so equal codes are equal values. Each row
// lives in a slot of one flat arena, `width` codes per slot; a slot id is
// stable while its row is in the set, so callers keep per-row data in
// arrays indexed by slot (sized to slot_bound()). Erased slots are reused,
// and the index is open addressing with linear probing whose erasure shifts
// later entries back instead of leaving tombstones: once a set has grown to
// its peak size, inserting, erasing and clearing allocate nothing.
//
// Thread-compatible: readers may share a set that no one mutates.

#ifndef INCDB_CORE_CODE_ROWS_H_
#define INCDB_CORE_CODE_ROWS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace incdb {

class CodeRows {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  explicit CodeRows(size_t width = 0) : width_(width) {}

  size_t width() const { return width_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Every slot in use is below this.
  size_t slot_bound() const { return hashes_.size(); }

  /// The codes of the row in `slot`; valid until that slot is reused.
  const uint32_t* Row(uint32_t slot) const {
    return cells_.data() + static_cast<size_t>(slot) * width_;
  }

  /// The slot of `row`, or kNone.
  uint32_t Find(const uint32_t* row) const {
    if (size_ == 0) return kNone;
    const uint64_t h = Hash(row);
    for (size_t pos = Home(h);; pos = (pos + 1) & mask_) {
      const uint32_t s = index_[pos];
      if (s == kNone) return kNone;
      if (hashes_[s] == h && Equal(s, row)) return s;
    }
  }
  bool Contains(const uint32_t* row) const { return Find(row) != kNone; }

  /// The slot of `row`, inserting the row when it is absent; `*inserted`
  /// tells which.
  uint32_t Insert(const uint32_t* row, bool* inserted) {
    if ((size_ + 1) * 2 > index_.size()) Grow();
    const uint64_t h = Hash(row);
    size_t pos = Home(h);
    for (;; pos = (pos + 1) & mask_) {
      const uint32_t s = index_[pos];
      if (s == kNone) break;
      if (hashes_[s] == h && Equal(s, row)) {
        *inserted = false;
        return s;
      }
    }
    uint32_t s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
    } else {
      s = static_cast<uint32_t>(hashes_.size());
      hashes_.push_back(0);
      cells_.resize(cells_.size() + width_);
    }
    hashes_[s] = h;
    std::copy(row, row + width_, cells_.begin() + s * width_);
    index_[pos] = s;
    ++size_;
    *inserted = true;
    return s;
  }
  void Insert(const uint32_t* row) {
    bool inserted;
    Insert(row, &inserted);
  }

  /// Removes the row in `slot`, which must be in use.
  void Erase(uint32_t slot) {
    size_t hole = Home(hashes_[slot]);
    while (index_[hole] != slot) hole = (hole + 1) & mask_;
    // Shift back every later entry of the run whose home does not lie
    // strictly between the hole and it, so no probe stops short.
    for (size_t next = (hole + 1) & mask_;; next = (next + 1) & mask_) {
      const uint32_t s = index_[next];
      if (s == kNone) break;
      if (((next - Home(hashes_[s])) & mask_) >= ((next - hole) & mask_)) {
        index_[hole] = s;
        hole = next;
      }
    }
    index_[hole] = kNone;
    hashes_[slot] = 0;
    free_.push_back(slot);
    --size_;
  }
  /// Removes `row` if present; returns whether it was.
  bool EraseRow(const uint32_t* row) {
    const uint32_t s = Find(row);
    if (s == kNone) return false;
    Erase(s);
    return true;
  }

  /// Calls fn(slot) for every row in the set.
  template <class Fn>
  void ForEach(Fn fn) const {
    for (size_t s = 0; s < hashes_.size(); ++s) {
      if (hashes_[s] != 0) fn(static_cast<uint32_t>(s));
    }
  }

  /// Empties the set, keeping its capacity. Costs O(size) when the set is
  /// small against its index, so a scratch set cleared every step stays
  /// cheap after one large step.
  void Clear() {
    if (size_ * 4 < index_.size()) {
      for (size_t s = 0; s < hashes_.size(); ++s) {
        if (hashes_[s] == 0) continue;
        size_t pos = Home(hashes_[s]);
        while (index_[pos] != s) pos = (pos + 1) & mask_;
        index_[pos] = kNone;
      }
    } else {
      std::fill(index_.begin(), index_.end(), kNone);
    }
    hashes_.clear();
    cells_.clear();
    free_.clear();
    size_ = 0;
  }

 private:
  // Never 0, which marks a free slot.
  uint64_t Hash(const uint32_t* row) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t c = 0; c < width_; ++c) {
      h = (h ^ row[c]) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    return h | (uint64_t{1} << 63);
  }

  size_t Home(uint64_t h) const {
    return static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  bool Equal(uint32_t slot, const uint32_t* row) const {
    const uint32_t* cells = Row(slot);
    for (size_t c = 0; c < width_; ++c) {
      if (cells[c] != row[c]) return false;
    }
    return true;
  }

  void Grow() {
    const size_t capacity = std::max<size_t>(16, index_.size() * 2);
    index_.assign(capacity, kNone);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (size_t s = 0; s < hashes_.size(); ++s) {
      if (hashes_[s] == 0) continue;
      size_t pos = Home(hashes_[s]);
      while (index_[pos] != kNone) pos = (pos + 1) & mask_;
      index_[pos] = static_cast<uint32_t>(s);
    }
  }

  size_t width_;
  size_t size_ = 0;
  std::vector<uint32_t> cells_;   // width_ codes per slot
  std::vector<uint64_t> hashes_;  // per slot; 0 while the slot is free
  std::vector<uint32_t> free_;    // free slots below hashes_.size()
  std::vector<uint32_t> index_;   // slot ids, kNone where empty
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace incdb

#endif  // INCDB_CORE_CODE_ROWS_H_
