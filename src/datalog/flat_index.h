#ifndef MDQA_DATALOG_FLAT_INDEX_H_
#define MDQA_DATALOG_FLAT_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/intern.h"
#include "datalog/term.h"

namespace mdqa::datalog {

/// Open-addressing hash index of row ordinals: one flat power-of-two
/// array of 8-byte slots (32-bit key, 32-bit ordinal), linear probing,
/// at most half full. The rows themselves live with the caller; a key
/// match is only a candidate, and `Find` asks the caller to confirm it by
/// full-row equality, so colliding keys never alias two rows. Copying the
/// index is one vector copy.
class FlatRowIndex {
 public:
  /// Mixes a 64-bit row hash into the 32-bit key rows are filed under
  /// (murmur3's finalizer: every input bit reaches the probe position).
  static uint32_t Key(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return static_cast<uint32_t>(h >> 32);
  }

  /// The ordinal filed under `key` for which `same(ordinal)` holds, or -1.
  template <typename Same>
  int64_t Find(uint32_t key, const Same& same) const {
    if (slots_.empty()) return -1;
    const size_t mask = slots_.size() - 1;
    for (size_t i = key & mask;; i = (i + 1) & mask) {
      const uint64_t slot = slots_[i];
      if (slot == kEmpty) return -1;
      const uint32_t ordinal = static_cast<uint32_t>(slot);
      if (static_cast<uint32_t>(slot >> 32) == key && same(ordinal)) {
        return ordinal;
      }
    }
  }

  /// Files `ordinal` under `key`; the caller has checked it is absent.
  void Insert(uint32_t key, uint32_t ordinal) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    Place(key, ordinal);
    ++size_;
  }

  size_t size() const { return size_; }

  uint64_t MemoryEstimateBytes() const {
    return slots_.capacity() * sizeof(uint64_t);
  }

 private:
  static constexpr uint64_t kEmpty = ~0ull;

  void Place(uint32_t key, uint32_t ordinal) {
    const size_t mask = slots_.size() - 1;
    size_t i = key & mask;
    while (slots_[i] != kEmpty) i = (i + 1) & mask;
    slots_[i] = (static_cast<uint64_t>(key) << 32) | ordinal;
  }

  // Keys carry their own probe position, so a rehash never touches rows.
  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, old.size() * 2), kEmpty);
    for (uint64_t slot : old) {
      if (slot != kEmpty) {
        Place(static_cast<uint32_t>(slot >> 32), static_cast<uint32_t>(slot));
      }
    }
  }

  std::vector<uint64_t> slots_;
  size_t size_ = 0;
};

/// A set of fixed-width term tuples kept back to back in one flat arena,
/// deduplicated on insert by a FlatRowIndex. The chase collects each
/// rule's frontier projections here; width 0 (an empty frontier) holds at
/// most the one empty tuple.
class TupleSet {
 public:
  explicit TupleSet(size_t width) : width_(width) {}

  size_t width() const { return width_; }
  size_t size() const { return count_; }

  /// The `width()` terms of tuple `i` (insertion order).
  const Term* at(uint32_t i) const { return arena_.data() + i * width_; }

  /// Adds `tuple` (`width()` terms); true if it was new.
  bool Insert(const Term* tuple) {
    size_t h = width_;
    for (size_t i = 0; i < width_; ++i) HashCombine(&h, TermHash{}(tuple[i]));
    const uint32_t key = FlatRowIndex::Key(h);
    const auto same = [&](uint32_t i) {
      return std::equal(tuple, tuple + width_, at(i));
    };
    if (index_.Find(key, same) >= 0) return false;
    arena_.insert(arena_.end(), tuple, tuple + width_);
    index_.Insert(key, count_++);
    return true;
  }

  /// Adds every tuple of `other` (same width), in its insertion order.
  void InsertAll(const TupleSet& other) {
    for (uint32_t i = 0; i < other.size(); ++i) Insert(other.at(i));
  }

  /// Tuple ordinals in lexicographic tuple order (Term::operator<, which
  /// orders terms as their Term::Key does).
  std::vector<uint32_t> SortedOrder() const {
    // Sorting contiguous records keyed on the first two terms touches the
    // arena only on ties in both.
    struct Rec {
      uint64_t k0, k1;
      uint32_t ordinal;
    };
    std::vector<Rec> recs(count_);
    for (uint32_t i = 0; i < count_; ++i) {
      const Term* t = at(i);
      recs[i] = {width_ > 0 ? t[0].Key() : 0, width_ > 1 ? t[1].Key() : 0, i};
    }
    std::sort(recs.begin(), recs.end(), [this](const Rec& a, const Rec& b) {
      if (a.k0 != b.k0) return a.k0 < b.k0;
      if (a.k1 != b.k1) return a.k1 < b.k1;
      const Term* x = at(a.ordinal);
      const Term* y = at(b.ordinal);
      for (size_t i = 2; i < width_; ++i) {
        if (x[i] != y[i]) return x[i] < y[i];
      }
      return false;
    });
    std::vector<uint32_t> order(count_);
    for (uint32_t i = 0; i < count_; ++i) order[i] = recs[i].ordinal;
    return order;
  }

 private:
  size_t width_;
  uint32_t count_ = 0;
  std::vector<Term> arena_;
  FlatRowIndex index_;
};

}  // namespace mdqa::datalog

#endif  // MDQA_DATALOG_FLAT_INDEX_H_
