#ifndef MDQA_DATALOG_COLUMN_H_
#define MDQA_DATALOG_COLUMN_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "datalog/flat_index.h"
#include "datalog/term.h"

namespace mdqa::datalog {

/// One position of one storage segment: a dictionary-encoded term column.
/// Every appended term is interned into a segment-local dictionary and the
/// column stores only its 4-byte code, plus the postings of each code (the
/// ascending segment-local rows holding that term). Equality probes and
/// join verification then run on contiguous `uint32_t` code arrays instead
/// of hashed term handles — the VLog-style layout that makes the
/// dimensional-navigation joins of the OMD assessment cheap.
///
/// Appending never allocates per distinct term: the encode index is one
/// flat open-addressing array (FlatRowIndex), a code seen once keeps its
/// row inline in its 8-byte postings entry, and only a repeated code owns
/// a block of the shared postings pool (power-of-two capacities, grown by
/// relocation, outgrown blocks recycled through per-size free lists).
/// Every structure is a flat vector, so copying a column is a handful of
/// vector copies and only amortised vector growth ever allocates.
///
/// The encode index is keyed by a *lossy* term hash, so a probe can hit
/// a slot filed for a different term; `CodeOf` therefore verifies every
/// candidate code against the dictionary term before trusting it — a
/// colliding key must never alias two terms (the row-store dedup table
/// has the same discipline). Tests force total collision through
/// `set_hash_mask_for_test` to keep the verification load-bearing.
class Column {
 public:
  /// Sentinel returned by `CodeOf` when the term is not in the dictionary.
  static constexpr uint32_t kNoCode = 0xffffffffu;

  /// Appends `t` as the next row, interning it into the dictionary.
  /// Returns its code; `*new_code` (when non-null) is set to whether the
  /// term was new to this column's dictionary.
  uint32_t Append(Term t, bool* new_code = nullptr);

  /// Rows appended so far.
  size_t size() const { return codes_.size(); }

  uint32_t CodeAt(uint32_t row) const { return codes_[row]; }
  Term TermAt(uint32_t row) const { return dict_[codes_[row]]; }
  Term TermOfCode(uint32_t code) const { return dict_[code]; }

  /// Distinct terms in this column (the dictionary size).
  size_t DistinctTerms() const { return dict_.size(); }

  /// Dictionary code of `t`, or kNoCode when absent. Index candidates
  /// are verified against the dictionary (see class comment).
  uint32_t CodeOf(Term t) const;

  /// Ascending segment-local rows whose term has `code`. The span is
  /// valid until the next `Append` to this column.
  std::span<const uint32_t> Postings(uint32_t code) const {
    const Posting& p = postings_[code];
    if (p.count == 1) return {&p.at, 1};
    return {pool_.data() + p.at, p.count};
  }

  /// Capacity-based heap estimate (codes, dictionary, postings, encode
  /// index) for the execution budget's memory accounting.
  uint64_t MemoryEstimateBytes() const;

  /// Test-only: masks the encode-index hash so distinct terms collide
  /// (mask 0 files every term under one key). Call on an empty column —
  /// changing the mask after appends would orphan existing entries.
  void set_hash_mask_for_test(uint64_t mask) { hash_mask_ = mask; }

 private:
  // A code's postings: with `count == 1`, `at` is the row itself;
  // otherwise `at` is the offset of a pool block of capacity
  // bit_ceil(count) holding the rows.
  struct Posting {
    uint32_t count;
    uint32_t at;
  };

  uint64_t HashTerm(Term t) const { return TermHash{}(t) & hash_mask_; }
  /// Offset of a free pool block of capacity 2^log2_cap.
  uint32_t AllocBlock(unsigned log2_cap);
  void FreeBlock(uint32_t at, unsigned log2_cap);

  std::vector<uint32_t> codes_;     // row -> code
  std::vector<Term> dict_;          // code -> term
  std::vector<Posting> postings_;   // code -> rows (inline or pool block)
  std::vector<uint32_t> pool_;      // blocks of repeated codes' rows
  // Per capacity class 2^k, a free-block list: offset + 1 of the first
  // free block, whose first slot links the next the same way; 0 ends it.
  std::array<uint32_t, 32> free_blocks_{};
  FlatRowIndex encode_;             // masked term hash -> code
  uint64_t hash_mask_ = ~0ull;
};

}  // namespace mdqa::datalog

#endif  // MDQA_DATALOG_COLUMN_H_
