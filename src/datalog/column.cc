#include "datalog/column.h"

#include <algorithm>
#include <bit>

namespace mdqa::datalog {

uint32_t Column::Append(Term t, bool* new_code) {
  const uint32_t row = static_cast<uint32_t>(codes_.size());
  const uint32_t key = FlatRowIndex::Key(HashTerm(t));
  // The key is lossy: only a dictionary-verified candidate counts.
  const int64_t found =
      encode_.Find(key, [&](uint32_t code) { return dict_[code] == t; });
  const bool fresh = found < 0;
  uint32_t code;
  if (fresh) {
    code = static_cast<uint32_t>(dict_.size());
    dict_.push_back(t);
    postings_.push_back({1, row});
    encode_.Insert(key, code);
  } else {
    code = static_cast<uint32_t>(found);
    Posting& p = postings_[code];
    if (p.count == 1) {
      // Promoted from seen-once: the inline row moves into a block.
      const uint32_t block = AllocBlock(1);
      pool_[block] = p.at;
      pool_[block + 1] = row;
      p.at = block;
    } else if (std::has_single_bit(p.count)) {
      // Block full: relocate into one of twice the capacity.
      const unsigned log2_cap =
          static_cast<unsigned>(std::countr_zero(p.count));
      const uint32_t block = AllocBlock(log2_cap + 1);
      std::copy_n(pool_.begin() + p.at, p.count, pool_.begin() + block);
      FreeBlock(p.at, log2_cap);
      pool_[block + p.count] = row;
      p.at = block;
    } else {
      pool_[p.at + p.count] = row;
    }
    ++p.count;
  }
  codes_.push_back(code);
  if (new_code != nullptr) *new_code = fresh;
  return code;
}

uint32_t Column::AllocBlock(unsigned log2_cap) {
  uint32_t& head = free_blocks_[log2_cap];
  if (head != 0) {
    const uint32_t block = head - 1;
    head = pool_[block];
    return block;
  }
  const uint32_t block = static_cast<uint32_t>(pool_.size());
  pool_.resize(pool_.size() + (size_t{1} << log2_cap));
  return block;
}

void Column::FreeBlock(uint32_t at, unsigned log2_cap) {
  pool_[at] = free_blocks_[log2_cap];
  free_blocks_[log2_cap] = at + 1;
}

uint32_t Column::CodeOf(Term t) const {
  const int64_t code = encode_.Find(FlatRowIndex::Key(HashTerm(t)),
                                    [&](uint32_t c) { return dict_[c] == t; });
  return code < 0 ? kNoCode : static_cast<uint32_t>(code);
}

uint64_t Column::MemoryEstimateBytes() const {
  return codes_.capacity() * sizeof(uint32_t) +
         dict_.capacity() * sizeof(Term) +
         postings_.capacity() * sizeof(Posting) +
         pool_.capacity() * sizeof(uint32_t) + encode_.MemoryEstimateBytes();
}

}  // namespace mdqa::datalog
