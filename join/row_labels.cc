// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "join/row_labels.h"

namespace maimon {
namespace {

constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;
constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;

inline uint64_t MixIn(uint64_t h, uint32_t code) {
  h = (h ^ code) * kMul;
  return h ^ (h >> 29);
}

inline bool SameCodes(const std::vector<const uint32_t*>& cols, size_t a,
                      size_t b) {
  for (const uint32_t* col : cols) {
    if (col[a] != col[b]) return false;
  }
  return true;
}

}  // namespace

RowLabels LabelRows(const Relation& relation, AttrSet attrs) {
  const size_t n = relation.NumRows();
  RowLabels out;
  out.labels.resize(n);
  if (n == 0) return out;
  std::vector<const uint32_t*> cols;
  for (int c : attrs.ToVector()) cols.push_back(relation.Column(c).data());

  // Row hashes, one column at a time, so each column is read sequentially.
  std::vector<uint64_t> hash(n, 0);
  for (const uint32_t* col : cols) {
    for (size_t r = 0; r < n; ++r) hash[r] = MixIn(hash[r], col[r]);
  }

  // Open addressing at load <= 1/2; a slot holds the id of the first row
  // with its tuple, and a probe compares hashes before codes.
  size_t capacity = 16;
  while (capacity < 2 * n) capacity <<= 1;
  const size_t mask = capacity - 1;
  const int shift = 64 - __builtin_ctzll(capacity);
  std::vector<uint32_t> slots(capacity, kEmptySlot);
  for (size_t r = 0; r < n; ++r) {
    const uint64_t h = hash[r];
    for (size_t i = static_cast<size_t>((h * kMul) >> shift);;
         i = (i + 1) & mask) {
      const uint32_t id = slots[i];
      if (id == kEmptySlot) {
        slots[i] = static_cast<uint32_t>(out.first_rows.size());
        out.labels[r] = slots[i];
        out.first_rows.push_back(static_cast<uint32_t>(r));
        break;
      }
      const uint32_t first = out.first_rows[id];
      if (hash[first] == h && SameCodes(cols, first, r)) {
        out.labels[r] = id;
        break;
      }
    }
  }
  return out;
}

const RowLabels& RowLabelMemo::Of(AttrSet attrs) {
  Entry* entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<Entry>& slot = entries_[attrs.bits()];
    if (slot == nullptr) slot = std::make_unique<Entry>();
    entry = slot.get();
  }
  std::call_once(entry->once,
                 [&] { entry->labels = LabelRows(relation_, attrs); });
  return entry->labels;
}

size_t RowLabelMemo::NumLabeled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace maimon
