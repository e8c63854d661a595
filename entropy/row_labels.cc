// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "entropy/row_labels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

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

// Open addressing at load <= 1/2: the smallest power of two that holds
// twice `entries`, and the shift that maps a 64-bit hash onto it.
inline size_t TableCapacity(size_t entries, int* shift) {
  size_t capacity = 16;
  while (capacity < 2 * entries) capacity <<= 1;
  *shift = 64 - __builtin_ctzll(capacity);
  return capacity;
}

// H from the rows of each id. Sums once per distinct row count, in
// ascending order, with the one-row ids last. FP addition is not
// associative, so one fixed order is what makes H a pure function of the
// partition: a labeling computed by any path (fold, LabelRows, any cached
// subset) gives a bit-identical H, which the thread-count-invariance
// contract leans on. It also costs one log2 per distinct count rather than
// one per id.
double EntropyOfCounts(const uint32_t* counts, size_t num_ids,
                       size_t num_rows, FoldScratch* scratch) {
  if (num_rows == 0) return 0.0;
  FoldScratch& s = *scratch;
  if (s.size_counts.size() < num_rows + 1) {
    s.size_counts.resize(num_rows + 1, 0);
  }
  size_t grouped_rows = 0;  // rows whose id holds two or more rows
  for (size_t id = 0; id < num_ids; ++id) {
    const uint32_t c = counts[id];
    if (c < 2) continue;
    grouped_rows += c;
    if (s.size_counts[c]++ == 0) s.sizes_seen.push_back(c);
  }
  const double n = static_cast<double>(num_rows);
  const double log2n = std::log2(n);
  std::sort(s.sizes_seen.begin(), s.sizes_seen.end());
  double h = 0.0;
  for (uint32_t size : s.sizes_seen) {
    const double c = static_cast<double>(size);
    // -(c/n) log2(c/n) = (c/n) (log2 n - log2 c), once per distinct size.
    h += static_cast<double>(s.size_counts[size]) *
         ((c / n) * (log2n - std::log2(c)));
    s.size_counts[size] = 0;
  }
  s.sizes_seen.clear();
  h += static_cast<double>(num_rows - grouped_rows) / n * log2n;
  return h;
}

}  // namespace

RowLabels LabelRows(const Relation& relation, AttrSet attrs,
                    std::vector<uint32_t>* first_rows) {
  const size_t n = relation.NumRows();
  RowLabels out;
  out.labels.resize(n);
  std::vector<uint32_t> local_first;
  std::vector<uint32_t>& first_of = first_rows != nullptr ? *first_rows
                                                          : local_first;
  first_of.clear();
  if (n == 0) return out;
  std::vector<const uint32_t*> cols;
  for (int c : attrs.ToVector()) cols.push_back(relation.Column(c).data());

  // Row hashes, one column at a time, so each column is read sequentially.
  std::vector<uint64_t> hash(n, 0);
  for (const uint32_t* col : cols) {
    for (size_t r = 0; r < n; ++r) hash[r] = MixIn(hash[r], col[r]);
  }

  // A slot holds the id of the first row with its tuple; a probe compares
  // hashes before codes.
  int shift = 0;
  const size_t mask = TableCapacity(n, &shift) - 1;
  std::vector<uint32_t> slots(mask + 1, kEmptySlot);
  for (size_t r = 0; r < n; ++r) {
    const uint64_t h = hash[r];
    for (size_t i = static_cast<size_t>((h * kMul) >> shift);;
         i = (i + 1) & mask) {
      const uint32_t id = slots[i];
      if (id == kEmptySlot) {
        slots[i] = static_cast<uint32_t>(first_of.size());
        out.labels[r] = slots[i];
        first_of.push_back(static_cast<uint32_t>(r));
        break;
      }
      const uint32_t first = first_of[id];
      if (hash[first] == h && SameCodes(cols, first, r)) {
        out.labels[r] = id;
        break;
      }
    }
  }
  out.num_distinct = first_of.size();
  return out;
}

double FoldLabels(const RowLabels& x, const RowLabels& column,
                  FoldScratch* scratch, RowLabels* out) {
  assert(out != &x && out != &column);
  assert(x.labels.size() == column.labels.size());
  const size_t n = x.labels.size();
  out->labels.resize(n);
  uint32_t* const dst = out->labels.data();
  if (x.num_distinct == n || column.num_distinct == n) {
    // Key stop: one side already tells every row apart.
    std::iota(dst, dst + n, uint32_t{0});
    out->num_distinct = n;
    return n == 0 ? 0.0 : std::log2(static_cast<double>(n));
  }

  // A new id for each (X id, column id) pair, in the order rows first show
  // it; no more ids than rows or pairs.
  const uint32_t* const lx = x.labels.data();
  const uint32_t* const lc = column.labels.data();
  const uint64_t width = column.num_distinct;
  const uint64_t pairs = x.num_distinct * width;
  FoldScratch& s = *scratch;
  s.counts.assign(static_cast<size_t>(std::min<uint64_t>(n, pairs)), 0);
  s.taken.clear();
  uint32_t* const counts = s.counts.data();
  uint32_t next = 0;
  if (pairs <= kDenseFoldSlots) {
    // Dense: the pair key indexes the table directly.
    if (s.slots.size() < pairs) s.slots.resize(pairs, kEmptySlot);
    uint32_t* const slots = s.slots.data();
    for (size_t r = 0; r < n; ++r) {
      const size_t key = lx[r] * width + lc[r];
      uint32_t id = slots[key];
      if (id == kEmptySlot) {
        id = slots[key] = next++;
        s.taken.push_back(key);
      }
      dst[r] = id;
      ++counts[id];
    }
  } else {
    // Hash: open addressing on the pair key, which each new id records.
    int shift = 0;
    const size_t capacity = TableCapacity(s.counts.size(), &shift);
    const size_t mask = capacity - 1;
    if (s.slots.size() < capacity) s.slots.resize(capacity, kEmptySlot);
    uint32_t* const slots = s.slots.data();
    s.keys.clear();
    for (size_t r = 0; r < n; ++r) {
      const uint64_t key = lx[r] * width + lc[r];
      size_t i = static_cast<size_t>((key * kMul) >> shift);
      while (slots[i] != kEmptySlot && s.keys[slots[i]] != key) {
        i = (i + 1) & mask;
      }
      uint32_t id = slots[i];
      if (id == kEmptySlot) {
        id = slots[i] = next++;
        s.taken.push_back(i);
        s.keys.push_back(key);
      }
      dst[r] = id;
      ++counts[id];
    }
  }
  for (size_t slot : s.taken) s.slots[slot] = kEmptySlot;
  out->num_distinct = next;
  return EntropyOfCounts(counts, next, n, &s);
}

double LabelEntropy(const RowLabels& labels) {
  FoldScratch s;
  s.counts.assign(labels.num_distinct, 0);
  for (uint32_t id : labels.labels) ++s.counts[id];
  return EntropyOfCounts(s.counts.data(), labels.num_distinct,
                         labels.labels.size(), &s);
}

RowLabelMemo::Entry& RowLabelMemo::Labeled(AttrSet attrs) {
  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<Entry>& slot = entries_[attrs.bits()];
    if (slot == nullptr) slot = std::make_unique<Entry>();
    entry = slot.get();
  }
  std::call_once(entry->once, [&] {
    entry->labels = LabelRows(relation_, attrs, &entry->first_rows);
  });
  return *entry;
}

size_t RowLabelMemo::NumLabeled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace maimon
