// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "entropy/stripped_partition.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace maimon {
namespace {

// Per-thread grow-only buffers for Intersect: group-id occurrence counts and
// scatter offsets, indexed by left-partition group id. Entries are always
// reset to 0 before Intersect returns, so the vectors stay zero-filled
// between calls and the hot loop never allocates once they have grown to the
// largest group count seen on this thread.
thread_local std::vector<int32_t> tl_counts;
thread_local std::vector<int32_t> tl_offsets;
thread_local std::vector<int32_t> tl_touched;

// Entropy's group-size histogram: occurrence count per group size plus the
// list of sizes seen, same grow-only/reset-before-return discipline as the
// Intersect buffers above. Shared by Entropy() and the fused kernel's
// inline accumulation — both feed FinishEntropy below, so the two paths
// run the identical arithmetic in the identical order.
thread_local std::vector<int32_t> tl_size_counts;
thread_local std::vector<int32_t> tl_sizes_seen;

void EnsureSizeHistogram(size_t num_rows) {
  if (tl_size_counts.size() < num_rows + 1) {
    tl_size_counts.resize(num_rows + 1, 0);
  }
}

// Consumes the thread-local size histogram (resetting it for the next
// caller) and returns H. Accumulates per distinct group size, in ascending
// size order. The partition for X is unique, but the *group order* depends
// on the intersection path that built it (which cached subset the
// derivation started from), and FP addition is not associative — summing
// in storage order would let cache state perturb H by ULPs. Canonical
// order makes H a pure function of the partition, which the
// thread-count-invariance contract (identical scores from warm facade
// engines and cold forked shards) leans on. Bucketing by size keeps this
// O(groups) — entropy is the pipeline's dominant cost — and as a bonus
// costs one log2 per *distinct* size instead of one per group.
double FinishEntropy(size_t num_rows, size_t stripped_rows) {
  const double n = static_cast<double>(num_rows);
  const double log2n = std::log2(n);
  std::sort(tl_sizes_seen.begin(), tl_sizes_seen.end());
  double h = 0.0;
  for (int32_t size : tl_sizes_seen) {
    const double c = static_cast<double>(size);
    // -(c/n) log2(c/n) = (c/n) (log2 n - log2 c), once per distinct size.
    h += static_cast<double>(tl_size_counts[static_cast<size_t>(size)]) *
         ((c / n) * (log2n - std::log2(c)));
    tl_size_counts[static_cast<size_t>(size)] = 0;  // reset for next call
  }
  tl_sizes_seen.clear();
  h += static_cast<double>(num_rows - stripped_rows) / n * log2n;
  return h;
}

}  // namespace

StrippedPartition StrippedPartition::FromColumn(
    const std::vector<uint32_t>& codes, uint32_t domain_size) {
  if (domain_size > codes.size()) {
    // Sparse codes (an imported CSV keeps its codes verbatim, so one code
    // near 2^32 makes the domain that wide): count over the ranks of the
    // distinct codes instead, so the arrays below are at most column-sized.
    // Ranks keep ascending code order, so the partition is the one the
    // dense relabeling builds.
    std::vector<uint32_t> distinct(codes);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    std::vector<uint32_t> ranks(codes.size());
    for (size_t r = 0; r < codes.size(); ++r) {
      ranks[r] = static_cast<uint32_t>(
          std::lower_bound(distinct.begin(), distinct.end(), codes[r]) -
          distinct.begin());
    }
    return FromColumn(ranks, static_cast<uint32_t>(distinct.size()));
  }

  StrippedPartition out;
  out.num_rows_ = codes.size();

  std::vector<int32_t> counts(domain_size, 0);
  for (uint32_t code : codes) {
    assert(code < domain_size);
    ++counts[code];
  }

  // Offsets for codes that form non-singleton groups; -1 marks stripped.
  size_t kept_rows = 0;
  size_t kept_groups = 0;
  for (int32_t c : counts) {
    if (c >= 2) {
      kept_rows += static_cast<size_t>(c);
      ++kept_groups;
    }
  }
  out.rows_.resize(kept_rows);
  out.starts_.reserve(kept_groups + 1);

  std::vector<int32_t> write_pos(domain_size, -1);
  int32_t cursor = 0;
  for (uint32_t code = 0; code < domain_size; ++code) {
    if (counts[code] >= 2) {
      out.starts_.push_back(cursor);
      write_pos[code] = cursor;
      cursor += counts[code];
    }
  }
  if (kept_groups > 0) out.starts_.push_back(cursor);

  for (size_t r = 0; r < codes.size(); ++r) {
    int32_t& pos = write_pos[codes[r]];
    if (pos >= 0) out.rows_[static_cast<size_t>(pos++)] = static_cast<int32_t>(r);
  }
  return out;
}

StrippedPartition StrippedPartition::Identity(size_t num_rows) {
  StrippedPartition out;
  out.num_rows_ = num_rows;
  if (num_rows >= 2) {
    out.rows_.resize(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      out.rows_[r] = static_cast<int32_t>(r);
    }
    out.starts_ = {0, static_cast<int32_t>(num_rows)};
  }
  return out;
}

StrippedPartition StrippedPartition::Intersect(const StrippedPartition& other,
                                               IntersectScratch* scratch) const {
  StrippedPartition out;
  IntersectInto(other, scratch, &out, nullptr);
  return out;
}

void StrippedPartition::IntersectInto(const StrippedPartition& other,
                                      IntersectScratch* scratch,
                                      StrippedPartition* out,
                                      double* entropy_out) const {
  assert(other.num_rows_ == num_rows_);
  assert(scratch != nullptr);
  assert(out != nullptr && out != this && out != &other);

  out->rows_.clear();
  out->starts_.clear();
  out->num_rows_ = num_rows_;
  if (num_rows_ == 0) {
    if (entropy_out != nullptr) *entropy_out = 0.0;
    return;
  }

  const size_t left_groups = NumGroups();
  if (left_groups == 0 || other.NumGroups() == 0) {
    // All-singleton product; the histogram is empty, so FinishEntropy
    // yields exactly the singleton term out->Entropy() would.
    if (entropy_out != nullptr) *entropy_out = FinishEntropy(num_rows_, 0);
    return;
  }

  // Advance the epoch: every stamp from prior calls is invalid from here —
  // the legacy restore pass (phase 3) replaced by one counter increment.
  // The slots grow lazily and start at 0, which reads as epoch 0: never
  // current (the first issued epoch is 1, and the wrap below skips 0).
  if (scratch->slots_.size() < num_rows_) {
    scratch->slots_.resize(num_rows_, 0);
  }
  if (++scratch->epoch_ == 0) {
    // Wrapped after 2^32 calls: stale slots could now alias a future
    // epoch, so zero-fill once and restart at 1.
    std::fill(scratch->slots_.begin(), scratch->slots_.end(), uint64_t{0});
    scratch->epoch_ = 1;
  }
  const uint64_t epoch_word = uint64_t{scratch->epoch_} << 32;
  uint64_t* const slots = scratch->slots_.data();

  if (tl_counts.size() < left_groups) {
    tl_counts.resize(left_groups, 0);
    tl_offsets.resize(left_groups, 0);
  }
  const bool fuse = entropy_out != nullptr;
  if (fuse) EnsureSizeHistogram(num_rows_);

  // Phase 1: stamp every row stored in the left partition with its group
  // id under the current epoch.
  for (size_t g = 0; g < left_groups; ++g) {
    const uint64_t word = epoch_word | static_cast<uint32_t>(g);
    for (const int32_t* r = GroupBegin(g); r != GroupEnd(g); ++r) {
      slots[static_cast<size_t>(*r)] = word;
    }
  }

  // Phase 2: each right group splits by tag into product groups. Rows whose
  // stamp is not current are singletons on the left, hence singletons in
  // the product. With `fuse`, every qualifying product-group size also
  // feeds the entropy histogram here — the sizes are already in hand, so
  // the final Entropy() re-scan of the group structure disappears.
  out->rows_.reserve(std::min(rows_.size(), other.rows_.size()));
  std::vector<int32_t>& touched = tl_touched;
  for (size_t h = 0; h < other.NumGroups(); ++h) {
    touched.clear();
    for (const int32_t* r = other.GroupBegin(h); r != other.GroupEnd(h); ++r) {
      const uint64_t word = slots[static_cast<size_t>(*r)];
      if ((word & ~uint64_t{0xFFFFFFFF}) != epoch_word) continue;
      const int32_t g = static_cast<int32_t>(word & 0xFFFFFFFF);
      if (tl_counts[static_cast<size_t>(g)] == 0) touched.push_back(g);
      ++tl_counts[static_cast<size_t>(g)];
    }
    // Lay out qualifying (size >= 2) product groups contiguously.
    int32_t cursor = static_cast<int32_t>(out->rows_.size());
    for (int32_t g : touched) {
      const int32_t count = tl_counts[static_cast<size_t>(g)];
      if (count >= 2) {
        out->starts_.push_back(cursor);
        tl_offsets[static_cast<size_t>(g)] = cursor;
        cursor += count;
        if (fuse && tl_size_counts[static_cast<size_t>(count)]++ == 0) {
          tl_sizes_seen.push_back(count);
        }
      } else {
        tl_offsets[static_cast<size_t>(g)] = -1;
      }
    }
    out->rows_.resize(static_cast<size_t>(cursor));
    for (const int32_t* r = other.GroupBegin(h); r != other.GroupEnd(h); ++r) {
      const uint64_t word = slots[static_cast<size_t>(*r)];
      if ((word & ~uint64_t{0xFFFFFFFF}) != epoch_word) continue;
      const int32_t g = static_cast<int32_t>(word & 0xFFFFFFFF);
      int32_t& pos = tl_offsets[static_cast<size_t>(g)];
      if (pos >= 0) out->rows_[static_cast<size_t>(pos++)] = *r;
    }
    for (int32_t g : touched) tl_counts[static_cast<size_t>(g)] = 0;
  }
  if (!out->starts_.empty()) {
    out->starts_.push_back(static_cast<int32_t>(out->rows_.size()));
  }

  if (fuse) *entropy_out = FinishEntropy(num_rows_, out->rows_.size());
}

double StrippedPartition::Entropy() const {
  if (num_rows_ == 0) return 0.0;
  EnsureSizeHistogram(num_rows_);
  for (size_t g = 0; g < NumGroups(); ++g) {
    const int32_t size = starts_[g + 1] - starts_[g];
    if (tl_size_counts[static_cast<size_t>(size)]++ == 0) {
      tl_sizes_seen.push_back(size);
    }
  }
  return FinishEntropy(num_rows_, rows_.size());
}

}  // namespace maimon
