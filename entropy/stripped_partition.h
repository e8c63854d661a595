// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// StrippedPartition: the PLI (position-list-index) representation at the
// heart of the Sec. 6.3 entropy engine. A partition of the row set into
// equality groups for some attribute set X, with singleton groups stripped
// (they carry no structure beyond their count, which is recoverable from
// NumRows - SumGroupSizes). Stored flat: one rows array plus group offsets,
// so Intersect streams over contiguous memory.
//
// Intersect uses the probe-table idiom from the FD/MVD-discovery literature
// (TANE): tag rows of the left partition with their group id, then bucket
// each right group by tag. Cost is linear in the stored (non-singleton)
// rows. One kernel (IntersectInto / Intersect over IntersectScratch):
// tags carry an epoch stamp, so invalidating the scratch between calls is
// a counter increment instead of a restore pass. The caller may also
// request the product's entropy, which is accumulated from the group sizes
// phase 2 already computes (no re-scan of the group structure), and
// IntersectInto recycles the output partition's row/starts storage so a
// warm fold chain performs no allocation. (The original three-pass
// tag/split/restore kernel served one release as the differential oracle
// for this rewrite and is gone; tests/stripped_partition_test.cc now
// checks the kernel against brute-force grouping directly.)

#ifndef MAIMON_ENTROPY_STRIPPED_PARTITION_H_
#define MAIMON_ENTROPY_STRIPPED_PARTITION_H_

#include <cstdint>
#include <cstddef>
#include <vector>

namespace maimon {

/// Epoch-stamped tag scratch for the fused Intersect kernel. Each slot
/// packs (epoch << 32) | group-id; a tag is valid iff its stamped epoch
/// equals the scratch's current epoch, so "clearing" the scratch between
/// calls costs one counter increment — no pass over the rows. The epoch
/// wraps every 2^32 intersections; the wrap zero-fills the slots once and
/// restarts at epoch 1 (slot value 0 reads as epoch 0, which is never
/// current). Grows lazily to the widest relation seen; one scratch is
/// owned by one thread at a time.
class IntersectScratch {
 public:
  uint32_t epoch() const { return epoch_; }
  /// Test hook: jump the epoch counter (e.g. to UINT32_MAX - 2) so the
  /// wraparound path runs without 2^32 warm-up calls.
  void SetEpochForTest(uint32_t epoch) { epoch_ = epoch; }

 private:
  friend class StrippedPartition;
  std::vector<uint64_t> slots_;  // (epoch << 32) | left-group id, per row
  uint32_t epoch_ = 0;           // last issued epoch; 0 = nothing stamped
};

class StrippedPartition {
 public:
  StrippedPartition() = default;

  /// Builds the single-attribute partition from a dictionary-encoded column
  /// (counting sort over the domain — no hashing). A domain wider than the
  /// column is counted over the ranks of the distinct codes instead, so
  /// memory stays linear in the rows for any code range.
  static StrippedPartition FromColumn(const std::vector<uint32_t>& codes,
                                      uint32_t domain_size);

  /// The identity partition {all rows}: the PLI of the empty attribute set.
  static StrippedPartition Identity(size_t num_rows);

  /// Fused kernel, product partition `this ∧ other` (group-by on the union
  /// of the two attribute sets) over the epoch-stamped scratch.
  StrippedPartition Intersect(const StrippedPartition& other,
                              IntersectScratch* scratch) const;

  /// Fused kernel writing the product into `*out`, recycling out's
  /// row/starts storage (clear() keeps capacity — a warm fold chain stops
  /// allocating). `out` must not alias `this` or `other`. When
  /// `entropy_out` is non-null it receives the product's Shannon entropy,
  /// accumulated inline from the group sizes phase 2 computes —
  /// bit-identical to calling out->Entropy() (the same canonical
  /// ascending-size accumulation order), without re-scanning the group
  /// structure.
  void IntersectInto(const StrippedPartition& other, IntersectScratch* scratch,
                     StrippedPartition* out,
                     double* entropy_out = nullptr) const;

  size_t NumRows() const { return num_rows_; }
  /// Number of stripped (size >= 2) groups.
  size_t NumGroups() const {
    return starts_.empty() ? 0 : starts_.size() - 1;
  }
  /// Rows covered by stripped groups; singletons are NumRows() - this.
  size_t SumGroupSizes() const { return rows_.size(); }
  size_t NumSingletons() const { return num_rows_ - rows_.size(); }

  const int32_t* GroupBegin(size_t g) const { return rows_.data() + starts_[g]; }
  const int32_t* GroupEnd(size_t g) const {
    return rows_.data() + starts_[g + 1];
  }
  size_t GroupSize(size_t g) const {
    return static_cast<size_t>(starts_[g + 1] - starts_[g]);
  }

  /// Shannon entropy (bits) of the group-size distribution this partition
  /// induces, singletons included.
  double Entropy() const;

  /// Heap footprint in bytes — what the LRU cache charges for this entry.
  /// Charges capacity(), not size(): the cache calls ShrinkToFit() before
  /// an entry becomes resident, so the two coincide for cached partitions
  /// and transient over-allocation is never billed to the byte budget.
  size_t MemoryBytes() const {
    return rows_.capacity() * sizeof(int32_t) +
           starts_.capacity() * sizeof(int32_t) + sizeof(*this);
  }

  /// Releases the excess vector capacity Intersect's reserve left behind
  /// (rows_ is reserved at an upper bound, starts_ grows by push_back).
  void ShrinkToFit() {
    rows_.shrink_to_fit();
    starts_.shrink_to_fit();
  }

 private:
  std::vector<int32_t> rows_;    // concatenated group members
  std::vector<int32_t> starts_;  // NumGroups()+1 offsets into rows_
  size_t num_rows_ = 0;          // rows in the underlying relation
};

}  // namespace maimon

#endif  // MAIMON_ENTROPY_STRIPPED_PARTITION_H_
