// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// TupleIdTable: dense ids for fixed-width u32 tuples, in first-occurrence
// order. The first tuple inserted gets id 0, each new tuple the next id,
// and a tuple seen before gets its old id back, so two tuples share an id
// iff they are equal. Width 0 is allowed: its one (empty) tuple is id 0.
//
// decomp/ and serve/ key every separator match and every distinct-row
// check on these ids: the projection store's dedup, the executor's
// per-edge separator labels, and the query service's output dedup. No
// string key is packed anywhere on those paths.
//
// This is deliberately not entropy/'s LabelRows. The counting DP
// (join/metrics.cc) labels through LabelRows, and decomp_test checks the
// DP's join count and savings against the projection store and the
// executor. If both sides labeled through one routine, a labeling bug
// would cancel out of that differential instead of failing it.

#ifndef MAIMON_DECOMP_TUPLE_IDS_H_
#define MAIMON_DECOMP_TUPLE_IDS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace maimon {

class TupleIdTable {
 public:
  /// An empty table of `width`-value tuples. It allocates nothing until
  /// the first insert, so a table a query may not use costs nothing.
  explicit TupleIdTable(size_t width) : width_(width) {}

  /// The id of `tuple` (`width` values), and whether this call assigned
  /// it (the tuple was new), as std::unordered_set::insert reports.
  std::pair<uint32_t, bool> Insert(const uint32_t* tuple);

  /// Distinct tuples inserted so far: one more than the largest id.
  size_t size() const { return size_; }
  /// The `width` values of the tuple with id `id` (< size()).
  const uint32_t* Tuple(uint32_t id) const {
    return tuples_.data() + static_cast<size_t>(id) * width_;
  }

 private:
  uint64_t Hash(const uint32_t* tuple) const;
  void Grow();

  size_t width_;
  size_t size_ = 0;
  size_t mask_ = 0;              // slots_.size() - 1
  std::vector<uint32_t> slots_;  // id + 1 of the tuple in each slot; 0 empty
  std::vector<uint32_t> tuples_;  // row-major, id order
};

}  // namespace maimon

#endif  // MAIMON_DECOMP_TUPLE_IDS_H_
