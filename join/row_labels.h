// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Row labels: the integer form of a projection. For an attribute set X, one
// pass over the relation gives every row the dense id of its projection
// onto X, numbered in first-occurrence order. The distinct tuples of pi_X(r)
// are then the rows that first carried each id, and any map keyed by X's
// tuples becomes a vector indexed by id — the schema metrics
// (join/metrics.h) read nothing else, so no tuple is ever copied or packed
// into a string key.

#ifndef MAIMON_JOIN_ROW_LABELS_H_
#define MAIMON_JOIN_ROW_LABELS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "data/relation.h"
#include "util/attr_set.h"

namespace maimon {

struct RowLabels {
  /// labels[r]: id of row r's projection onto X, in [0, NumDistinct()).
  std::vector<uint32_t> labels;
  /// first_rows[id]: the first row whose projection has that id, so ids
  /// ascend with first_rows (first-occurrence order).
  std::vector<uint32_t> first_rows;

  size_t NumDistinct() const { return first_rows.size(); }
};

/// Labels every row of `relation` by its projection onto `attrs` (open
/// addressing over row indices, codes compared column by column). The
/// empty set gives every row id 0. Row ids are u32, as in the store format.
RowLabels LabelRows(const Relation& relation, AttrSet attrs);

/// Thread-safe memo of LabelRows over one relation: each attribute set is
/// labeled once, by the first caller that asks for it, and shared by every
/// later caller (a mutex-guarded map of std::call_once entries). Labels live
/// as long as the memo — one u32 per row per distinct set requested — so a
/// caller scopes it to one batch of schemas (RankSchemes: one ranking call).
class RowLabelMemo {
 public:
  explicit RowLabelMemo(const Relation& relation) : relation_(relation) {}
  RowLabelMemo(const RowLabelMemo&) = delete;
  RowLabelMemo& operator=(const RowLabelMemo&) = delete;

  const Relation& relation() const { return relation_; }

  /// Labels of `attrs`, computed on first request. The reference stays
  /// valid for the memo's lifetime; concurrent callers asking for the same
  /// set wait for the one labeling pass.
  const RowLabels& Of(AttrSet attrs);

  /// Distinct attribute sets labeled so far.
  size_t NumLabeled() const;

 private:
  struct Entry {
    std::once_flag once;
    RowLabels labels;
  };

  const Relation& relation_;
  mutable std::mutex mu_;
  std::map<uint64_t, std::unique_ptr<Entry>> entries_;  // by AttrSet bits
};

}  // namespace maimon

#endif  // MAIMON_JOIN_ROW_LABELS_H_
