// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Row labels: the one representation of a projection. For an attribute set
// X, every row carries the dense id of its projection onto X, numbered in
// first-occurrence order: row 0 has id 0, and each row whose X-tuple has
// not been seen before takes the next id. Two rows share an id iff they
// agree on X, so the labels are X's partition of the rows (the position
// list index of Sec. 6.3, singletons kept) and H(X) follows from how many
// rows carry each id. The numbering is canonical: the labels of X are a
// pure function of the relation and X, however they were computed.
//
// Two ways to label. LabelRows hashes the relation's codes from scratch
// and can return each id's first row in the same pass; schema metrics
// (join/metrics.h) label each relation and separator this way. FoldLabels
// extends the labels of X by one column and returns H(X ∪ {c}) in the same
// pass; it is the entropy engine's step from a cached subset towards a
// query (entropy/pli_engine.h).

#ifndef MAIMON_ENTROPY_ROW_LABELS_H_
#define MAIMON_ENTROPY_ROW_LABELS_H_

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
  /// labels[r]: id of row r's projection onto X, in [0, num_distinct).
  std::vector<uint32_t> labels;
  /// Distinct projections of X: one more than the largest id.
  size_t num_distinct = 0;

  /// Heap footprint in bytes: what the engine's cache charges for it.
  size_t MemoryBytes() const {
    return labels.capacity() * sizeof(uint32_t) + sizeof(*this);
  }
};

/// Labels every row of `relation` by its projection onto `attrs` (open
/// addressing over row indices, codes compared column by column, so no
/// array is sized by a column's code range). The empty set gives every row
/// id 0. Row ids are u32, as in the store format. With `first_rows`, also
/// returns the first row of each id, in id order.
RowLabels LabelRows(const Relation& relation, AttrSet attrs,
                    std::vector<uint32_t>* first_rows = nullptr);

/// FoldLabels counts (X id, column id) pairs in a dense table while the
/// product of the two distinct counts is at most this, and in an open
/// addressing table above it.
constexpr size_t kDenseFoldSlots = size_t{1} << 20;

/// FoldLabels' working memory, owned by one thread at a time (the engine
/// keeps one per handle). It grows to the largest fold seen; between folds
/// every slot reads empty and every size count 0, because each fold resets
/// exactly what it set, so no fold pays for clearing what it did not touch.
struct FoldScratch {
  std::vector<uint32_t> slots;        // (X id, column id) -> new id
  std::vector<size_t> taken;          // the slot each new id took
  std::vector<uint64_t> keys;         // open addressing: each new id's key
  std::vector<uint32_t> counts;       // rows per id
  std::vector<uint32_t> size_counts;  // ids per row count
  std::vector<uint32_t> sizes_seen;   // row counts present in size_counts
};

/// Writes the labels of X ∪ {c} into `*out` from the labels of X and of
/// the single column c (over the same rows) and returns H(X ∪ {c}) in bits,
/// summed from the new ids' row counts exactly as LabelEntropy sums them.
/// Once either side has one id per row, so does the result: its labels are
/// 0..n-1 and H = log2 n, with no table. `out` must alias neither input;
/// its storage is reused.
double FoldLabels(const RowLabels& x, const RowLabels& column,
                  FoldScratch* scratch, RowLabels* out);

/// H of the projection in bits: the Shannon entropy of the ids' row
/// counts, summed per distinct count in ascending order, so it is a pure
/// function of the partition.
double LabelEntropy(const RowLabels& labels);

/// Thread-safe memo of LabelRows over one relation: each attribute set is
/// labeled once, by the first caller that asks for it, and shared by every
/// later caller (a mutex-guarded map of std::call_once entries). Labels live
/// as long as the memo — one u32 per row, plus one per distinct tuple, per
/// set requested — so a caller scopes it to one batch of schemas
/// (RankSchemes: one ranking call).
class RowLabelMemo {
 public:
  explicit RowLabelMemo(const Relation& relation) : relation_(relation) {}
  RowLabelMemo(const RowLabelMemo&) = delete;
  RowLabelMemo& operator=(const RowLabelMemo&) = delete;

  const Relation& relation() const { return relation_; }

  /// Labels of `attrs`, computed on first request. The reference stays
  /// valid for the memo's lifetime; concurrent callers asking for the same
  /// set wait for the one labeling pass.
  const RowLabels& Of(AttrSet attrs) { return Labeled(attrs).labels; }
  /// The first row of each id of `attrs`, in id order: the distinct tuples
  /// of the projection, as rows of the relation.
  const std::vector<uint32_t>& FirstRows(AttrSet attrs) {
    return Labeled(attrs).first_rows;
  }

  /// Distinct attribute sets labeled so far.
  size_t NumLabeled() const;

 private:
  struct Entry {
    std::once_flag once;
    RowLabels labels;
    std::vector<uint32_t> first_rows;
  };
  Entry& Labeled(AttrSet attrs);

  const Relation& relation_;
  mutable std::mutex mu_;
  std::map<uint64_t, std::unique_ptr<Entry>> entries_;  // by AttrSet bits
};

}  // namespace maimon

#endif  // MAIMON_ENTROPY_ROW_LABELS_H_
