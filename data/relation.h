// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Relation: a column-store over dictionary-encoded values. Every attribute
// is a dense vector of uint32 codes in [0, DomainSize(attr)); the original
// string/number values never enter the mining pipeline (entropy only sees
// equality structure), which is what lets the PLI engine label rows by
// comparing integer codes instead of raw values.

#ifndef MAIMON_DATA_RELATION_H_
#define MAIMON_DATA_RELATION_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "util/attr_set.h"

namespace maimon {

class Relation {
 public:
  Relation() = default;

  /// `columns[c][r]` is the code of row r in column c; `domain_sizes[c]`
  /// must exceed every code in column c.
  Relation(std::vector<std::vector<uint32_t>> columns,
           std::vector<uint32_t> domain_sizes);

  /// Builds from row-major tuples (generator-friendly). Codes are re-packed
  /// to a dense [0, distinct) range per column.
  static Relation FromRows(const std::vector<std::vector<uint32_t>>& rows,
                           int num_cols);

  size_t NumRows() const { return num_rows_; }
  int NumCols() const { return static_cast<int>(columns_.size()); }
  size_t CellCount() const { return num_rows_ * columns_.size(); }
  AttrSet Universe() const { return AttrSet::Universe(NumCols()); }

  const std::vector<uint32_t>& Column(int c) const { return columns_[c]; }
  uint32_t DomainSize(int c) const { return domain_sizes_[c]; }
  uint32_t Value(size_t row, int c) const { return columns_[c][row]; }

  /// Bernoulli row sample (keeps at least one row). Deterministic in `seed`.
  Relation SampleRows(double fraction, uint64_t seed) const;

  /// Keeps only the columns in `attrs`, renumbered 0..k-1 in ascending
  /// original order. Duplicate projected rows are kept — this models the
  /// paper's column-scalability runs, which operate on bag projections.
  Relation ProjectWithDuplicates(AttrSet attrs) const;

 private:
  std::vector<std::vector<uint32_t>> columns_;
  std::vector<uint32_t> domain_sizes_;
  size_t num_rows_ = 0;
};

}  // namespace maimon

#endif  // MAIMON_DATA_RELATION_H_
