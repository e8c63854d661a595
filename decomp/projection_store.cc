// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "decomp/projection_store.h"

#include <utility>

#include "decomp/tuple_ids.h"

namespace maimon {

ProjectionStore::ProjectionStore(const Relation& relation,
                                 const Schema& schema) {
  original_cells_ = relation.CellCount();
  projections_.reserve(schema.Relations().size());
  for (AttrSet attrs : schema.Relations()) {
    StoredProjection p;
    p.attrs = attrs;
    p.columns = attrs.ToVector();
    p.codes.resize(p.columns.size());
    for (int c : p.columns) p.domains.push_back(relation.DomainSize(c));

    // Distinct in row order over the projected columns: a row is kept
    // when its tuple takes a new id. Codes are copied verbatim, so the
    // distinct rows here are exactly the distinct projected rows of the
    // source relation.
    TupleIdTable seen(p.columns.size());
    std::vector<uint32_t> tuple(p.columns.size());
    for (size_t r = 0; r < relation.NumRows(); ++r) {
      for (size_t c = 0; c < tuple.size(); ++c) {
        tuple[c] = relation.Value(r, p.columns[c]);
      }
      if (!seen.Insert(tuple.data()).second) continue;
      for (size_t c = 0; c < tuple.size(); ++c) p.codes[c].push_back(tuple[c]);
    }
    projections_.push_back(std::move(p));
  }
}

size_t ProjectionStore::TotalRows() const {
  size_t total = 0;
  for (const StoredProjection& p : projections_) total += p.NumRows();
  return total;
}

size_t ProjectionStore::TotalCells() const {
  size_t total = 0;
  for (const StoredProjection& p : projections_) total += p.Cells();
  return total;
}

size_t ProjectionStore::TotalBytes() const {
  size_t total = 0;
  for (const StoredProjection& p : projections_) total += p.Bytes();
  return total;
}

double ProjectionStore::SavingsPct() const {
  if (original_cells_ == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(TotalCells()) /
                            static_cast<double>(original_cells_));
}

}  // namespace maimon
