// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// ProjectionStore: the materialized side of a decomposition. For each
// relation schema of a (mined) Schema it holds the deduplicated projection
// of the dictionary-encoded Relation, plus per-projection row/cell/byte
// accounting. The accounting is the storage-savings S numerator, computed
// from actually-materialized rows, so SavingsPct() must agree exactly with
// the counting-based SchemaReport::savings_pct (decomp_test pins this).
//
// Every projection is stored column-major — one u32 code array per
// column, the layout of Relation and of a store/ file's column sections —
// and that one layout runs unchanged from store::Writer through
// store::MappedStore, the Yannakakis executor and serve/. The writer and
// the loader move whole column arrays; the executor reads them in place
// through lists of live row ids. No layer transposes, and no query copies
// a stored row.

#ifndef MAIMON_DECOMP_PROJECTION_STORE_H_
#define MAIMON_DECOMP_PROJECTION_STORE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/schema.h"
#include "data/relation.h"
#include "util/attr_set.h"

namespace maimon {

/// One stored projection: the distinct rows of the relation restricted to
/// `attrs`, in first-occurrence order (deterministic for a fixed relation).
struct StoredProjection {
  AttrSet attrs;
  std::vector<int> columns;  // ascending original indices
  /// Column-major codes: codes[c][r] is row r's value in columns[c]. Every
  /// array has NumRows() entries.
  std::vector<std::vector<uint32_t>> codes;
  /// Domain sizes of `columns` in the source relation (codes[c] < domains[c]).
  std::vector<uint32_t> domains;

  size_t NumRows() const { return codes.empty() ? 0 : codes[0].size(); }
  size_t Cells() const { return NumRows() * columns.size(); }
  /// Materialized payload bytes (codes only, excluding vector overhead) —
  /// the honest storage-cost unit of the dictionary-encoded store.
  size_t Bytes() const { return Cells() * sizeof(uint32_t); }
};

class ProjectionStore {
 public:
  /// Materializes one distinct projection per relation of `schema`.
  ProjectionStore(const Relation& relation, const Schema& schema);

  /// Adopts pre-built projections (e.g. loaded from a store/ file). Unlike
  /// the relation constructor, these need not be globally consistent — the
  /// Yannakakis reducer then actually drops dangling tuples.
  /// `original_cells` anchors SavingsPct (0 disables it). Pass `canonical`
  /// = true only for projections that are ALREADY fully Yannakakis-reduced
  /// (e.g. re-adopted from YannakakisExecutor::ReducedProjections, or
  /// loaded from a store file written as canonical): serve/ then skips the
  /// snapshot re-reduction.
  ProjectionStore(std::vector<StoredProjection> projections,
                  size_t original_cells, bool canonical = false)
      : projections_(std::move(projections)),
        original_cells_(original_cells),
        canonical_(canonical) {}

  const std::vector<StoredProjection>& projections() const {
    return projections_;
  }
  size_t NumProjections() const { return projections_.size(); }

  size_t TotalRows() const;
  size_t TotalCells() const;
  size_t TotalBytes() const;
  /// Cell count of the original relation this store decomposes (0 when
  /// unknown, e.g. adopted foreign projections without an anchor).
  size_t original_cells() const { return original_cells_; }

  /// 100 * (1 - cells(projections) / cells(original)); the same arithmetic
  /// as SchemaReport::savings_pct, fed from the materialized store.
  double SavingsPct() const;

  /// True when the projections are known to be globally consistent (fully
  /// semijoin-reduced). Reduction is idempotent, so treating a canonical
  /// store as non-canonical is only a cost bug, never a correctness one.
  bool canonical() const { return canonical_; }

 private:
  std::vector<StoredProjection> projections_;
  size_t original_cells_ = 0;
  bool canonical_ = false;
};

}  // namespace maimon

#endif  // MAIMON_DECOMP_PROJECTION_STORE_H_
