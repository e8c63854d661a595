// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Schema quality metrics (Sec. 8): storage savings S, spurious-tuple rate
// E, and the information-theoretic distance J of a decomposition. The join
// size behind E is computed exactly with the acyclic-join counting DP over
// the schema's join tree (maximum-overlap spanning tree) — no join is ever
// materialized, so wide/near-product schemas stay cheap to score. S, E and
// the DP read only integer row labels (entropy/row_labels.h); the counting DP
// calls nothing in decomp/, so it stays an independent oracle for the
// materialized join there.

#ifndef MAIMON_JOIN_METRICS_H_
#define MAIMON_JOIN_METRICS_H_

#include "core/schema.h"
#include "data/relation.h"
#include "entropy/info_calc.h"
#include "entropy/row_labels.h"

namespace maimon {

struct SchemaReport {
  int num_relations = 0;
  int width = 0;  // attributes of the widest relation
  /// J(S): sum over join-tree edges of I(subtree; rest | separator) —
  /// 0 iff the decomposition is lossless (acyclicity + the mined MVDs).
  double j_measure = 0.0;
  /// S: 100 * (1 - cells(projections) / cells(original)).
  double savings_pct = 0.0;
  /// E: 100 * (|join| - |r|) / |join| — share of spurious tuples in the
  /// reconstruction.
  double spurious_pct = 0.0;
  /// Exact row count of the natural join of the projections.
  double join_rows = 0.0;
};

SchemaReport EvaluateSchema(const Relation& relation, const Schema& schema,
                            const InfoCalc& oracle);

/// The same report over `labels->relation()`, reading (and adding to) a
/// label memo shared across schemas, so each distinct relation, separator
/// and universe is labeled once per memo rather than once per schema. The
/// report is bit-identical to the overload above: the DP adds the same
/// terms in the same order whichever memo supplied the labels.
SchemaReport EvaluateSchema(const Schema& schema, const InfoCalc& oracle,
                            RowLabelMemo* labels);

}  // namespace maimon

#endif  // MAIMON_JOIN_METRICS_H_
