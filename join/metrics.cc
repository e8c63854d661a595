// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "join/metrics.h"

#include <vector>

#include "join/join_tree.h"

namespace maimon {

SchemaReport EvaluateSchema(const Relation& relation, const Schema& schema,
                            const InfoCalc& oracle) {
  RowLabelMemo labels(relation);
  return EvaluateSchema(schema, oracle, &labels);
}

SchemaReport EvaluateSchema(const Schema& schema, const InfoCalc& oracle,
                            RowLabelMemo* labels) {
  const Relation& relation = labels->relation();
  SchemaReport report;
  report.num_relations = schema.NumRelations();
  report.width = schema.Width();
  const std::vector<AttrSet>& rels = schema.Relations();
  const size_t m = rels.size();
  if (m == 0 || relation.NumRows() == 0) return report;

  // Distinct projections (the decomposed storage): a relation's distinct
  // tuples are the first-occurrence rows of its labels.
  std::vector<const std::vector<uint32_t>*> nodes(m);
  size_t projected_cells = 0;
  for (size_t v = 0; v < m; ++v) {
    nodes[v] = &labels->FirstRows(rels[v]);
    projected_cells += nodes[v]->size() * static_cast<size_t>(rels[v].Count());
  }
  const size_t original_cells = relation.NumRows() *
                                static_cast<size_t>(relation.NumCols());
  report.savings_pct =
      100.0 * (1.0 - static_cast<double>(projected_cells) /
                         static_cast<double>(original_cells));

  // Join tree: the shared maximum-overlap spanning tree (join/join_tree.h).
  const JoinTree tree = BuildMaxOverlapJoinTree(rels);
  const std::vector<int>& parent = tree.parent;
  const std::vector<std::vector<int>>& children = tree.children;
  const std::vector<int>& order = tree.preorder;

  // J(S): each tree edge contributes I(subtree attrs ; rest | separator).
  const AttrSet universe = schema.UniverseAttrs();
  std::vector<AttrSet> subtree_attrs(m);
  for (size_t i = order.size(); i-- > 0;) {
    const int v = order[i];
    subtree_attrs[static_cast<size_t>(v)] = rels[static_cast<size_t>(v)];
    for (int c : children[static_cast<size_t>(v)]) {
      subtree_attrs[static_cast<size_t>(v)] =
          subtree_attrs[static_cast<size_t>(v)].Union(
              subtree_attrs[static_cast<size_t>(c)]);
    }
  }
  for (size_t j = 1; j < m; ++j) {
    const AttrSet sep =
        rels[j].Intersect(rels[static_cast<size_t>(parent[j])]);
    const AttrSet below = subtree_attrs[j].Minus(sep);
    const AttrSet above = universe.Minus(subtree_attrs[j]);
    if (below.Any() && above.Any()) {
      report.j_measure += oracle.CondMutualInfo(below, above, sep);
    }
  }

  // Exact acyclic-join row count: bottom-up counting DP. The message from
  // child c to its parent is indexed by the separator's label: entry s is
  // the number of join results in c's subtree whose separator tuple has id
  // s. Every node and its parent project the same relation, so both sides
  // of an edge read one labeling of the separator.
  std::vector<std::vector<double>> message(m);
  std::vector<const uint32_t*> child_sep;
  for (size_t i = order.size(); i-- > 0;) {
    const size_t v = static_cast<size_t>(order[i]);
    const std::vector<int>& kids = children[v];
    child_sep.clear();
    for (int c : kids) {
      child_sep.push_back(
          labels->Of(rels[v].Intersect(rels[static_cast<size_t>(c)]))
              .labels.data());
    }
    const uint32_t* up_sep = nullptr;
    if (parent[v] >= 0) {
      const RowLabels& up =
          labels->Of(rels[v].Intersect(rels[static_cast<size_t>(parent[v])]));
      up_sep = up.labels.data();
      message[v].assign(up.num_distinct, 0.0);
    }
    double total = 0.0;
    for (uint32_t row : *nodes[v]) {
      double weight = 1.0;
      for (size_t k = 0; k < kids.size(); ++k) {
        weight *= message[static_cast<size_t>(kids[k])][child_sep[k][row]];
        if (weight == 0.0) break;
      }
      if (weight == 0.0) continue;
      if (up_sep != nullptr) {
        message[v][up_sep[row]] += weight;
      } else {
        total += weight;
      }
    }
    if (parent[v] < 0) report.join_rows = total;
    for (int c : kids) {
      message[static_cast<size_t>(c)] = {};  // release as we go
    }
  }

  // Spurious rate vs the distinct original rows (the join has set
  // semantics; exact decompositions land at E = 0).
  const double original_distinct =
      static_cast<double>(labels->Of(universe).num_distinct);
  if (report.join_rows > 0.0) {
    const double spurious = report.join_rows - original_distinct;
    report.spurious_pct =
        spurious > 0.0 ? 100.0 * spurious / report.join_rows : 0.0;
  }
  return report;
}

}  // namespace maimon
