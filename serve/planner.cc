// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "serve/planner.h"

#include <string>

namespace maimon {
namespace serve {

Planner::Planner(const ProjectionStore* store) {
  rels_.reserve(store->projections().size());
  for (const StoredProjection& p : store->projections()) {
    rels_.push_back(p.attrs);
    universe_ = universe_.Union(p.attrs);
  }
  tree_ = BuildMaxOverlapJoinTree(rels_);
}

QueryPlan Planner::Plan(const Query& query) const {
  QueryPlan plan;
  plan.output = query.attrs;
  if (query.attrs.Empty()) {
    plan.status = Status::InvalidArgument("query projects no attributes");
    return plan;
  }
  if (!universe_.ContainsAll(query.attrs)) {
    plan.status = Status::InvalidArgument(
        "projection attributes outside the store universe: " +
        query.attrs.Minus(universe_).ToString());
    return plan;
  }
  AttrSet touched = query.attrs;
  for (const Selection& sel : query.selections) {
    if (!universe_.Contains(sel.attr)) {
      plan.status = Status::InvalidArgument(
          "selection on attribute outside the store universe: " +
          std::to_string(sel.attr));
      return plan;
    }
    if (sel.lo > sel.hi) {
      plan.status = Status::InvalidArgument(
          "selection range is empty (lo > hi) on attribute " +
          std::to_string(sel.attr));
      return plan;
    }
    touched.Add(sel.attr);
  }

  const std::vector<int> cover = MinimalCoveringSubtree(tree_, rels_, touched);
  plan.nodes.reserve(cover.size());
  for (int v : cover) {
    PlanNode node;
    node.store_index = v;
    // Pushdown: a conjunct lands on EVERY covering node carrying its
    // attribute — filtering all occurrences keeps the per-node projections
    // small before the semijoin touches them, and is harmless because the
    // predicate is idempotent across copies of the attribute.
    for (const Selection& sel : query.selections) {
      if (rels_[static_cast<size_t>(v)].Contains(sel.attr)) {
        node.selections.push_back(sel);
      }
    }
    plan.covered = plan.covered.Union(rels_[static_cast<size_t>(v)]);
    plan.nodes.push_back(std::move(node));
  }
  plan.point_lookup = plan.nodes.size() == 1 && query.selections.size() == 1 &&
                      query.selections[0].IsPoint();
  plan.index_scan = plan.nodes.size() == 1 && query.selections.empty() &&
                    query.attrs.Count() == 1;
  plan.needs_dedup = plan.output != plan.covered;
  plan.status = Status::Ok();
  return plan;
}

}  // namespace serve
}  // namespace maimon
