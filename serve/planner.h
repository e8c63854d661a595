// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Planner: turns a declarative query against a decomposed store into a
// pruned Yannakakis plan over the minimal connected join-tree subtree that
// covers the query's attributes (join/join_tree.h MinimalCoveringSubtree).
//
// The pruning is what makes serving from a decomposition cheap: after the
// store has been canonically reduced (serve/service.h does this once per
// snapshot), the join of ANY connected subtree equals the projection of
// the full join onto that subtree's attributes — so a query touching k of
// the schema's attributes joins only the nodes that mention them, never
// the full plan. Selections are pushed below the join: every predicate is
// applied to every covering projection that carries its attribute, before
// a single semijoin runs.

#ifndef MAIMON_SERVE_PLANNER_H_
#define MAIMON_SERVE_PLANNER_H_

#include <cstdint>
#include <vector>

#include "decomp/projection_store.h"
#include "join/join_tree.h"
#include "util/attr_set.h"
#include "util/status.h"

namespace maimon {
namespace serve {

/// One conjunct on a single attribute: lo <= code <= hi over the
/// dictionary-encoded values. Equality is lo == hi.
struct Selection {
  int attr = 0;
  uint32_t lo = 0;
  uint32_t hi = 0;

  static Selection Eq(int attr, uint32_t value) {
    return Selection{attr, value, value};
  }
  static Selection Range(int attr, uint32_t lo, uint32_t hi) {
    return Selection{attr, lo, hi};
  }

  bool Matches(uint32_t value) const { return value >= lo && value <= hi; }
  bool IsPoint() const { return lo == hi; }
};

/// One query: project the (approximate) join onto `attrs` under the
/// conjunction of `selections`, with set semantics — the result is the
/// distinct projection, exactly what pi_attrs(sigma(join)) means.
struct Query {
  AttrSet attrs;
  std::vector<Selection> selections;
  /// Count distinct result rows without materializing them.
  bool count_only = false;
  /// Per-query wall budget in seconds; <= 0 falls back to the service
  /// default (ServiceOptions::default_budget_seconds).
  double budget_seconds = 0;
};

/// One covering node of a pruned plan, with its pushed-down predicates.
struct PlanNode {
  int store_index = 0;                // index into store projections
  std::vector<Selection> selections;  // conjuncts whose attr this node has
};

struct QueryPlan {
  Status status;
  /// Requested projection attributes (the result columns, ascending).
  AttrSet output;
  /// Union of the covering nodes' attributes; output is a subset.
  AttrSet covered;
  /// Covering subtree, ascending store indices. Connected in the store's
  /// join tree and inclusion-minimal (serve_test pins both).
  std::vector<PlanNode> nodes;
  /// Single node + exactly one equality selection: the service answers
  /// from a cached per-projection hash index, no executor at all.
  bool point_lookup = false;
  /// One projected attribute, no selection (so a single node): the service
  /// reads the distinct values from the keys of that column's cached
  /// index, no executor at all.
  bool index_scan = false;
  /// output != covered: joined rows must be projected and deduplicated.
  /// When equal, the subtree join itself is already distinct (a join of
  /// distinct-row projections on their shared keys).
  bool needs_dedup = false;
};

class Planner {
 public:
  /// `store` must outlive the planner (service snapshots own both).
  explicit Planner(const ProjectionStore* store);

  /// Validates the query against the store's universe and emits the pruned
  /// plan. Never executes anything; pure function of (store schema, query).
  QueryPlan Plan(const Query& query) const;

  const JoinTree& tree() const { return tree_; }
  AttrSet universe() const { return universe_; }

 private:
  std::vector<AttrSet> rels_;
  JoinTree tree_;
  AttrSet universe_;
};

}  // namespace serve
}  // namespace maimon

#endif  // MAIMON_SERVE_PLANNER_H_
