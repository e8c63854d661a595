// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// JoinTree: the maximum-overlap spanning tree over a schema's relations.
// For an acyclic (GYO-reducible) schema this tree satisfies the running
// intersection property (Bernstein & Goodman), so it is a valid join tree:
// every parent/child separator is exactly the shared attribute set, and
// joining along tree edges equals the full natural join. Both consumers —
// the analytic counting DP in join/metrics.cc and the materialized
// Yannakakis executor in decomp/yannakakis.cc — build their tree here, so
// the empirical-vs-analytic differential audits the counting, never a tree
// disagreement.

#ifndef MAIMON_JOIN_JOIN_TREE_H_
#define MAIMON_JOIN_JOIN_TREE_H_

#include <cstddef>
#include <vector>

#include "util/attr_set.h"

namespace maimon {

struct JoinTree {
  /// parent[v] is v's parent index; -1 at the root (relation 0 in a tree
  /// built over relations; any node of an InducedSubtree).
  std::vector<int> parent;
  std::vector<std::vector<int>> children;
  /// Root-first DFS order: every node appears after its parent.
  std::vector<int> preorder;

  size_t NumNodes() const { return parent.size(); }
};

/// Builds the maximum-overlap spanning tree (Prim, rooted at relation 0)
/// over `rels`. Deterministic: ties break on the lowest relation index, so
/// every caller sees the identical tree for the same relation list.
JoinTree BuildMaxOverlapJoinTree(const std::vector<AttrSet>& rels);

/// Rebuilds a full JoinTree (children lists + root-first preorder) from a
/// parent array, e.g. one deserialized from a store/ file. Validates shape:
/// exactly one root (parent -1) at index 0, every other parent in range,
/// and no cycles (every node reaches the root). Returns false — leaving
/// `*out` untouched — when `parents` is not a valid tree; persisted bytes
/// are validated, never trusted.
bool JoinTreeFromParents(const std::vector<int>& parents, JoinTree* out);

/// Smallest connected subtree of `tree` whose nodes jointly cover every
/// attribute in `touched` (the Steiner subtree of the nodes that mention
/// them). Because a valid join tree has the running intersection property,
/// each attribute's occurrence set is itself connected, so greedy leaf
/// pruning to a fixpoint — repeatedly dropping any leaf whose touched
/// attributes all survive elsewhere — reaches the unique-up-to-ties
/// inclusion-minimal cover without search. Deterministic: candidate leaves
/// are scanned highest-index-first each round. Returns ascending node
/// indices; `touched` attributes absent from every relation are ignored
/// (callers validate against their universe first).
std::vector<int> MinimalCoveringSubtree(const JoinTree& tree,
                                        const std::vector<AttrSet>& rels,
                                        AttrSet touched);

/// The subtree of `tree` induced by `nodes` (ascending indices that form a
/// connected subtree, e.g. MinimalCoveringSubtree's output), over local
/// indices: local node i is nodes[i]. Its edges are `tree`'s own, and its
/// preorder is `tree`'s restricted to `nodes`, so it starts at the
/// subtree's root (the node whose parent is not in `nodes`), which need not
/// be local node 0. Callers that keep per-edge data of `tree` can reuse it
/// for every edge of the subtree.
JoinTree InducedSubtree(const JoinTree& tree, const std::vector<int>& nodes);

}  // namespace maimon

#endif  // MAIMON_JOIN_JOIN_TREE_H_
