// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// YannakakisExecutor: materialized execution of an acyclic decomposition
// over its join tree (join/join_tree.h — the same maximum-overlap tree the
// analytic counting DP uses).
//
//   Reduce()  — the full semijoin reducer: a leaf-to-root pass (each node
//               semijoined with every child on the edge separator) followed
//               by a root-to-leaf pass. Afterwards every remaining tuple
//               participates in at least one join result, so the join
//               phase never generates dangling intermediates.
//   Execute() — joins in join-tree order, streaming one result row at a
//               time: in count-only mode rows are counted and discarded
//               (O(tree depth) live state, wide joins are never retained),
//               with `materialize` they are collected.
//   Count()   — the join's row count without enumerating it: after the
//               same full reduction, one leaf-to-root sum-product pass
//               (Yannakakis over the counting semiring) in O(live rows).
//
// With YannakakisOptions::distinct both answer the distinct projection of
// the join onto `output` through Yannakakis' projection step: projection
// is a sum in the Boolean semiring, so it is pushed below the join. After
// the full reduction the nodes no output attribute needs leave, and each
// kept node is cut in place to one live row per distinct key — its output
// codes plus the ids of its kept edges whose separator is not inside the
// output. When every kept separator is inside the output (the output is
// free-connex for the kept tree; Bagan, Durand and Grandjean, CSL 2007)
// the join of the cut nodes is already the distinct answer, so Execute
// needs no dedup table and Count its sum-product pass alone; otherwise
// the smaller cut join is deduplicated through a TupleIdTable.
//
// Every join step is keyed on dense separator ids, never on packed
// strings. Each join-tree edge carries EdgeIds: the id of every row of the
// child and of the parent projection, equal iff the rows agree on the
// separator. A semijoin marks the source's ids in a byte array and keeps
// the target rows whose id is marked; Execute groups each child's live
// rows by id in CSR offsets and reaches them from the current parent row's
// id; Count sums each child's row weights per id.
//
// The executor reads the column-major StoredProjections in place: each
// node holds only the ids of its live rows. Reduce filters those lists (in
// order, so the reduced store is byte-identical at any thread count),
// Execute indexes and enumerates them, writing only the output columns,
// and ReducedProjections gathers the survivors into fresh projections.
// Nothing else is copied.

#ifndef MAIMON_DECOMP_YANNAKAKIS_H_
#define MAIMON_DECOMP_YANNAKAKIS_H_

#include <cstdint>
#include <vector>

#include "decomp/projection_store.h"
#include "join/join_tree.h"
#include "obs/trace.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace maimon {

struct YannakakisOptions {
  /// Retain every joined row in JoinResult::tuples. Off by default: the
  /// audit only needs the streamed count, so wide reconstructions stay
  /// O(1) in result size.
  bool materialize = false;
  /// Polled inside the reducer's per-tuple loops (every 1024 tuples), and
  /// every 1024 rows of the cut, of the enumeration and of Count's pass;
  /// expiry returns kDeadlineExceeded (Execute: with the partial count).
  /// Nullable.
  const Deadline* deadline = nullptr;
  /// Worker threads for the semijoin reducer: 1 = sequential, 0 = all
  /// hardware threads, N = exactly N. Reduction output is byte-identical
  /// for every value (see Reduce). The join enumeration itself stays
  /// single-threaded — it streams one row at a time by design.
  int num_threads = 1;
  /// Observability sink (nullable): `yk.reduce` / `yk.cut` / `yk.join` /
  /// `yk.count` spans plus the `yk.semijoin_dropped`, `yk.semijoin_passes`
  /// and `yk.join_rows` (rows enumerated) counters.
  obs::Sink* sink = nullptr;
  /// The columns each joined row carries (JoinResult::columns): these
  /// attributes of the join, ascending. Empty means every attribute. serve/
  /// passes the query's projection, so no row carries a column the caller
  /// would drop.
  AttrSet output;
  /// Set semantics over `output`: Execute returns, and Count counts, each
  /// distinct output row once, through the projection step (see the file
  /// comment) — the nodes are cut in place, so a distinct call is the
  /// executor's last. Off, the rows are the join's, projected row by row.
  bool distinct = false;
};

struct JoinResult {
  /// Output columns: YannakakisOptions::output's original indices (the
  /// whole universe by default), ascending.
  std::vector<int> columns;
  /// Exact number of rows of the natural join of the projections — of its
  /// distinct projection onto the columns under `distinct` (partial when
  /// Execute's status is kDeadlineExceeded; 0 when Count's status is not
  /// OK).
  uint64_t rows = 0;
  /// Join rows the enumeration visited: `rows` for a plain Execute, the
  /// cut join's rows under `distinct`, and 0 for a Count its sum-product
  /// pass answers.
  uint64_t enumerated = 0;
  /// Joined rows in `columns` order; filled only when materialize is set.
  std::vector<std::vector<uint32_t>> tuples;
  Status status;
};

/// One executor input: a stored projection and the ids of its rows that
/// take part in the join.
struct ProjectionRows {
  const StoredProjection* projection = nullptr;
  std::vector<uint32_t> rows;
};

/// Dense ids of one join-tree edge's separator (the attributes the child
/// and parent projections share): child[r] is the id of the child's row r,
/// parent[r] that of the parent's row r, both in [0, num_ids). Two rows,
/// on either side, share an id iff they agree on the separator. An empty
/// separator gives every row id 0.
struct EdgeIds {
  std::vector<uint32_t> child;
  std::vector<uint32_t> parent;
  uint32_t num_ids = 0;
};

/// Labels every row of `child` and of `parent` by its separator tuple, in
/// first-occurrence order (child rows first), through one TupleIdTable.
EdgeIds LabelEdge(const StoredProjection& child,
                  const StoredProjection& parent);

class YannakakisExecutor {
 public:
  /// Joins every row of every projection of `store`, read in place:
  /// `store` must outlive the executor.
  explicit YannakakisExecutor(const ProjectionStore& store);

  /// Joins the given projections along `tree` (over input indices; e.g.
  /// an InducedSubtree of a store's join tree), each restricted to its
  /// listed rows — serve/'s pushdown-filtered plans. `edges[v]` holds the
  /// separator ids of the edge from input v to its parent in `tree`
  /// (ignored at the root), labeled over every row of both projections.
  /// The projections and the ids must outlive the executor.
  YannakakisExecutor(std::vector<ProjectionRows> inputs, JoinTree tree,
                     const std::vector<const EdgeIds*>& edges);

  /// Full semijoin reduction (idempotent; Execute runs it on demand).
  /// Deadline expiry leaves the store partially reduced and returns
  /// kDeadlineExceeded — the join result would still be correct, just
  /// slower, but callers on a blown budget want out, not a join.
  ///
  /// Both passes are level-scheduled: nodes of equal tree depth are
  /// filtered concurrently on `num_threads` workers (inline on the calling
  /// thread at one), each task owning one node and walking its children in
  /// order, with a barrier between levels. A node only ever reads
  /// neighbors whose level is already final and only mutates itself
  /// (leaf-to-root) or its own children (root-to-leaf), and semijoin
  /// filtering preserves row order, so the reduced store — and therefore
  /// the join — is byte-identical at any thread count.
  Status Reduce(const Deadline* deadline, int num_threads = 1,
                obs::Sink* sink = nullptr);

  /// Streams the join; see YannakakisOptions.
  JoinResult Execute(const YannakakisOptions& options);

  /// The join's row count, without enumerating a row: the same full
  /// reduction as Execute (so semijoin_passes() reads the same), then one
  /// leaf-to-root sum-product pass over the live rows. Reads every option
  /// but materialize. Under `distinct` it counts the distinct output rows:
  /// by the sum-product pass over the cut nodes when the output is
  /// free-connex for them, else by enumerating the cut join through a
  /// dedup table. A count that does not fit in 64 bits returns
  /// kResourceExhausted, never a wrapped value; deadline expiry returns
  /// kDeadlineExceeded.
  JoinResult Count(const YannakakisOptions& options);

  /// Tuples dropped across both reducer passes (dangling tuples: stored
  /// projection rows that join with no row of some neighbor).
  uint64_t semijoin_dropped() const { return semijoin_dropped_; }

  /// Per-edge semijoin applications performed so far: a complete reduction
  /// runs exactly 2 * (nodes - 1). serve/ gates its pruned plans on this —
  /// a covering-subtree plan must apply strictly fewer passes than the
  /// full-plan reduction of the same store.
  uint64_t semijoin_passes() const { return semijoin_passes_; }

  /// The current live rows of every node gathered into fresh
  /// StoredProjections (attrs/columns/domains as given). After a complete
  /// Reduce() this is the globally consistent store serve/ snapshots: the
  /// join of any connected subtree of it equals the projection of the full
  /// join onto that subtree's attributes. (After a distinct call: the cut
  /// nodes.)
  std::vector<StoredProjection> ReducedProjections() const;

  const JoinTree& tree() const { return tree_; }

 private:
  // One node's execution state: the projection it reads, its live rows and
  // the separator ids of the edge to its parent (null at the root).
  struct Node {
    const StoredProjection* projection = nullptr;
    std::vector<uint32_t> live;
    const EdgeIds* up = nullptr;
  };

  Status ReduceImpl(const Deadline* deadline, int num_threads,
                    obs::Sink* sink);
  // The columns of a join that keeps `output` (all when empty).
  std::vector<int> OutputColumns(AttrSet output) const;
  // What Execute and Count share: the output columns, the full reduction
  // and, under `distinct`, the cut. False when result->status is not OK;
  // *dedup tells whether the cut join still repeats output rows.
  bool Prepare(const YannakakisOptions& options, JoinResult* result,
               bool* dedup);
  // The projection step over `output` (see the file comment).
  Status Cut(const YannakakisOptions& options, bool* dedup);
  // Drops the nodes no attribute of `output` needs; returns how many left.
  size_t DropUnneeded(AttrSet output);
  // Streams the join of the live rows into `result`, keeping each distinct
  // row once when `dedup` is set.
  void Enumerate(const Deadline* deadline, obs::Sink* sink, bool materialize,
                 bool dedup, JoinResult* result) const;
  // The join's row count by one leaf-to-root sum-product pass.
  Status SumProduct(const Deadline* deadline, uint64_t* total) const;

  JoinTree tree_;
  std::vector<Node> nodes_;
  AttrSet universe_;
  std::vector<EdgeIds> owned_edges_;  // the store constructor's labels
  uint64_t semijoin_dropped_ = 0;
  uint64_t semijoin_passes_ = 0;
  bool reduced_ = false;
  bool cut_ = false;  // a distinct call ran, so the nodes may be cut
};

}  // namespace maimon

#endif  // MAIMON_DECOMP_YANNAKAKIS_H_
