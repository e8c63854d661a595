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
//   Execute() — joins in join-tree order via per-edge hash indexes
//               (separator key -> child row ids), streaming one result row
//               at a time: in count-only mode rows are counted and
//               discarded (O(tree depth) live state, wide joins are never
//               retained), with `materialize` they are collected.
//
// The executor reads the column-major StoredProjections in place: each
// node holds only the ids of its live rows. Reduce filters those lists (in
// order, so the reduced store is byte-identical at any thread count),
// Execute indexes and enumerates them, and ReducedProjections gathers the
// survivors into fresh projections. Nothing else is copied.

#ifndef MAIMON_DECOMP_YANNAKAKIS_H_
#define MAIMON_DECOMP_YANNAKAKIS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
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
  /// Polled inside the reducer's per-tuple loops (every 1024 tuples) and
  /// every 1024 enumerated join rows; expiry returns the partial count with
  /// kDeadlineExceeded. Nullable.
  const Deadline* deadline = nullptr;
  /// Worker threads for the semijoin reducer: 1 = sequential, 0 = all
  /// hardware threads, N = exactly N. Reduction output is byte-identical
  /// for every value (see Reduce). The join enumeration itself stays
  /// single-threaded — it streams one row at a time by design.
  int num_threads = 1;
  /// Observability sink (nullable): `yk.reduce` / `yk.join` spans plus the
  /// `yk.semijoin_dropped`, `yk.semijoin_passes` and `yk.join_rows`
  /// counters.
  obs::Sink* sink = nullptr;
  /// Streamed per joined row, in `JoinResult::columns` order, before the
  /// materialize check — serve/'s projection hook: callers project and
  /// deduplicate one row at a time instead of retaining the wide join.
  /// The referenced vector is the enumerator's scratch row; copy what you
  /// keep. Nullable.
  std::function<void(const std::vector<uint32_t>&)> on_row;
};

struct JoinResult {
  /// Output columns: the schema universe's original indices, ascending.
  std::vector<int> columns;
  /// Exact number of rows of the natural join of the projections (partial
  /// when status is kDeadlineExceeded).
  uint64_t rows = 0;
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

class YannakakisExecutor {
 public:
  /// Joins every row of every projection of `store`, read in place:
  /// `store` must outlive the executor.
  explicit YannakakisExecutor(const ProjectionStore& store);

  /// Joins the given projections (an acyclic schema, e.g. a connected
  /// subtree of a store's join tree), each restricted to its listed rows —
  /// serve/'s pushdown-filtered plans. The projections must outlive the
  /// executor.
  explicit YannakakisExecutor(std::vector<ProjectionRows> inputs);

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
  /// join onto that subtree's attributes.
  std::vector<StoredProjection> ReducedProjections() const;

  const JoinTree& tree() const { return tree_; }

 private:
  // One node's execution state: the projection it reads and its live rows.
  struct Node {
    const StoredProjection* projection = nullptr;
    std::vector<uint32_t> live;           // live row ids
    std::vector<int> sep_positions;       // parent separator, own columns
    std::vector<int> parent_positions;    // same separator, parent columns
    std::vector<int> sep_slots;           // same separator, output slots
    // Separator key -> live row ids, built by Execute for non-root nodes.
    std::unordered_map<std::string, std::vector<uint32_t>> index;
  };

  Status ReduceImpl(const Deadline* deadline, int num_threads,
                    obs::Sink* sink);
  // Depth-first extension over preorder position `depth`; returns false on
  // deadline expiry.
  bool Extend(size_t depth, std::vector<uint32_t>* out, JoinResult* result,
              const YannakakisOptions& options, uint64_t* poll_counter);

  JoinTree tree_;
  std::vector<Node> nodes_;
  std::vector<int> out_columns_;               // universe, ascending
  std::vector<std::vector<size_t>> out_positions_;  // node col -> out slot
  uint64_t semijoin_dropped_ = 0;
  uint64_t semijoin_passes_ = 0;
  bool reduced_ = false;
};

}  // namespace maimon

#endif  // MAIMON_DECOMP_YANNAKAKIS_H_
