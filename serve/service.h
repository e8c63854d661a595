// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// QueryService: the long-lived serving layer in front of one decomposed
// store. Queries read an IMMUTABLE snapshot — built once from a
// ProjectionStore by running the full Yannakakis reduction so the stored
// projections are globally consistent (every tuple participates in the
// full join). From then on the partial-reconstruction identity holds: the
// join of any connected join-tree subtree equals the projection of the
// full join onto that subtree's attributes, which is what lets the
// planner's pruned plans answer k-attribute queries without touching the
// rest of the tree.
//
// Concurrency model: the service holds a shared_ptr<const Snapshot> that
// readers load atomically (C++17 atomic shared_ptr free functions) —
// queries never take the service's lock, and Swap() publishes a freshly
// reduced snapshot while in-flight queries keep the old one alive. Lazy
// per-projection point-lookup indexes and per-edge separator ids are built
// inside the snapshot under std::call_once, on the first query that needs
// them, so both are build-once/read-many and a snapshot's set-up pays for
// neither.
//
// A query joins its plan's covering projections along the subtree of the
// planner's join tree they induce, keyed on the snapshot's cached
// separator ids, and the executor writes only the query's columns. A plan
// whose output is a strict subset of its covered attributes asks the
// executor for set semantics (YannakakisOptions::distinct): after the
// reduction each covering node is cut to its distinct output-and-separator
// keys, and only the join of the cut nodes is enumerated. A count-only
// query is answered by the executor's Count — the sum-product pass
// whenever the (cut) join is distinct. An unfiltered one-column query
// reads its distinct values from the keys of that column's point index.
//
// Per query: an obs "serve.query" span (attrs, nodes, rows_in, enumerated,
// rows; its args are built only when the span is recorded) plus serve.*
// counters (queries, rows, plan_nodes, pruned_nodes, point_lookups,
// deadline_exceeded, rejected), and a wall deadline (query budget or
// service default) enforced down through the executor's per-tuple
// polling.

#ifndef MAIMON_SERVE_SERVICE_H_
#define MAIMON_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "decomp/projection_store.h"
#include "decomp/yannakakis.h"
#include "obs/trace.h"
#include "serve/planner.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace maimon {
namespace serve {

struct ServiceOptions {
  /// Default per-query wall budget in seconds; <= 0 means unbounded.
  /// Query::budget_seconds overrides it per call.
  double default_budget_seconds = 0;
  /// Observability sink (nullable), shared by every query thread.
  obs::Sink* sink = nullptr;
};

struct QueryResult {
  Status status;
  /// Result columns: the query's attributes, ascending original indices.
  std::vector<int> columns;
  /// Distinct result rows (set semantics). Partial when status is
  /// kDeadlineExceeded.
  uint64_t rows = 0;
  /// The rows themselves, in `columns` order; empty when count_only.
  std::vector<std::vector<uint32_t>> tuples;
  /// Served by the cached hash-index fast path (no executor ran).
  bool point_lookup = false;
  /// Covering-subtree size the planner chose for this query.
  size_t plan_nodes = 0;
  /// Semijoin passes the pruned execution actually ran — the observable
  /// proof of pruning (full plan = 2 * (store nodes - 1); see serve_test).
  /// A count-only answer runs the same reduction, so it reads the same.
  uint64_t semijoin_passes = 0;
  /// Rows that entered the join: the live rows after pushdown, summed over
  /// the plan's nodes (a point lookup: the rows its index returned; an
  /// index scan: the keys it read).
  uint64_t rows_in = 0;
  /// Join rows the executor visited (JoinResult::enumerated): 0 for point
  /// lookups, index scans and answers of Count's sum-product pass.
  uint64_t rows_enumerated = 0;
};

/// One immutable serving snapshot: the canonically reduced store, its
/// planner, and lazily built point-lookup indexes and separator ids.
/// Read-only after construction (both are call_once-guarded caches).
class Snapshot {
 public:
  Snapshot(ProjectionStore store, const ServiceOptions& options);

  const ProjectionStore& store() const { return store_; }
  const Planner& planner() const { return planner_; }

 private:
  friend class QueryService;

  using ValueIndex = std::unordered_map<uint32_t, std::vector<uint32_t>>;
  // Per-(node, column) value -> row-index map, built on the first query
  // that reads it and cached for the snapshot's lifetime.
  struct LazyIndex {
    std::once_flag once;
    ValueIndex rows_by_value;
  };
  // The point index of column `col` of projection `node`.
  const ValueIndex& PointIndex(int node, size_t col) const;

  // The separator ids of the planner tree's edge from a node to its
  // parent, labeled over both whole projections on the first query that
  // joins across that edge.
  struct LazyEdge {
    std::once_flag once;
    EdgeIds ids;
  };
  const EdgeIds& EdgeIdsOf(int node) const;

  ProjectionStore store_;
  Planner planner_;
  /// Caches, not state: building an index or labeling an edge does not
  /// change what any query observes, so the lazy builds are allowed behind
  /// a const snapshot.
  mutable std::vector<std::vector<std::unique_ptr<LazyIndex>>> point_index_;
  mutable std::vector<std::unique_ptr<LazyEdge>> edge_ids_;  // by child node
};

class QueryService {
 public:
  /// Takes ownership of `store`, reduces it to global consistency (this is
  /// the one expensive step, paid once, off the query path) and publishes
  /// it as the serving snapshot.
  explicit QueryService(ProjectionStore store,
                        ServiceOptions options = ServiceOptions());

  /// Cold start from a store file written by store::Writer: maps the file
  /// (store::MappedStore, CRC-validated), materializes the foreign
  /// projection store, and publishes it as the serving snapshot. A store
  /// written as canonical skips the snapshot reduction entirely — this is
  /// the milliseconds-cold-start path. Corruption surfaces as kDataLoss
  /// and `*out` stays unset.
  static Status FromFile(const std::string& path, ServiceOptions options,
                         std::unique_ptr<QueryService>* out);

  /// Answers one query against the current snapshot. Thread-safe and
  /// lock-free on the service itself; any number of threads may call
  /// concurrently, including across Swap().
  QueryResult Execute(const Query& query) const;

  /// Atomically replaces the serving snapshot with a freshly reduced one
  /// built from `store`. In-flight queries finish on the snapshot they
  /// loaded; new queries see the new store.
  void Swap(ProjectionStore store);

  /// Swap() from a store file (hot-swap to a newer snapshot by path). On
  /// any load failure the current snapshot stays published untouched.
  Status SwapFromFile(const std::string& path);

  /// The current snapshot (introspection/tests; queries pin their own).
  std::shared_ptr<const Snapshot> snapshot() const;

  /// Number of Swap() calls published so far.
  uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  const ServiceOptions& options() const { return options_; }

 private:
  QueryResult ExecuteOnSnapshot(const Snapshot& snap,
                                const Query& query) const;
  void PointLookup(const Snapshot& snap, const QueryPlan& plan,
                   const Query& query, QueryResult* result) const;
  void IndexScan(const Snapshot& snap, const QueryPlan& plan,
                 const Query& query, QueryResult* result) const;
  void RunSubtree(const Snapshot& snap, const QueryPlan& plan,
                  const Query& query, const Deadline* deadline,
                  QueryResult* result) const;

  ServiceOptions options_;
  /// Accessed only via std::atomic_load / std::atomic_store.
  std::shared_ptr<const Snapshot> snapshot_;
  std::atomic<uint64_t> generation_{0};
};

}  // namespace serve
}  // namespace maimon

#endif  // MAIMON_SERVE_SERVICE_H_
