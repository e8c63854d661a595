// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "decomp/tuple_ids.h"
#include "decomp/yannakakis.h"
#include "join/join_tree.h"
#include "store/mapped_store.h"

namespace maimon {
namespace serve {
namespace {

// Snapshot builds pay the full Yannakakis reduction once, on one thread and
// off the query path: afterwards every stored tuple participates in the
// full join, which is the precondition for answering from a covering
// subtree alone. No deadline — a partially reduced snapshot would silently
// break that identity for every later query. Stores already marked
// canonical (loaded from a reduced store file, or re-adopted reduced
// projections) skip the re-reduction outright — reduction is idempotent,
// so the skip changes cold-start cost, never results.
ProjectionStore Canonicalize(ProjectionStore store,
                             const ServiceOptions& options) {
  if (store.canonical()) return store;
  YannakakisExecutor executor(store);
  executor.Reduce(/*deadline=*/nullptr, /*num_threads=*/1, options.sink);
  return ProjectionStore(executor.ReducedProjections(),
                         store.original_cells(), /*canonical=*/true);
}

// Positions of `attrs` inside the ascending column list `columns`.
std::vector<size_t> SlotsOf(const std::vector<int>& columns, AttrSet attrs) {
  std::vector<size_t> slots;
  slots.reserve(static_cast<size_t>(attrs.Count()));
  for (size_t i = 0; i < columns.size(); ++i) {
    if (attrs.Contains(columns[i])) slots.push_back(i);
  }
  return slots;
}

// The column of `proj` holding `attr` (one of its attributes).
size_t ColumnOf(const StoredProjection& proj, int attr) {
  size_t col = 0;
  while (proj.columns[col] != attr) ++col;
  return col;
}

}  // namespace

Snapshot::Snapshot(ProjectionStore store, const ServiceOptions& options)
    : store_(Canonicalize(std::move(store), options)), planner_(&store_) {
  point_index_.resize(store_.NumProjections());
  for (size_t v = 0; v < store_.NumProjections(); ++v) {
    const size_t cols = store_.projections()[v].columns.size();
    point_index_[v].reserve(cols);
    for (size_t i = 0; i < cols; ++i) {
      point_index_[v].push_back(std::make_unique<LazyIndex>());
    }
    edge_ids_.push_back(std::make_unique<LazyEdge>());
  }
}

const Snapshot::ValueIndex& Snapshot::PointIndex(int node, size_t col) const {
  LazyIndex& index = *point_index_[static_cast<size_t>(node)][col];
  std::call_once(index.once, [&] {
    const StoredProjection& proj =
        store_.projections()[static_cast<size_t>(node)];
    const std::vector<uint32_t>& column = proj.codes[col];
    // Codes may be sparse (domain up to 2^32 - 1): at most one key per row.
    index.rows_by_value.reserve(
        std::min<size_t>(proj.domains[col], column.size()));
    for (size_t r = 0; r < column.size(); ++r) {
      index.rows_by_value[column[r]].push_back(static_cast<uint32_t>(r));
    }
  });
  return index.rows_by_value;
}

const EdgeIds& Snapshot::EdgeIdsOf(int node) const {
  LazyEdge& edge = *edge_ids_[static_cast<size_t>(node)];
  std::call_once(edge.once, [&] {
    const std::vector<StoredProjection>& projections = store_.projections();
    const int parent = planner_.tree().parent[static_cast<size_t>(node)];
    edge.ids = LabelEdge(projections[static_cast<size_t>(node)],
                         projections[static_cast<size_t>(parent)]);
  });
  return edge.ids;
}

QueryService::QueryService(ProjectionStore store, ServiceOptions options)
    : options_(options),
      snapshot_(std::make_shared<const Snapshot>(std::move(store), options_)) {
}

QueryResult QueryService::Execute(const Query& query) const {
  const std::shared_ptr<const Snapshot> snap = std::atomic_load(&snapshot_);
  return ExecuteOnSnapshot(*snap, query);
}

void QueryService::Swap(ProjectionStore store) {
  std::shared_ptr<const Snapshot> next =
      std::make_shared<const Snapshot>(std::move(store), options_);
  std::atomic_store(&snapshot_, std::move(next));
  generation_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const Snapshot> QueryService::snapshot() const {
  return std::atomic_load(&snapshot_);
}

Status QueryService::FromFile(const std::string& path, ServiceOptions options,
                              std::unique_ptr<QueryService>* out) {
  ProjectionStore loaded(std::vector<StoredProjection>(), 0);
  const Status status =
      store::LoadProjectionStore(path, &loaded, options.sink);
  if (!status.ok()) return status;
  *out = std::make_unique<QueryService>(std::move(loaded), options);
  return Status::Ok();
}

Status QueryService::SwapFromFile(const std::string& path) {
  ProjectionStore loaded(std::vector<StoredProjection>(), 0);
  const Status status =
      store::LoadProjectionStore(path, &loaded, options_.sink);
  if (!status.ok()) return status;
  Swap(std::move(loaded));
  return Status::Ok();
}

QueryResult QueryService::ExecuteOnSnapshot(const Snapshot& snap,
                                            const Query& query) const {
  obs::Sink* sink = options_.sink;
  obs::Span span(sink, "serve.query");
  QueryResult result;
  const QueryPlan plan = snap.planner().Plan(query);
  result.status = plan.status;
  if (!plan.status.ok()) {
    obs::Count(sink, "serve.rejected", 1);
    return result;
  }
  result.columns = plan.output.ToVector();
  result.plan_nodes = plan.nodes.size();
  result.point_lookup = plan.point_lookup;

  const double budget = query.budget_seconds > 0
                            ? query.budget_seconds
                            : options_.default_budget_seconds;
  const Deadline deadline =
      budget > 0 ? Deadline::After(budget) : Deadline::Infinite();
  const Deadline* dl = budget > 0 ? &deadline : nullptr;

  obs::Count(sink, "serve.queries", 1);
  obs::Observe(sink, "serve.plan_nodes", plan.nodes.size());
  obs::Count(sink, "serve.pruned_nodes",
             snap.store().NumProjections() - plan.nodes.size());

  if (plan.point_lookup) {
    obs::Count(sink, "serve.point_lookups", 1);
    PointLookup(snap, plan, query, &result);
  } else if (plan.index_scan) {
    IndexScan(snap, plan, query, &result);
  } else {
    RunSubtree(snap, plan, query, dl, &result);
  }

  if (span.active()) {
    span.Arg("attrs", query.attrs.ToString());
    span.Arg("nodes", static_cast<int>(plan.nodes.size()));
    span.Arg("rows_in", result.rows_in);
    span.Arg("enumerated", result.rows_enumerated);
    span.Arg("rows", result.rows);
  }
  obs::Count(sink, "serve.rows", result.rows);
  if (result.status.IsDeadlineExceeded()) {
    obs::Count(sink, "serve.deadline_exceeded", 1);
  }
  return result;
}

void QueryService::PointLookup(const Snapshot& snap, const QueryPlan& plan,
                               const Query& query,
                               QueryResult* result) const {
  const PlanNode& pnode = plan.nodes[0];
  const StoredProjection& proj =
      snap.store().projections()[static_cast<size_t>(pnode.store_index)];
  const Selection& sel = query.selections[0];
  const Snapshot::ValueIndex& index =
      snap.PointIndex(pnode.store_index, ColumnOf(proj, sel.attr));
  const auto it = index.find(sel.lo);
  if (it == index.end()) return;  // zero matches, status Ok
  result->rows_in = it->second.size();
  const std::vector<size_t> slots = SlotsOf(proj.columns, plan.output);
  TupleIdTable seen(slots.size());
  std::vector<uint32_t> out(slots.size());
  for (uint32_t r : it->second) {
    for (size_t i = 0; i < slots.size(); ++i) out[i] = proj.codes[slots[i]][r];
    if (plan.needs_dedup && !seen.Insert(out.data()).second) continue;
    ++result->rows;
    if (!query.count_only) result->tuples.push_back(out);
  }
}

void QueryService::IndexScan(const Snapshot& snap, const QueryPlan& plan,
                             const Query& query, QueryResult* result) const {
  const int node = plan.nodes[0].store_index;
  const Snapshot::ValueIndex& index = snap.PointIndex(
      node, ColumnOf(snap.store().projections()[static_cast<size_t>(node)],
                     plan.output.First()));
  result->rows_in = index.size();
  result->rows = index.size();
  if (query.count_only) return;
  result->tuples.reserve(index.size());
  for (const auto& entry : index) result->tuples.push_back({entry.first});
}

void QueryService::RunSubtree(const Snapshot& snap, const QueryPlan& plan,
                              const Query& query, const Deadline* deadline,
                              QueryResult* result) const {
  const std::vector<StoredProjection>& projections =
      snap.store().projections();

  // The covering projections are read in place: each enters the executor
  // as the ids of its rows that pass every pushed-down predicate, so the
  // executor only ever semijoins the filtered row sets. Filtering can
  // leave rows dangling across nodes; a connected subtree of a join tree
  // is itself an acyclic schema, so the executor's own reduction over it
  // restores consistency within the subtree.
  std::vector<ProjectionRows> inputs;
  inputs.reserve(plan.nodes.size());
  std::vector<int> cover;
  cover.reserve(plan.nodes.size());
  uint64_t polls = 0;
  for (const PlanNode& pnode : plan.nodes) {
    const StoredProjection& proj =
        projections[static_cast<size_t>(pnode.store_index)];
    std::vector<std::pair<const std::vector<uint32_t>*, Selection>> preds;
    preds.reserve(pnode.selections.size());
    for (const Selection& sel : pnode.selections) {
      preds.emplace_back(&proj.codes[ColumnOf(proj, sel.attr)], sel);
    }
    ProjectionRows in;
    in.projection = &proj;
    in.rows.reserve(proj.NumRows());
    for (uint32_t r = 0; r < proj.NumRows(); ++r) {
      if ((++polls & 1023) == 0 && DeadlineExpired(deadline)) {
        result->status = Status::DeadlineExceeded("serve pushdown filter");
        return;
      }
      bool keep = true;
      for (const auto& [column, sel] : preds) {
        if (!sel.Matches((*column)[r])) {
          keep = false;
          break;
        }
      }
      if (keep) in.rows.push_back(r);
    }
    result->rows_in += in.rows.size();
    inputs.push_back(std::move(in));
    cover.push_back(pnode.store_index);
  }

  // The cover is a connected subtree of the planner's join tree, so the
  // subtree it induces is a join tree of the plan, and each of its edges
  // is a planner edge whose separator ids the snapshot caches.
  JoinTree tree = InducedSubtree(snap.planner().tree(), cover);
  std::vector<const EdgeIds*> edges(cover.size(), nullptr);
  for (size_t i = 0; i < cover.size(); ++i) {
    if (tree.parent[i] >= 0) edges[i] = &snap.EdgeIdsOf(cover[i]);
  }
  YannakakisExecutor executor(std::move(inputs), std::move(tree), edges);
  YannakakisOptions yopts;
  yopts.deadline = deadline;
  yopts.num_threads = 1;
  yopts.sink = options_.sink;
  yopts.output = plan.output;
  // Output equal to the covered attributes: the subtree join of
  // distinct-row projections is already distinct. Otherwise the executor
  // projects before it joins.
  yopts.distinct = plan.needs_dedup;
  yopts.materialize = !query.count_only;
  JoinResult joined =
      query.count_only ? executor.Count(yopts) : executor.Execute(yopts);
  result->status = joined.status;
  result->rows = joined.rows;
  result->rows_enumerated = joined.enumerated;
  result->tuples = std::move(joined.tuples);
  result->semijoin_passes = executor.semijoin_passes();
}

}  // namespace serve
}  // namespace maimon
