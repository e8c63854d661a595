// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "decomp/audit.h"

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "decomp/projection_store.h"

namespace maimon {
namespace {

// Byte-packed key of a whole tuple. The audit keys its membership and
// distinct-row sets on these strings on purpose: it is the oracle for the
// id-keyed executor and projection store, so it shares no labeling code
// with them.
std::string PackFullTupleKey(const std::vector<uint32_t>& tuple) {
  return std::string(reinterpret_cast<const char*>(tuple.data()),
                     tuple.size() * sizeof(uint32_t));
}

}  // namespace

DecompositionAudit DecomposeAndAudit(const Relation& relation,
                                     const Schema& schema,
                                     const InfoCalc& oracle,
                                     const DecompAuditOptions& options) {
  DecompositionAudit audit;
  if (schema.NumRelations() == 0) {
    audit.status = Status::InvalidArgument("empty schema");
    return audit;
  }
  if (!schema.IsAcyclic()) {
    audit.status = Status::InvalidArgument(
        "cyclic schema: no join tree, audit undefined");
    return audit;
  }

  // The analytic side: S/E/J plus the counting-DP join_rows.
  {
    obs::Span span(options.sink, "audit.analytic");
    audit.analytic = EvaluateSchema(relation, schema, oracle);
  }

  // The materialized side: deduplicated projections + accounting.
  std::unique_ptr<const ProjectionStore> store_holder;
  {
    obs::Span span(options.sink, "audit.store");
    store_holder = std::make_unique<const ProjectionStore>(relation, schema);
    span.Arg("projections", store_holder->NumProjections());
  }
  const ProjectionStore& store = *store_holder;
  audit.projections.reserve(store.NumProjections());
  for (const StoredProjection& p : store.projections()) {
    audit.projections.push_back({p.attrs, p.NumRows(), p.Cells(), p.Bytes()});
  }
  audit.savings_pct = store.SavingsPct();

  const Deadline deadline = options.budget_seconds > 0
                                ? Deadline::After(options.budget_seconds)
                                : Deadline::Infinite();
  YannakakisExecutor executor(store);
  YannakakisOptions exec_options;
  exec_options.materialize = options.materialize;
  exec_options.deadline = &deadline;
  exec_options.num_threads = options.num_threads;
  exec_options.sink = options.sink;
  audit.join = executor.Execute(exec_options);
  audit.join_rows = audit.join.rows;
  audit.semijoin_dropped = executor.semijoin_dropped();
  audit.status = audit.join.status;

  audit.original_rows = relation.NumRows();
  if (!audit.status.ok()) {
    // Partial audit: counts reflect the phases that completed before the
    // budget blew; the boolean verdicts stay false rather than claim
    // anything unverified, and the probe sweep below is skipped outright —
    // a caller on a blown budget wants out, not more passes.
    return audit;
  }

  // Original-instance counts over the schema universe (the DP's baseline:
  // set semantics on the covered attributes), fused with the membership
  // probe: each distinct row t is checked against the reduced store with
  // the definition of the natural join — t is in it iff every projection
  // of t is present — independent of the enumeration. The sweep polls the
  // same deadline as the join phases (every 1024 rows).
  obs::Span probe_span(options.sink, "audit.probe");
  const std::vector<StoredProjection> reduced = executor.ReducedProjections();
  std::vector<std::unordered_set<std::string>> members(reduced.size());
  std::vector<uint32_t> tuple;
  for (size_t v = 0; v < reduced.size(); ++v) {
    const StoredProjection& p = reduced[v];
    tuple.resize(p.columns.size());
    members[v].reserve(p.NumRows());
    for (size_t r = 0; r < p.NumRows(); ++r) {
      for (size_t c = 0; c < tuple.size(); ++c) tuple[c] = p.codes[c][r];
      members[v].insert(PackFullTupleKey(tuple));
    }
  }
  const auto in_join = [&](size_t r) {
    for (size_t v = 0; v < reduced.size(); ++v) {
      tuple.resize(reduced[v].columns.size());
      for (size_t c = 0; c < tuple.size(); ++c) {
        tuple[c] = relation.Value(r, reduced[v].columns[c]);
      }
      if (members[v].count(PackFullTupleKey(tuple)) == 0) return false;
    }
    return true;
  };

  const AttrSet universe = schema.UniverseAttrs();
  const std::vector<int> universe_cols = universe.ToVector();
  std::unordered_set<std::string> distinct;
  distinct.reserve(relation.NumRows());
  std::vector<uint32_t> row(universe_cols.size());
  bool contains = true;
  for (size_t r = 0; r < relation.NumRows(); ++r) {
    if ((r & 1023) == 0 && deadline.Expired()) {
      audit.status = Status::DeadlineExceeded("membership probe sweep");
      return audit;
    }
    for (size_t i = 0; i < universe_cols.size(); ++i) {
      row[i] = relation.Value(r, universe_cols[i]);
    }
    if (!distinct.insert(PackFullTupleKey(row)).second) continue;
    contains = contains && in_join(r);
  }
  audit.original_distinct = distinct.size();

  audit.contains_original = contains;
  audit.spurious = audit.join_rows >= audit.original_distinct
                       ? audit.join_rows - audit.original_distinct
                       : 0;
  audit.exact =
      contains && audit.join_rows == audit.original_distinct;
  // Exact double comparison on purpose: the DP accumulates integral counts
  // (sums of products of non-negative integers), exact in a double up to
  // 2^53 — a ULP mismatch is a real bug, not noise.
  audit.matches_analytic =
      static_cast<double>(audit.join_rows) == audit.analytic.join_rows;
  return audit;
}

}  // namespace maimon
