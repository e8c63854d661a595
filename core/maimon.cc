// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "core/maimon.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/pair_grid.h"
#include "graph/mis.h"
#include "scheme/assembler.h"
#include "scheme/conflict_graph.h"

namespace maimon {
namespace {

// One (a, b) pair's complete mining output, in mined order. Results are
// indexed by pair rank, never by worker, so the merge below is
// deterministic no matter which thread ran which pair.
struct PairMineResult {
  std::vector<AttrSet> separators;
  std::vector<Mvd> mvds;
  MinSepsStats min_sep_stats;
  Status status;
};

// Mines one attribute pair: minimal separators, then full-MVD expansion
// per separator, stopping once the pair holds `max_mvds`. Pure function of
// (relation, config, a, b, max_mvds) — entropy values are exact regardless
// of cache state, so every thread count mines the same list, and a smaller
// `max_mvds` yields a prefix of it. `task.calc` must be owned by the
// calling thread.
PairMineResult MineOnePair(const PairTask& task, const MaimonConfig& config,
                           AttrSet universe, size_t max_mvds) {
  PairMineResult out;
  const int a = task.a;
  const int b = task.b;
  FullMvdSearch search(task.calc, config.epsilon, &task.deadline);
  MinSepsResult seps;
  {
    obs::Span span(config.sink, "minsep.walk");
    seps = MineMinSeps(&search, universe, a, b, &task.deadline,
                       config.mvd.min_seps);
    span.Arg("a", a);
    span.Arg("b", b);
    span.Arg("seps", seps.separators.size());
    span.Arg("oracle_calls", seps.stats.oracle_calls);
  }
  out.min_sep_stats = seps.stats;
  if (!seps.status.ok()) out.status = seps.status;

  {
    // Only a pair that will expand opens the span: K > 0 and the walk found
    // a separator. At K = 0 the loop just keeps the walk's separators.
    std::optional<obs::Span> span;
    if (config.mvd.max_full_mvds_per_separator > 0 &&
        !seps.separators.empty()) {
      span.emplace(config.sink, "mvd.expand");
    }
    bool expired = false;
    for (AttrSet s : seps.separators) {
      if (out.mvds.size() >= max_mvds) break;
      // Past the deadline the rest of the walk's separators are kept,
      // unexpanded, so a budget-cut pair still reports what its walk found.
      out.separators.push_back(s);
      if (expired) continue;
      // Find's DFS order makes a capped search a prefix of the uncapped one.
      const size_t room = std::min(config.mvd.max_full_mvds_per_separator,
                                   max_mvds - out.mvds.size());
      for (Mvd& mvd : search.Find(s, universe, a, b, room,
                                  /*optimized=*/true)) {
        out.mvds.push_back(std::move(mvd));
      }
      expired = task.deadline.Expired();
    }
    if (expired) out.status = Status::DeadlineExceeded("full MVD expansion");
    if (span) {
      span->Arg("a", a);
      span->Arg("b", b);
      span->Arg("mvds", out.mvds.size());
    }
  }
  task.span.Arg("mvds", out.mvds.size());
  return out;
}

}  // namespace

Maimon::Maimon(const Relation& relation, MaimonConfig config)
    : relation_(&relation),
      config_(config),
      engine_(std::make_unique<PliEntropyEngine>(relation, config.pli)),
      calc_(std::make_unique<InfoCalc>(engine_.get())) {}

const MvdMinerResult& Maimon::MineMvds() {
  if (mvds_mined_) return mvd_result_;
  mvds_mined_ = true;

  obs::Span mine_span(config_.sink, "mine.mvds");
  MvdMinerResult& result = mvd_result_;
  const Deadline global = config_.mvd_budget_seconds > 0
                              ? Deadline::After(config_.mvd_budget_seconds)
                              : Deadline::Infinite();
  const AttrSet universe = relation_->Universe();
  const int n = relation_->NumCols();
  const int num_pairs = n * (n - 1) / 2;
  std::vector<PairMineResult> per_pair(static_cast<size_t>(num_pairs));

  // Assembly admits only the first max_conflict_mvds distinct MVDs, so the
  // grid stops once the merged prefix holds one more than that: the extra
  // one shows that something was left out (AsMinerResult::mvds_dropped).
  // A pair's MVDs are duplicate-free (distinct separators are distinct
  // keys), so capping each pair at the same count never changes the
  // admitted prefix.
  const size_t cap = config_.schemas.max_conflict_mvds;
  const size_t stop_at = cap > 0 ? cap + 1 : SIZE_MAX;

  // Deterministic merge: pairs in (a, b) lexicographic rank order, dedup by
  // first occurrence — byte-identical to the sequential walk's output.
  // Phase counters fold from this single canonical loop (never from the
  // sharded workers), so totals are exact at any thread count.
  MinSepsStats walk_stats;
  std::unordered_set<AttrSet, AttrSetHash> sep_set;
  std::unordered_set<Mvd, MvdHash> mvd_set;
  const PairGridRun run = ForEachPairSharded(
      engine_.get(), n, config_.num_threads, &global,
      [&](const PairTask& task) {
        per_pair[task.index] = MineOnePair(task, config_, universe, stop_at);
      },
      [&](size_t i) {
        PairMineResult pr = std::move(per_pair[i]);
        for (AttrSet s : pr.separators) {
          if (sep_set.insert(s).second) result.separators.push_back(s);
        }
        for (Mvd& mvd : pr.mvds) {
          if (mvd_set.insert(mvd).second) result.mvds.push_back(std::move(mvd));
        }
        walk_stats.Accumulate(pr.min_sep_stats);
        if (result.status.ok() && !pr.status.ok()) result.status = pr.status;
        return result.mvds.size() < stop_at;
      },
      config_.sink);
  if (!run.completed && result.status.ok()) {
    result.status = Status::DeadlineExceeded("MVD mining budget");
  }

  obs::MetricsRegistry phase;
  phase.Count("minsep.seeds", walk_stats.seeds);
  phase.Count("minsep.expansions", walk_stats.expansions);
  phase.Count("minsep.oracle_calls", walk_stats.oracle_calls);
  phase.Count("mine.pairs", static_cast<uint64_t>(num_pairs));
  phase.Count("mine.pairs_merged", static_cast<uint64_t>(run.pairs_merged));
  phase.Count("mine.separators", result.separators.size());
  phase.Count("mine.mvds", result.mvds.size());
  metrics_.Merge(phase);
  if (config_.sink != nullptr) config_.sink->Fold(phase);

  mine_span.Arg("pairs", num_pairs);
  mine_span.Arg("pairs_merged", run.pairs_merged);
  mine_span.Arg("mvds", result.mvds.size());
  mine_span.Arg("threads", run.threads_used);
  // Why the grid ended: every pair merged, the conflict-MVD cap reached
  // (the last merged pair is where), or the mining budget.
  mine_span.Arg("stop", run.stopped     ? "max_conflict_mvds"
                        : run.completed ? "none"
                                        : "deadline");
  return result;
}

MinSepsStats Maimon::min_sep_stats() const {
  MinSepsStats stats;
  stats.seeds = metrics_.counter("minsep.seeds");
  stats.expansions = metrics_.counter("minsep.expansions");
  stats.oracle_calls = metrics_.counter("minsep.oracle_calls");
  return stats;
}

DecompositionAudit Maimon::DecomposeAndAudit(
    const MinedSchema& scheme, const DecompAuditOptions& options) const {
  // The facade's thread and sink knobs cover the whole pipeline: callers
  // that left the audit's own knobs at their defaults inherit them.
  DecompAuditOptions resolved = options;
  if (resolved.num_threads == 1) resolved.num_threads = config_.num_threads;
  if (resolved.sink == nullptr) resolved.sink = config_.sink;
  return maimon::DecomposeAndAudit(*relation_, scheme.schema, *calc_,
                                   resolved);
}

AsMinerResult Maimon::MineSchemas() {
  const MvdMinerResult& mined = MineMvds();
  obs::Span schemas_span(config_.sink, "assemble.schemas");
  const Deadline deadline =
      config_.schema_budget_seconds > 0
          ? Deadline::After(config_.schema_budget_seconds)
          : Deadline::Infinite();

  AsMinerResult result;
  result.status = mined.status;
  const AttrSet universe = relation_->Universe();
  // Assembly counters fold from the final result, once per MineSchemas
  // call, on every return path.
  const auto fold_assembly = [this](const AsMinerResult& r) {
    obs::MetricsRegistry phase;
    phase.Count("assemble.independent_sets", r.independent_sets);
    phase.Count("assemble.schemes", r.schemas.size());
    phase.Count("assemble.conflict_vertices", r.conflict_vertices);
    phase.Count("assemble.conflict_edges", r.conflict_edges);
    metrics_.Merge(phase);
    if (config_.sink != nullptr) config_.sink->Fold(phase);
  };
  // Each phase carves its own Deadline (MVD mining never eats into the
  // schema budget), so this only fires for near-zero budgets — but then it
  // skips the quadratic graph build entirely.
  if (deadline.Expired()) {
    result.status = Status::DeadlineExceeded("schema enumeration budget");
    fold_assembly(result);
    return result;
  }

  // Conflict graph: one vertex per mined full MVD, one edge per
  // incompatible pair — independent sets are exactly the pairwise-
  // compatible sets that assemble into join trees (Sec. 7).
  std::vector<Mvd> admitted;
  const std::vector<Mvd>* vertices = &mined.mvds;
  const size_t cap = config_.schemas.max_conflict_mvds;
  if (cap > 0 && mined.mvds.size() > cap) {
    admitted.assign(mined.mvds.begin(),
                    mined.mvds.begin() + static_cast<long>(cap));
    vertices = &admitted;
    result.mvds_dropped = mined.mvds.size() - cap;
  }
  const Graph graph = [&] {
    obs::Span span(config_.sink, "assemble.conflict_graph");
    Graph built = BuildConflictGraph(*vertices, &result.conflict_edges);
    span.Arg("vertices", vertices->size());
    span.Arg("edges", result.conflict_edges);
    return built;
  }();
  result.conflict_vertices = vertices->size();

  // No MVDs, no schemes: skip enumeration outright (the 0-vertex graph
  // would still emit one empty MIS and report a contradictory #MIS = 1).
  if (vertices->empty()) {
    fold_assembly(result);
    return result;
  }

  // Stream the maximal independent sets through one assembler on the
  // facade's own engine, deduping and capping inline, at every thread
  // count. The stream stops at the first distinct scheme past max_schemas;
  // workers splitting the enumeration could not know where that point is,
  // so each would have to assemble far past it (DESIGN.md, "Concurrency
  // model").
  obs::Span stream_span(config_.sink, "assemble.stream");
  SchemeAssembler assembler(calc_.get(), universe);
  std::unordered_set<std::string> seen;
  std::vector<const Mvd*> members;
  const bool completed =
      EnumerateMaximalIndependentSets(graph, [&](const VertexSet& mis) {
    if (deadline.Expired()) return false;
    ++result.independent_sets;
    members.clear();
    mis.ForEach(
        [&](int v) { members.push_back(&(*vertices)[static_cast<size_t>(v)]); });
    return assembler.Assemble(
        members, config_.schemas.emit_intermediate_schemes, &deadline,
        [&](AssembledScheme&& scheme) {
          if (deadline.Expired()) return false;  // also on the duplicate path
          // Canonical-form dedup: no two emitted schemes share a relation
          // set (different independent sets often imply the same schema).
          if (scheme.schema.NumRelations() < 2) return true;
          if (!seen.insert(scheme.schema.ToString()).second) return true;
          // Cap check before the push: `truncated` means a distinct scheme
          // was actually left behind, not that the count landed exactly on
          // max_schemas (matching the check-before-expand convention).
          if (result.schemas.size() >= config_.schemas.max_schemas) {
            result.truncated = true;
            return false;
          }
          result.schemas.push_back(
              {std::move(scheme.schema), scheme.j_measure});
          return !deadline.Expired();
        });
  }, &deadline);
  // The stream stops for two reasons only: the max_schemas cap
  // (`truncated`) or the deadline, polled above, between Assemble's splits
  // and inside the enumerator's recursion (gaps between maximal sets can be
  // exponential). A completed enumeration is never mislabeled, even if the
  // clock ran out on the final set.
  if (!completed && !result.truncated) {
    result.status = Status::DeadlineExceeded("schema enumeration budget");
  }
  fold_assembly(result);
  return result;
}

}  // namespace maimon
