// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Figures 10 & 11 reproduction: the Nursery use case (Sec. 8.1).
//
// The paper sweeps the threshold J from 0 to 0.5 over the real UCI Nursery
// data (12,960 rows, 9 attributes, full Cartesian product of the inputs),
// finds 415 schemes, and reports the pareto frontier of storage savings S
// versus spurious-tuple rate E. Our Nursery regeneration has the identical
// product structure (DESIGN.md). The sweep drives the full ASMiner
// pipeline: mined MVDs -> conflict graph -> maximal independent sets ->
// join-tree assembly -> canonical dedup -> S/E/J ranking. Expected shape:
// no exact decomposition at J = 0 beyond the near-trivial class split; as
// J grows, schemes decompose into more relations with larger S at the
// price of larger E, and several schemes reach S > 80% at moderate E.

#include <algorithm>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "data/nursery.h"
#include "scheme/ranker.h"

namespace maimon {
namespace bench {
namespace {

struct SchemeRow {
  double eps;
  SchemaReport report;
  std::string schema;
};

// Shared header/row format of the pareto and top-k tables.
void PrintSchemeTableHeader() {
  std::printf("%8s %8s %8s %4s %6s  %s\n", "J", "S[%]", "E[%]", "m",
              "width", "schema");
  Rule();
}

void PrintSchemeRow(const SchemeRow& row) {
  std::printf("%8.3f %8.1f %8.1f %4d %6d  %s\n", row.report.j_measure,
              row.report.savings_pct, row.report.spurious_pct,
              row.report.num_relations, row.report.width,
              row.schema.c_str());
}

void Run(double budget_per_eps, size_t max_schemas, bool json,
         const std::string& trace_path, const std::string& metrics_path) {
  ObsSession obs(trace_path, metrics_path);
  Relation nursery = NurseryDataset();
  if (!json) {
    Header("Figures 10-11: Nursery use case",
           "rows=" + std::to_string(nursery.NumRows()) +
               " cells=" + std::to_string(nursery.CellCount()) +
               " (matches paper: 12960 rows, 116640 cells)");
  }

  std::vector<SchemeRow> all;
  for (double eps : {0.0, 0.02, 0.05, 0.08, 0.1, 0.12, 0.15, 0.18, 0.2,
                     0.25, 0.3, 0.4, 0.5}) {
    MaimonConfig config;
    config.epsilon = eps;
    config.mvd_budget_seconds = budget_per_eps;
    config.schema_budget_seconds = budget_per_eps;
    config.schemas.max_schemas = max_schemas;
    config.sink = obs.sink();
    Maimon maimon(nursery, config);
    AsMinerResult schemas = maimon.MineSchemas();

    // Score every scheme with the exact S/E/J metrics. Each phase (mine,
    // enumerate, rank) carves its own --budget deadline, so one eps step
    // can take up to 3x --budget of wall clock; on ranking expiry the
    // scored prefix is kept.
    RankerOptions rank_options;
    rank_options.top_k = schemas.schemas.size();
    rank_options.primary = RankKey::kJMeasure;
    rank_options.budget_seconds = budget_per_eps;
    rank_options.sink = obs.sink();
    RankResult ranked =
        RankSchemes(nursery, schemas.schemas, maimon.oracle(), rank_options);
    FoldEngineMetrics(obs.sink(), maimon.engine().stats());
    for (RankedScheme& s : ranked.ranked) {
      all.push_back({eps, s.report, s.schema.ToString()});
    }

    const std::string marker =
        SchemeRunMarker(schemas, ranked.status.IsDeadlineExceeded());
    if (json) {
      // Same JSONL row discipline as fig13/fig14 (--json on every figure
      // bench): one object per eps row, shared emission in bench_util.h.
      PrintSchemeRunJsonRow(10, "Nursery", eps, schemas, marker);
    } else {
      std::printf(
          "[eps=%.2f] schemes=%zu (MIS=%llu, conflict graph: %zu MVDs / %zu "
          "edges)%s\n",
          eps, schemas.schemas.size(),
          static_cast<unsigned long long>(schemas.independent_sets),
          schemas.conflict_vertices, schemas.conflict_edges, marker.c_str());
    }
  }
  if (json) return;  // JSONL mode keeps stdout pure rows

  // Deduplicate schemes found at several thresholds: keep first.
  std::vector<SchemeRow> distinct;
  for (const SchemeRow& row : all) {
    bool seen = false;
    for (const SchemeRow& d : distinct) seen |= d.schema == row.schema;
    if (!seen) distinct.push_back(row);
  }
  std::printf("\ntotal distinct schemes discovered: %zu (paper: 415 with "
              "a 30-min budget per threshold)\n\n",
              distinct.size());

  // Pareto frontier on (savings up, spurious down), Fig. 11's line.
  std::vector<const SchemeRow*> pareto;
  for (const SchemeRow& row : distinct) {
    bool dominated = false;
    for (const SchemeRow& other : distinct) {
      if (&other != &row &&
          other.report.savings_pct >= row.report.savings_pct &&
          other.report.spurious_pct <= row.report.spurious_pct &&
          (other.report.savings_pct > row.report.savings_pct ||
           other.report.spurious_pct < row.report.spurious_pct)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) pareto.push_back(&row);
  }
  std::sort(pareto.begin(), pareto.end(),
            [](const SchemeRow* a, const SchemeRow* b) {
              return a->report.j_measure < b->report.j_measure;
            });

  std::printf("pareto-optimal schemes (Fig. 10's J, S, E, m):\n");
  PrintSchemeTableHeader();
  for (const SchemeRow* row : pareto) PrintSchemeRow(*row);

  // Fig. 10's ranked listing: best storage savers across the whole sweep.
  std::sort(distinct.begin(), distinct.end(),
            [](const SchemeRow& a, const SchemeRow& b) {
              if (a.report.savings_pct != b.report.savings_pct) {
                return a.report.savings_pct > b.report.savings_pct;
              }
              return a.report.spurious_pct < b.report.spurious_pct;
            });
  const size_t top = std::min<size_t>(8, distinct.size());
  std::printf("\ntop %zu schemes by storage savings S:\n", top);
  PrintSchemeTableHeader();
  for (size_t i = 0; i < top; ++i) PrintSchemeRow(distinct[i]);
}

}  // namespace
}  // namespace bench
}  // namespace maimon

int main(int argc, char** argv) {
  double budget = 5.0;
  size_t max_schemas = 200;
  bool json = false;
  std::string trace_path;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (maimon::bench::SecondsFlag(argv[i], "--budget=", &budget)) {
    } else if (maimon::bench::CountFlag(argv[i], "--max-schemas=",
                                        &max_schemas)) {
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (maimon::bench::ParseObsFlag(argv[i], &trace_path,
                                           &metrics_path)) {
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  maimon::bench::Run(budget, max_schemas, json, trace_path, metrics_path);
  return 0;
}
