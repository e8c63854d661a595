// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Figure 15 reproduction: quality of approximate schemas (Sec. 8.4). Per
// threshold the paper runs schema enumeration for 30 minutes and reports
// the number of schemes, the maximum number of relations over schemes, and
// the minimum width / intersection width. Expected shape: as eps grows the
// system finds schemes with more relations and smaller width (better
// decompositions).
//
// On top of the paper's analytic columns, each row audits the best (lowest
// derivation-J) scheme empirically: the decomp/ runtime materializes its
// projections, runs the Yannakakis join, and reports the measured spurious
// rate next to the analytic one. `dp=emp` marks the cross-check between
// the materialized |join| and the counting DP — the two counts come from
// independent code paths, so "!" on any row is a bug, not noise.
//
// --json emits one JSONL object per (dataset, eps) row — the same flag and
// row discipline as fig13/fig14 — so CI can archive the quality trajectory.

#include <algorithm>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "data/nursery.h"
#include "join/metrics.h"

namespace maimon {
namespace bench {
namespace {

void RunDataset(const std::string& label, const Relation& relation,
                double budget, size_t max_schemas, bool json,
                obs::Sink* sink) {
  if (!json) {
    std::printf("\n(%s) rows=%zu cols=%d\n", label.c_str(),
                relation.NumRows(), relation.NumCols());
    std::printf("%8s | %9s %9s %11s %9s %9s | %8s %8s %6s\n", "eps",
                "#schemes", "#MIS", "#relations", "width", "intWidth",
                "E[%]", "Eemp[%]", "dp=emp");
    Rule(92);
  }
  for (double eps : {0.0, 0.05, 0.1, 0.2, 0.3, 0.5}) {
    MaimonConfig config;
    config.epsilon = eps;
    config.mvd_budget_seconds = budget;
    config.schema_budget_seconds = budget;
    config.schemas.max_schemas = max_schemas;
    // Cap full MVDs per (separator, pair): the incompatibility graph is
    // quadratic in |M_eps|, and the quality metrics only need diverse
    // support candidates, not every refinement.
    config.mvd.max_full_mvds_per_separator = 3;
    // Bound the conflict graph on the wide/noisy shapes; enumeration is
    // already capped by max_schemas and the budget.
    config.schemas.max_conflict_mvds = 256;
    config.sink = sink;
    Maimon maimon(relation, config);
    AsMinerResult schemas = maimon.MineSchemas();
    int max_relations = 0;
    int min_width = relation.NumCols();
    int min_int_width = relation.NumCols();
    const MinedSchema* best = nullptr;  // lowest derivation J, first wins
    for (const MinedSchema& s : schemas.schemas) {
      max_relations = std::max(max_relations, s.schema.NumRelations());
      min_width = std::min(min_width, s.schema.Width());
      if (s.schema.NumRelations() > 1) {
        min_int_width =
            std::min(min_int_width, s.schema.IntersectionWidth());
      }
      if (best == nullptr || s.j_measure < best->j_measure) best = &s;
    }

    // Empirical audit of the best scheme: materialized Yannakakis join vs
    // the analytic counting DP, under its own --budget slice.
    DecompositionAudit audit;
    bool audited = false;
    if (best != nullptr) {
      DecompAuditOptions audit_options;
      audit_options.budget_seconds = budget;
      audit = maimon.DecomposeAndAudit(*best, audit_options);
      audited = true;
    }
    FoldEngineMetrics(sink, maimon.engine().stats());
    const bool audit_tl = audited && audit.status.IsDeadlineExceeded();
    // "!" is reserved for a genuine DP-vs-materialized disagreement; a
    // failed audit (TL or a rejected scheme) prints its own marker so a
    // non-verdict is never mistaken for the bug signal.
    const bool audit_ok = audited && audit.status.ok();
    const double e_emp =
        audited && audit.join_rows > 0
            ? 100.0 * static_cast<double>(audit.spurious) /
                  static_cast<double>(audit.join_rows)
            : 0.0;
    const std::string marker = SchemeRunMarker(schemas, audit_tl);

    if (json) {
      std::string extra;
      if (audit_ok || audit_tl) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      ",\"join_rows_dp\":%.0f,\"join_rows_emp\":%llu,"
                      "\"spurious_emp\":%llu,\"e_pct\":%.4f,"
                      "\"e_emp_pct\":%.4f,\"dp_match\":%s,\"audit_tl\":%s",
                      audit.analytic.join_rows,
                      static_cast<unsigned long long>(audit.join_rows),
                      static_cast<unsigned long long>(audit.spurious),
                      audit.analytic.spurious_pct, e_emp,
                      audit.matches_analytic ? "true" : "false",
                      audit_tl ? "true" : "false");
        extra = buf;
      }
      PrintSchemeRunJsonRow(15, label, eps, schemas, marker, extra);
      continue;
    }
    std::printf("%8.2f | %9zu %9llu %11d %9d %9d |", eps,
                schemas.schemas.size(),
                static_cast<unsigned long long>(schemas.independent_sets),
                max_relations, min_width, min_int_width);
    if (audit_ok || audit_tl) {
      std::printf(" %8.1f %8.1f %6s%s\n", audit.analytic.spurious_pct, e_emp,
                  audit_tl ? "TL" : (audit.matches_analytic ? "=" : "!"),
                  marker.c_str());
    } else {
      std::printf(" %8s %8s %6s%s\n", "-", "-", "-", marker.c_str());
    }
  }
}

void Run(double budget, size_t max_schemas, bool json,
         const std::string& trace_path, const std::string& metrics_path) {
  ObsSession obs(trace_path, metrics_path);
  if (!json) {
    Header("Figure 15: quality of approximate schemas vs threshold",
           "per-eps enumeration budget " + FormatDouble(budget, 1) +
               "s (paper: 30 min); conflict-graph ASMiner pipeline; expect "
               "#relations up, width down as eps grows.\nE[%] is the "
               "analytic spurious rate of the best (lowest-J) scheme, "
               "Eemp[%] its measured rate from the materialized Yannakakis "
               "join; dp=emp cross-checks |join| against the counting DP");
  }
  for (const char* name : {"Image", "Abalone", "Adult", "Breast-Cancer",
                           "Bridges", "Echocardiogram", "FD_Reduced_15",
                           "Hepatitis"}) {
    PlantedDataset d = LoadShaped(name, /*row_cap=*/2000, /*quiet=*/json);
    RunDataset(name, d.relation, budget, max_schemas, json, obs.sink());
  }
}

}  // namespace
}  // namespace bench
}  // namespace maimon

int main(int argc, char** argv) {
  double budget = 2.5;
  size_t max_schemas = 150;
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
