// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Shared helpers for the per-table/figure benchmark harnesses. Each harness
// prints the same rows/series the paper reports, so EXPERIMENTS.md can put
// paper-vs-measured side by side. Benchmarks run on scaled-down versions of
// the Table 2 dataset shapes (see --help of each binary; scaling is always
// printed next to the numbers).

#ifndef MAIMON_BENCH_BENCH_UTIL_H_
#define MAIMON_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "core/maimon.h"
#include "core/min_seps.h"
#include "core/pair_grid.h"
#include "data/metanome_shapes.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/parallel_for.h"

namespace maimon {
namespace bench {

/// Owns the optional observability sink of a bench run. Constructed from
/// the shared --trace=FILE / --metrics=FILE flags: when neither is given
/// sink() is null and the whole pipeline runs uninstrumented (the
/// zero-overhead-off contract of obs/trace.h). Finish() — also run by the
/// destructor — writes the Chrome trace and/or metrics JSONL and prints
/// the per-phase table to stderr, after every shard thread is joined.
class ObsSession {
 public:
  ObsSession(std::string trace_path, std::string metrics_path)
      : trace_path_(std::move(trace_path)),
        metrics_path_(std::move(metrics_path)) {
    if (!trace_path_.empty() || !metrics_path_.empty()) {
      sink_ = std::make_unique<obs::Sink>();
    }
  }
  ~ObsSession() { Finish(); }

  obs::Sink* sink() { return sink_.get(); }

  void Finish() {
    if (sink_ == nullptr) return;
    if (!trace_path_.empty()) {
      if (obs::WriteTraceFile(*sink_, trace_path_)) {
        std::fprintf(stderr, "[obs] trace written to %s\n",
                     trace_path_.c_str());
      } else {
        std::fprintf(stderr, "[obs] FAILED to write trace %s\n",
                     trace_path_.c_str());
      }
    }
    if (!metrics_path_.empty()) {
      if (obs::WriteMetricsFile(*sink_, metrics_path_)) {
        std::fprintf(stderr, "[obs] metrics written to %s\n",
                     metrics_path_.c_str());
      } else {
        std::fprintf(stderr, "[obs] FAILED to write metrics %s\n",
                     metrics_path_.c_str());
      }
    }
    obs::WritePhaseTable(*sink_, stderr);
    sink_.reset();
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::unique_ptr<obs::Sink> sink_;
};

/// Shared --trace=FILE / --metrics=FILE flag parsing: every figure harness
/// accepts these two, feeding an ObsSession. Returns true when `arg` was
/// one of them.
inline bool ParseObsFlag(const char* arg, std::string* trace_path,
                         std::string* metrics_path) {
  if (std::strncmp(arg, "--trace=", 8) == 0) {
    *trace_path = arg + 8;
    return true;
  }
  if (std::strncmp(arg, "--metrics=", 10) == 0) {
    *metrics_path = arg + 10;
    return true;
  }
  return false;
}

/// Strict numeric flags for every harness and storectl. Each reader
/// returns false when `arg` is another flag; when it is this one, a value
/// that is malformed or out of range ends the process with exit code 2, so
/// a run never proceeds on a value read as its numeric prefix, as 0 (an
/// unbounded budget) or as a wrapped count.
[[noreturn]] inline void RejectFlag(const char* arg, const std::string& want) {
  std::fprintf(stderr, "%s: expected %s\n", arg, want.c_str());
  std::exit(2);
}

/// The text after `prefix` when `arg` starts with it, else nullptr.
inline const char* FlagValue(const char* arg, const char* prefix) {
  const size_t n = std::strlen(prefix);
  return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
}

/// `prefix`S with S a finite number of seconds > 0.
inline bool SecondsFlag(const char* arg, const char* prefix, double* out) {
  const char* text = FlagValue(arg, prefix);
  if (text == nullptr) return false;
  if (!ParseDouble(text, out) || *out <= 0) {
    RejectFlag(arg, "a finite number of seconds > 0");
  }
  return true;
}

/// --eps=E with E a finite number >= 0.
inline bool EpsFlag(const char* arg, double* out) {
  const char* text = FlagValue(arg, "--eps=");
  if (text == nullptr) return false;
  if (!ParseDouble(text, out) || *out < 0) {
    RejectFlag(arg, "a finite number >= 0");
  }
  return true;
}

/// `prefix`N with N an integer in [lo, hi] (hi defaults to what `Int`
/// holds).
template <typename Int>
bool CountFlag(const char* arg, const char* prefix, Int* out, size_t lo = 1,
               size_t hi = static_cast<size_t>(
                   std::numeric_limits<Int>::max())) {
  const char* text = FlagValue(arg, prefix);
  if (text == nullptr) return false;
  size_t value = 0;
  if (!ParseCount(text, &value) || value < lo || value > hi) {
    std::string want = "an integer >= " + std::to_string(lo);
    if (hi < std::numeric_limits<size_t>::max()) {
      want += " and <= " + std::to_string(hi);
    }
    RejectFlag(arg, want);
  }
  *out = static_cast<Int>(value);
  return true;
}

/// Folds an engine's counters into the sink (under a `cache.fold` span so
/// the cache phase is visible in the trace). Call once per engine, at the
/// end of the instrumented region — see AppendEngineMetrics.
inline void FoldEngineMetrics(obs::Sink* sink,
                              const PliEntropyEngine::Stats& stats) {
  if (sink == nullptr) return;
  obs::Span span(sink, "cache.fold");
  span.Arg("hits", stats.cache.hits);
  span.Arg("misses", stats.cache.misses);
  obs::MetricsRegistry registry;
  AppendEngineMetrics(stats, &registry);
  sink->Fold(registry);
}

/// Prints a horizontal rule sized to `width`.
inline void Rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Row marker for a schema-mining run, shared by the figure harnesses so
/// the legend stays consistent: " TL" = a phase blew its budget (paper's
/// red clock), " cap" = the max_schemas ceiling cut enumeration short,
/// " -Nmvd" = N mined MVDs were not admitted to the conflict graph
/// (max_conflict_mvds), so the row under-covers the scheme space — a lower
/// bound, since mining stops one MVD past that cap. Markers
/// are additive — several can fire on one row. `extra_deadline` lets the
/// caller fold in a downstream phase's expiry (e.g. the ranker's).
inline std::string SchemeRunMarker(const AsMinerResult& result,
                                   bool extra_deadline = false) {
  std::string marker;
  if (result.status.IsDeadlineExceeded() || extra_deadline) marker += " TL";
  if (result.truncated) marker += " cap";
  if (result.mvds_dropped > 0) {
    marker += " -" + std::to_string(result.mvds_dropped) + "mvd";
  }
  return marker;
}

/// Prints a section header for one experiment.
inline void Header(const std::string& experiment, const std::string& note) {
  Rule();
  std::printf("%s\n", experiment.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  Rule();
}

/// Generates a scaled dataset for a Table 2 shape, capping the row count so
/// the whole harness suite stays laptop-friendly. Prints the scale used
/// unless `quiet` (the JSON row mode keeps stdout pure JSONL).
inline PlantedDataset LoadShaped(const std::string& name, size_t row_cap,
                                 bool quiet = false) {
  auto shape = FindShape(name);
  if (!shape.ok()) {
    std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
    std::exit(1);
  }
  double scale = 1.0;
  if (shape->paper_rows > row_cap) {
    scale = static_cast<double>(row_cap) /
            static_cast<double>(shape->paper_rows);
  }
  PlantedDataset d = GenerateShaped(*shape, scale);
  if (!quiet) {
    std::printf("[data] %-22s cols=%-3d paper_rows=%-8zu scaled_rows=%zu "
                "(scale %.4f)\n",
                shape->name.c_str(), shape->columns, shape->paper_rows,
                d.relation.NumRows(), scale);
  }
  return d;
}

/// Runs phase one (MVD mining) under a budget and returns the result plus
/// elapsed seconds, the walk totals and the engine's query count.
/// k_per_separator = 0 mines minimal separators only (fig13/fig14).
struct TimedMvds {
  MvdMinerResult result;
  double seconds = 0.0;
  int threads_used = 1;  // actual worker count (resolved, pair-clamped)
  /// Walk accounting summed over the merged pairs (Maimon::min_sep_stats)
  /// and the engine's entropy queries, both exact at any thread count on a
  /// run that did not time out.
  MinSepsStats walk_stats;
  uint64_t entropy_queries = 0;
};

inline TimedMvds MineMvdsTimed(const Relation& relation, double epsilon,
                               double budget_seconds,
                               size_t k_per_separator = SIZE_MAX,
                               int num_threads = 1,
                               obs::Sink* sink = nullptr,
                               const MinSepsOptions& walk = MinSepsOptions()) {
  MaimonConfig config;
  config.epsilon = epsilon;
  config.mvd_budget_seconds = budget_seconds;
  config.mvd.max_full_mvds_per_separator = k_per_separator;
  config.mvd.min_seps = walk;
  // Mine every pair: no conflict-graph cap, so no early mining stop.
  config.schemas.max_conflict_mvds = 0;
  config.num_threads = num_threads;
  config.sink = sink;
  Maimon maimon(relation, config);
  Stopwatch watch;
  TimedMvds out;
  out.result = maimon.MineMvds();
  out.seconds = watch.ElapsedSeconds();
  out.threads_used = PairGridThreads(relation.NumCols(), num_threads);
  out.walk_stats = maimon.min_sep_stats();
  out.entropy_queries = maimon.engine().NumQueries();
  FoldEngineMetrics(sink, maimon.engine().stats());
  return out;
}

/// Row marker for thread-scaling runs: "t4", "t4 TL" when the budget blew.
/// Pass the worker count that actually ran (TimedMvds::threads_used), not
/// the requested knob — a narrow grid clamps it.
inline std::string ThreadMarker(int threads_used, bool timed_out) {
  return "t" + std::to_string(threads_used) + (timed_out ? " TL" : "");
}

/// Row marker for the separator-walk mode: the close-separator walk is the
/// default; "exh" marks the exhaustive lattice-sweep oracle
/// (MinSepsOptions::exhaustive).
inline const char* WalkMarker(const MinSepsOptions& options) {
  return options.exhaustive ? "exh" : "close";
}

/// One machine-readable minimal-separator row (JSONL, one object per line)
/// for the CI bench-smoke artifact: the same fields the table row prints,
/// plus the tN/TL marker and walk mode, so the per-PR perf trajectory can
/// be diffed mechanically.
inline void PrintMinSepsJsonRow(int fig, const std::string& dataset,
                                const char* axis, size_t axis_value,
                                double eps, const TimedMvds& run,
                                const MinSepsOptions& options) {
  const bool timed_out = !run.result.status.ok();
  std::printf(
      "{\"fig\":%d,\"dataset\":\"%s\",\"%s\":%zu,\"eps\":%.2f,"
      "\"seconds\":%.3f,\"minseps\":%zu,\"oracle_calls\":%llu,"
      "\"seeds\":%llu,\"expansions\":%llu,\"entropy_queries\":%llu,"
      "\"threads\":%d,\"timed_out\":%s,\"walk\":\"%s\",\"marker\":\"%s\"}\n",
      fig, dataset.c_str(), axis, axis_value, eps, run.seconds,
      run.result.NumSeparators(),
      static_cast<unsigned long long>(run.walk_stats.oracle_calls),
      static_cast<unsigned long long>(run.walk_stats.seeds),
      static_cast<unsigned long long>(run.walk_stats.expansions),
      static_cast<unsigned long long>(run.entropy_queries), run.threads_used,
      timed_out ? "true" : "false", WalkMarker(options),
      ThreadMarker(run.threads_used, timed_out).c_str());
  std::fflush(stdout);
}

/// Shared per-row emission for the fig13/fig14 separator harnesses: the
/// human table row and the JSONL artifact row print the same fields from
/// one place, so the two harnesses cannot fork the row schema.
inline void PrintMinSepsRow(int fig, const std::string& dataset,
                            const char* axis, size_t axis_value, double eps,
                            const TimedMvds& run,
                            const MinSepsOptions& options, bool json) {
  if (json) {
    PrintMinSepsJsonRow(fig, dataset, axis, axis_value, eps, run, options);
    return;
  }
  std::printf("%8zu | %10.2f | %10.3f %10zu %10llu | %s %s\n", axis_value,
              eps, run.seconds, run.result.NumSeparators(),
              static_cast<unsigned long long>(run.walk_stats.oracle_calls),
              ThreadMarker(run.threads_used, !run.result.status.ok()).c_str(),
              WalkMarker(options));
}

/// Matching table header for PrintMinSepsRow.
inline void PrintMinSepsRowHeader(const char* axis) {
  std::printf("%8s | %10s | %10s %10s %10s | %s\n", axis, "eps", "time[s]",
              "#minseps", "#oracle", "note");
  Rule(64);
}

/// One machine-readable scheme-mining row (JSONL, one object per line),
/// shared by the fig10/fig15 harnesses the way PrintMinSepsJsonRow is by
/// fig13/fig14: the common per-eps fields from one place, plus an optional
/// `extra` fragment (fig15's empirical-vs-analytic audit columns) spliced
/// before the closing brace — must start with ',' when non-empty.
inline void PrintSchemeRunJsonRow(int fig, const std::string& dataset,
                                  double eps, const AsMinerResult& result,
                                  const std::string& marker,
                                  const std::string& extra = "") {
  std::printf(
      "{\"fig\":%d,\"dataset\":\"%s\",\"eps\":%.2f,\"schemes\":%zu,"
      "\"mis\":%llu,\"conflict_vertices\":%zu,\"conflict_edges\":%zu,"
      "\"marker\":\"%s\"%s}\n",
      fig, dataset.c_str(), eps, result.schemas.size(),
      static_cast<unsigned long long>(result.independent_sets),
      result.conflict_vertices, result.conflict_edges, marker.c_str(),
      extra.c_str());
  std::fflush(stdout);
}

/// Shared --threads=N / -tN flag parsing for the figure harnesses, strict
/// like CountFlag: returns false when `arg` is another flag, and exits 2 on
/// a malformed count rather than reading it as 0 (= all hardware threads).
inline bool ParseThreadsFlag(const char* arg, int* num_threads) {
  if (std::strncmp(arg, "-t", 2) == 0 && arg[2] != '\0') {
    return CountFlag(arg, "-t", num_threads, 0, 1 << 20);
  }
  return CountFlag(arg, "--threads=", num_threads, 0, 1 << 20);
}

/// Shared knob set + argv parsing for the separator harnesses: --rows=N,
/// --budget=S, --exhaustive (lattice-sweep oracle), --json (JSONL rows),
/// --threads=N / -tN, and --trace=FILE / --metrics=FILE (ObsSession).
/// Unknown arguments are rejected (exit 2) — the mode flags change what
/// gets measured, so a typo must not silently record the wrong mode's
/// numbers.
struct MinSepsHarnessFlags {
  size_t row_cap = 0;
  double budget = 5.0;
  int num_threads = 1;
  bool json = false;
  std::string trace_path;
  std::string metrics_path;
  MinSepsOptions options;
};

inline MinSepsHarnessFlags ParseMinSepsHarnessFlags(int argc, char** argv,
                                                    size_t default_row_cap) {
  MinSepsHarnessFlags flags;
  flags.row_cap = default_row_cap;
  for (int i = 1; i < argc; ++i) {
    if (CountFlag(argv[i], "--rows=", &flags.row_cap)) {
    } else if (SecondsFlag(argv[i], "--budget=", &flags.budget)) {
    } else if (std::strcmp(argv[i], "--exhaustive") == 0) {
      flags.options.exhaustive = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      flags.json = true;
    } else if (ParseThreadsFlag(argv[i], &flags.num_threads)) {
    } else if (ParseObsFlag(argv[i], &flags.trace_path,
                            &flags.metrics_path)) {
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return flags;
}

}  // namespace bench
}  // namespace maimon

#endif  // MAIMON_BENCH_BENCH_UTIL_H_
