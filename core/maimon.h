// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Maimon: the system facade. Owns the relation's PLI entropy engine and the
// InfoCalc oracle, and exposes the two mining phases:
//
//   MineMvds()    — MVDMiner: per attribute pair, enumerate minimal
//                   separators, then expand each into full MVDs (Sec. 5/6).
//                   Mines only what assembly can admit: with
//                   max_conflict_mvds > 0 the pair grid stops once its
//                   merged prefix holds one MVD more than that cap. At
//                   K = 0 full MVDs per separator it mines the minimal
//                   separators only, which is what fig13/fig14 time.
//   MineSchemas() — ASMiner (Sec. 7): build the conflict graph over the
//                   mined full MVDs (scheme/conflict_graph.h), stream its
//                   maximal independent sets (graph/mis.h), and assemble
//                   each pairwise-compatible set into a join tree
//                   (scheme/assembler.h). Emitted schemes are deduped by
//                   canonical form; deadline expiry returns the partial
//                   result with kDeadlineExceeded.
//
// MVDMiner is parallel (MaimonConfig::num_threads; 0 = all hardware
// threads): one ParallelFor call shards the (a, b) pair grid across threads
// that it starts and joins. Every worker holds a PliEntropyEngine handle
// forked off the facade's engine — the immutable core (relation,
// single-column row labels and entropies) AND the byte-budgeted label cache
// are shared, so labels materialized by any worker are warm for all of
// them — and per-pair results are merged in pair-rank order as each prefix
// of the grid completes; when a cap stop fires, in-flight pairs past the
// prefix are cancelled and discarded, and only the merged pairs' engine
// counters are kept. ASMiner streams on the calling thread with the
// facade's own engine at every thread count, stopping at the first
// distinct scheme past max_schemas. Mined MVDs, the conflict graph, the
// schemes and engine query totals are therefore byte-identical for any
// thread count.

#ifndef MAIMON_CORE_MAIMON_H_
#define MAIMON_CORE_MAIMON_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/full_mvd.h"
#include "core/min_seps.h"
#include "core/mvd.h"
#include "core/schema.h"
#include "data/relation.h"
#include "decomp/audit.h"
#include "entropy/info_calc.h"
#include "entropy/pli_engine.h"
#include "obs/trace.h"
#include "util/status.h"

namespace maimon {

struct MvdMinerOptions {
  /// K in getFullMVDs: cap on full MVDs expanded per (separator, pair).
  /// K = 0 mines minimal separators only: no separator is expanded and no
  /// query is spent on expansion (fig13/fig14 time the walk this way).
  size_t max_full_mvds_per_separator = SIZE_MAX;
  /// Per-pair separator enumeration knobs (close-separator walk by
  /// default; `exhaustive` selects the lattice-sweep differential oracle).
  MinSepsOptions min_seps;
};

struct SchemaMinerOptions {
  /// Stop after this many distinct schemas (result.truncated is set).
  size_t max_schemas = 1000;
  /// Also emit the scheme after every effective split along each join-tree
  /// assembly (the schemes of the independent set's prefixes), not only the
  /// full set's scheme. Matches the paper's scheme counts, which include
  /// coarser schemes.
  bool emit_intermediate_schemes = true;
  /// Cap on mined MVDs admitted as conflict-graph vertices, in mined
  /// order. It also bounds mining: MineMvds() stops the pair grid once the
  /// merged prefix holds max_conflict_mvds + 1 distinct MVDs (see there).
  /// 0 means admit, and mine, everything — callers that mine every pair
  /// (fig13, fig14, fig18, Table 2) set it. The default bounds the
  /// quadratic graph build (and the MIS enumerator's n^2-bit complement
  /// adjacency) on very wide high-eps runs, where mining can produce 10^5+
  /// full MVDs.
  size_t max_conflict_mvds = 512;
};

struct MaimonConfig {
  /// The approximation threshold (the paper's eps / J bound, in bits).
  double epsilon = 0.0;
  /// Wall-clock budgets; <= 0 means unbounded.
  double mvd_budget_seconds = 0.0;
  double schema_budget_seconds = 0.0;
  /// Worker threads for the (a,b)-pair MVD mining grid (schema assembly
  /// always runs on the calling thread): 1 = the grid runs on the calling
  /// thread and no thread is started, 0 = hardware_concurrency, N = exactly
  /// N, started when the grid starts and joined before it returns. Mined
  /// output and engine query totals are identical for every value; only
  /// wall clock changes.
  int num_threads = 1;
  /// Observability sink for the whole pipeline (nullable; see obs/trace.h).
  /// When set, every phase emits spans and the facade folds its phase
  /// counters into the sink as well as its own registry. Downstream knobs
  /// left at their null default (DecompAuditOptions::sink) inherit it, the
  /// same way num_threads flows down.
  obs::Sink* sink = nullptr;
  MvdMinerOptions mvd;
  SchemaMinerOptions schemas;
  PliEngineOptions pli;
};

struct MvdMinerResult {
  /// Distinct minimal separators, in mined order. Each is expanded unless
  /// the budget ran out first: the walk's separators are kept either way.
  std::vector<AttrSet> separators;
  std::vector<Mvd> mvds;  // distinct full MVDs (mined prefix)
  /// kDeadlineExceeded when the mining budget cut the grid short; a stop at
  /// max_conflict_mvds keeps it OK.
  Status status;

  size_t NumSeparators() const { return separators.size(); }
  size_t NumMvds() const { return mvds.size(); }
};

struct MinedSchema {
  Schema schema;
  double j_measure = 0.0;  // sum of split J costs along the derivation
};

struct AsMinerResult {
  std::vector<MinedSchema> schemas;
  /// Maximal independent sets of the conflict graph visited.
  uint64_t independent_sets = 0;
  /// Conflict-graph shape: vertices = MVDs admitted, edges = incompatible
  /// pairs.
  size_t conflict_vertices = 0;
  size_t conflict_edges = 0;
  /// Mined MVDs not admitted as vertices (max_conflict_mvds cap). Non-zero
  /// means scheme coverage is incomplete even if enumeration finished. A
  /// lower bound: mining stops once it holds one MVD past the cap, so MVDs
  /// never mined are not counted.
  size_t mvds_dropped = 0;
  /// True when enumeration stopped at max_schemas (status stays OK: the cap
  /// is a caller choice, unlike a blown deadline).
  bool truncated = false;
  Status status;
};

class Maimon {
 public:
  Maimon(const Relation& relation, MaimonConfig config);

  /// Mines (once) and returns the cached result; the reference stays valid
  /// for the lifetime of this Maimon. With schemas.max_conflict_mvds = cap
  /// > 0, mining stops early: pairs are merged in canonical order as their
  /// prefix completes, each pair expands at most cap + 1 MVDs, and the grid
  /// stops after the first pair that brings the merged list to cap + 1
  /// distinct MVDs. The result is then the mined prefix: the first cap MVDs
  /// (the admitted vertices) equal those of a cap = 0 run, and the status
  /// stays OK — a cap stop is not a deadline. cap = 0 mines every pair.
  const MvdMinerResult& MineMvds();
  /// Runs MineMvds() first (if not already run), then enumerates schemas.
  AsMinerResult MineSchemas();
  /// Executes a mined scheme end to end (decomp/): projection store,
  /// Yannakakis join, empirical lossless-join audit differenced against
  /// the analytic counting DP. Pure read of the relation — safe to call
  /// for any number of schemes after mining.
  DecompositionAudit DecomposeAndAudit(
      const MinedSchema& scheme,
      const DecompAuditOptions& options = DecompAuditOptions()) const;

  const InfoCalc& oracle() const { return *calc_; }
  PliEntropyEngine& engine() { return *engine_; }
  const MaimonConfig& config() const { return config_; }

  /// The facade's own metrics registry: every phase folds its counters
  /// here (mining under `minsep.*` / `mine.*` — `mine.pairs_merged` counts
  /// the pairs kept before a cap stop, `mine.pairs` the grid — assembly under
  /// `assemble.*`) whether or not a sink is configured. Deterministic —
  /// totals are identical at any thread count.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Thin view over the registry: the separator-walk totals that used to
  /// live on MvdMinerResult (seeds, expansions, oracle calls), summed over
  /// every (a, b) pair. Valid after MineMvds().
  MinSepsStats min_sep_stats() const;

 private:
  const Relation* relation_;
  MaimonConfig config_;
  std::unique_ptr<PliEntropyEngine> engine_;
  std::unique_ptr<InfoCalc> calc_;
  bool mvds_mined_ = false;
  MvdMinerResult mvd_result_;
  obs::MetricsRegistry metrics_;
};

}  // namespace maimon

#endif  // MAIMON_CORE_MAIMON_H_
