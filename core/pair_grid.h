// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The one pair-grid sharding protocol. Its one caller is Maimon::MineMvds;
// the figure benches that time mining (fig13/fig14/fig18, Table 2) go
// through that facade, so they measure the runtime the library ships.
// The contract mirrors DESIGN.md's concurrency model: workers are
// engine handles forked off the caller's engine (shared immutable core,
// shared concurrent cache — one global byte budget, no slices), each
// handle is bound to one thread at a time, and the sequential path
// (resolved thread count 1) runs inline on the caller's engine — the
// shared cache is warm for later phases either way.
//
// Completed pairs are merged in canonical order as soon as their prefix is
// complete, and the merge may stop the grid. Only the merged prefix counts:
// its pairs' engine counters are folded back (per pair, not per shard), so
// query totals are exact at any thread count even when in-flight pairs
// past the prefix were cancelled and thrown away.

#ifndef MAIMON_CORE_PAIR_GRID_H_
#define MAIMON_CORE_PAIR_GRID_H_

#include <cstddef>
#include <functional>

#include "entropy/info_calc.h"
#include "entropy/pli_engine.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace maimon {

/// What one pair's task receives.
struct PairTask {
  const InfoCalc& calc;  // the running worker's oracle
  size_t index;          // canonical rank of (a, b), lexicographic
  int a;
  int b;
  /// The grid's deadline, which also expires once a merge stop cancels the
  /// grid: poll it like any budget.
  const Deadline& deadline;
  /// The pair's `mine.pair` span (inactive without a sink), for result args.
  obs::Span& span;
};

struct PairGridRun {
  /// False when the deadline expired with pairs still unclaimed. A merge
  /// stop is not a timeout: the merged prefix is complete.
  bool completed = true;
  /// True when `merge` returned false and ended the grid early.
  bool stopped = false;
  /// Pairs merged, in index order: the kept prefix 0..pairs_merged-1.
  /// Equals the grid's num_cols * (num_cols - 1) / 2 pairs unless the grid
  /// stopped or timed out.
  int pairs_merged = 0;
  /// Worker count actually used (after resolving 0 = hardware threads and
  /// clamping to the number of pairs).
  int threads_used = 1;
};

/// The worker count ForEachPairSharded will actually use for a grid over
/// `num_cols` columns: `num_threads` resolved (0 = hardware threads) and
/// clamped to the number of pairs. Benches report this, not the request.
int PairGridThreads(int num_cols, int num_threads);

/// Runs fn for every attribute pair a < b over `num_cols` columns, in index
/// order 0..num_pairs-1 when sequential and sharded across forked engine
/// workers otherwise. `fn` must write its output keyed by `PairTask::index`
/// (never by shard).
///
/// `merge(index)` is called once per completed pair, strictly in index
/// order and never concurrently, as soon as every lower index has
/// completed; it may read what fn wrote for that index. Returning false
/// stops the grid after that pair: unclaimed pairs are skipped, in-flight
/// ones are cancelled through PairTask::deadline, and neither is merged.
/// `deadline` (nullable) stops further claims on expiry; the pairs that ran
/// form a prefix and are all merged.
///
/// `sink` (nullable) wraps every claimed pair in a `mine.pair` span on its
/// worker's track, tagged with the pair's `a`, `b`, whatever fn adds and its
/// `outcome`: "merged", "cancelled" (ran past the stop; discarded) or
/// "skipped" (claimed after the stop; not run). It also instruments the
/// shard threads (ParallelFor's `pool.*`). Semantic counters are NOT
/// emitted here — callers fold them from their merge (see obs/trace.h's
/// fold discipline).
PairGridRun ForEachPairSharded(
    PliEntropyEngine* engine, int num_cols, int num_threads,
    const Deadline* deadline, const std::function<void(const PairTask&)>& fn,
    const std::function<bool(size_t)>& merge, obs::Sink* sink = nullptr);

}  // namespace maimon

#endif  // MAIMON_CORE_PAIR_GRID_H_
