// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// SchemeRanker: score mined acyclic schemes with the Sec. 8 S/E/J quality
// metrics (join/metrics.h — exact acyclic-join counting, no
// materialization) and return the top-k under a configurable primary key.
// Scoring a scheme is the expensive step (a counting DP over its join
// tree), so ranking is deadline-bounded: on expiry the schemes scored so
// far are ranked and returned with kDeadlineExceeded. One call labels each
// distinct attribute set of its schemes once (entropy/row_labels.h) and frees
// the labels on return.

#ifndef MAIMON_SCHEME_RANKER_H_
#define MAIMON_SCHEME_RANKER_H_

#include <cstddef>
#include <vector>

#include "core/maimon.h"
#include "data/relation.h"
#include "entropy/info_calc.h"
#include "join/metrics.h"
#include "util/status.h"

namespace maimon {

enum class RankKey {
  kJMeasure,     // information loss, ascending (paper's J)
  kSavings,      // storage savings S, descending
  kSpurious,     // spurious-tuple rate E, ascending
};

struct RankerOptions {
  size_t top_k = 20;
  RankKey primary = RankKey::kJMeasure;
  /// Wall-clock budget for scoring; <= 0 means unbounded.
  double budget_seconds = 0.0;
  /// Worker threads for per-scheme S/E/J scoring: 1 = inline on the
  /// caller's oracle, 0 = hardware_concurrency, N = exactly N. Scoring is
  /// sharded over forked engine workers (the same fork/merge protocol as
  /// MVD mining) and merged in scheme-input order, so the ranked output is
  /// byte-identical at any thread count. Falls back to inline when the
  /// oracle's engine is not a PliEntropyEngine (nothing to fork).
  int num_threads = 1;
  /// Observability sink (nullable): a `rank.schemes` span over the sweep,
  /// one `rank.score` span per scheme, a `rank.scored` counter, and a
  /// `rank.labelings` counter (distinct attribute sets row-labeled in the
  /// call: the scored schemes' relations, join-tree separators and
  /// universes, each once — the workers share one memo).
  obs::Sink* sink = nullptr;
};

struct RankedScheme {
  Schema schema;
  SchemaReport report;    // exact S/E/J from join/metrics.h
  double derivation_j = 0.0;  // J accumulated along the mining derivation
};

struct RankResult {
  std::vector<RankedScheme> ranked;  // best first, at most top_k
  size_t evaluated = 0;              // schemes scored before any deadline
  Status status;
};

/// Scores every scheme (until the budget runs out) and returns the top-k
/// under `options.primary`, with the remaining two metrics as tiebreakers
/// and the canonical schema string as the final deterministic tiebreak.
/// With options.num_threads != 1 the scoring loop shards across threads
/// (ParallelFor); scores land indexed by scheme, so ranking stays
/// deterministic.
RankResult RankSchemes(const Relation& relation,
                       const std::vector<MinedSchema>& schemes,
                       const InfoCalc& oracle, const RankerOptions& options);

}  // namespace maimon

#endif  // MAIMON_SCHEME_RANKER_H_
