// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "scheme/ranker.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "entropy/pli_engine.h"
#include "util/stopwatch.h"
#include "util/parallel_for.h"

namespace maimon {
namespace {

// A scheme plus its canonical string, precomputed so the sort comparator
// never allocates (at eps = 0 most schemes tie on all three metrics and
// fall through to the string tiebreak).
struct Scored {
  RankedScheme scheme;
  std::string canonical;
};

// Strict-weak order, best first: primary key, then the other two quality
// axes, then the canonical string so equal-quality schemes rank stably.
bool Better(const Scored& a, const Scored& b, RankKey primary) {
  auto by_j = [](const Scored& x, const Scored& y) {
    return x.scheme.report.j_measure < y.scheme.report.j_measure;
  };
  auto by_s = [](const Scored& x, const Scored& y) {
    return x.scheme.report.savings_pct > y.scheme.report.savings_pct;
  };
  auto by_e = [](const Scored& x, const Scored& y) {
    return x.scheme.report.spurious_pct < y.scheme.report.spurious_pct;
  };
  using Cmp = bool (*)(const Scored&, const Scored&);
  Cmp order[3];
  switch (primary) {
    case RankKey::kJMeasure:
      order[0] = +by_j, order[1] = +by_s, order[2] = +by_e;
      break;
    case RankKey::kSavings:
      order[0] = +by_s, order[1] = +by_e, order[2] = +by_j;
      break;
    case RankKey::kSpurious:
      order[0] = +by_e, order[1] = +by_s, order[2] = +by_j;
      break;
  }
  for (Cmp cmp : order) {
    if (cmp(a, b)) return true;
    if (cmp(b, a)) return false;
  }
  return a.canonical < b.canonical;
}

Scored ScoreOne(const MinedSchema& s, const InfoCalc& oracle,
                RowLabelMemo* labels) {
  RankedScheme ranked;
  ranked.schema = s.schema;
  ranked.derivation_j = s.j_measure;
  ranked.report = EvaluateSchema(s.schema, oracle, labels);
  return {std::move(ranked), s.schema.ToString()};
}

}  // namespace

RankResult RankSchemes(const Relation& relation,
                       const std::vector<MinedSchema>& schemes,
                       const InfoCalc& oracle, const RankerOptions& options) {
  RankResult result;
  obs::Span rank_span(options.sink, "rank.schemes");
  rank_span.Arg("schemes", schemes.size());
  const Deadline deadline = options.budget_seconds > 0
                                ? Deadline::After(options.budget_seconds)
                                : Deadline::Infinite();

  // Scores land indexed by scheme (never by worker), so the collected list
  // below is in scheme-input order for every thread count. `done` marks
  // the scored set when the deadline cuts the sweep short — always a
  // prefix: ParallelFor claims indices from one fetch_add counter and
  // every claimed index runs to completion before it returns.
  std::vector<Scored> scored_by_index(schemes.size());
  std::vector<unsigned char> done(schemes.size(), 0);
  // One label memo for the whole call, shared by every worker: schemes
  // mined from one relation share most relations, separators and the
  // universe, so each distinct set is labeled once. Freed on return.
  RowLabelMemo labels(relation);

  const int threads = std::min<int>(
      ResolveNumThreads(options.num_threads),
      static_cast<int>(std::max<size_t>(schemes.size(), 1)));
  // Each shard scores on a forked engine handle (shared immutable core,
  // shared cache) — entropies are exact regardless of cache state, so the
  // per-scheme reports are identical to the caller's own. At one thread,
  // or for an oracle that is not a PLI engine, nothing is forked and
  // ParallelFor scores inline on the caller's oracle.
  auto* pli = dynamic_cast<PliEntropyEngine*>(oracle.engine());
  std::vector<EngineShard> shards;
  if (threads > 1 && pli != nullptr) shards = MakeEngineShards(*pli, threads);
  const bool completed =
      ParallelFor(
          shards.empty() ? 1 : threads, schemes.size(), &deadline,
          [&](int shard, size_t i) {
            const InfoCalc& calc =
                shards.empty() ? oracle
                               : *shards[static_cast<size_t>(shard)].calc;
            obs::Span span(options.sink, "rank.score");
            span.Arg("scheme", i);
            scored_by_index[i] = ScoreOne(schemes[i], calc, &labels);
            done[i] = 1;
          },
          options.sink)
          .completed;
  for (const EngineShard& shard : shards) pli->MergeStats(*shard.engine);
  if (!completed) {
    result.status = Status::DeadlineExceeded("scheme ranking budget");
  }

  std::vector<Scored> scored;
  scored.reserve(schemes.size());
  for (size_t i = 0; i < schemes.size(); ++i) {
    if (done[i]) scored.push_back(std::move(scored_by_index[i]));
  }
  result.evaluated = scored.size();
  // Counted once from the deterministic collection loop, not per worker.
  obs::Count(options.sink, "rank.scored", result.evaluated);
  obs::Count(options.sink, "rank.labelings", labels.NumLabeled());
  rank_span.Arg("evaluated", result.evaluated);

  const RankKey primary = options.primary;
  std::sort(scored.begin(), scored.end(),
            [primary](const Scored& a, const Scored& b) {
              return Better(a, b, primary);
            });
  if (scored.size() > options.top_k) scored.resize(options.top_k);
  result.ranked.reserve(scored.size());
  for (Scored& s : scored) result.ranked.push_back(std::move(s.scheme));
  return result;
}

}  // namespace maimon
