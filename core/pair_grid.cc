// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "core/pair_grid.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace maimon {

int PairGridThreads(int num_cols, int num_threads) {
  const int num_pairs = num_cols * (num_cols - 1) / 2;
  return std::min(ResolveNumThreads(num_threads), std::max(num_pairs, 1));
}

PairGridRun ForEachPairSharded(
    PliEntropyEngine* engine, int num_cols, int num_threads,
    const Deadline* deadline,
    const std::function<void(const InfoCalc&, size_t, int, int)>& fn,
    obs::Sink* sink) {
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<size_t>(num_cols) * static_cast<size_t>(num_cols) /
                2);
  for (int a = 0; a < num_cols; ++a) {
    for (int b = a + 1; b < num_cols; ++b) pairs.emplace_back(a, b);
  }

  PairGridRun run;
  run.num_pairs = static_cast<int>(pairs.size());
  run.threads_used = PairGridThreads(num_cols, num_threads);

  // Each shard owns a forked engine handle (shared immutable core, shared
  // concurrent cache, private scratch + counters); ParallelFor guarantees
  // one thread per shard at a time, so the handle state needs no locks. At
  // one thread nothing is forked and the null pool runs the pairs inline,
  // in index order, on the caller's engine: its cache stays warm for
  // whatever single-threaded phase follows.
  std::vector<EngineShard> shards;
  std::unique_ptr<ThreadPool> pool;
  if (run.threads_used > 1) {
    shards = MakeEngineShards(*engine, run.threads_used);
    pool = std::make_unique<ThreadPool>(run.threads_used, sink);
  }
  const InfoCalc caller_calc(engine);
  run.completed =
      ParallelFor(pool.get(), run.threads_used, pairs.size(), deadline,
                  [&](int shard, size_t i) {
                    const InfoCalc& calc =
                        shards.empty()
                            ? caller_calc
                            : *shards[static_cast<size_t>(shard)].calc;
                    const auto [a, b] = pairs[i];
                    obs::Span span(sink, "mine.pair");
                    span.Arg("a", a);
                    span.Arg("b", b);
                    fn(calc, i, a, b);
                  })
          .completed;
  // Fold worker counters back so aggregate ablation stats add up exactly.
  for (const EngineShard& shard : shards) engine->MergeStats(*shard.engine);
  return run;
}

}  // namespace maimon
