// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "core/pair_grid.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "util/parallel_for.h"

namespace maimon {

int PairGridThreads(int num_cols, int num_threads) {
  const int num_pairs = num_cols * (num_cols - 1) / 2;
  return std::min(ResolveNumThreads(num_threads), std::max(num_pairs, 1));
}

PairGridRun ForEachPairSharded(
    PliEntropyEngine* engine, int num_cols, int num_threads,
    const Deadline* deadline, const std::function<void(const PairTask&)>& fn,
    const std::function<bool(size_t)>& merge, obs::Sink* sink) {
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<size_t>(num_cols) * static_cast<size_t>(num_cols) /
                2);
  for (int a = 0; a < num_cols; ++a) {
    for (int b = a + 1; b < num_cols; ++b) pairs.emplace_back(a, b);
  }

  PairGridRun run;
  run.threads_used = PairGridThreads(num_cols, num_threads);

  // A merge stop cancels through the deadline every walk and expansion
  // already polls, and the same poll stops ParallelFor's claims.
  std::atomic<bool> stop{false};
  const Deadline run_deadline =
      (deadline != nullptr ? *deadline : Deadline::Infinite())
          .CancelledBy(&stop);

  // Each shard owns a forked engine handle (shared immutable core, shared
  // concurrent cache, private scratch + counters); ParallelFor guarantees
  // one thread per shard, so the handle state needs no locks. At one
  // thread nothing is forked and ParallelFor runs the pairs inline, in
  // index order, on the caller's engine: its cache stays warm for whatever
  // single-threaded phase follows, and no pair past a stop runs.
  std::vector<EngineShard> shards;
  if (run.threads_used > 1) {
    shards = MakeEngineShards(*engine, run.threads_used);
  }

  // Per-pair bookkeeping, indexed by pair rank. A forked shard's counter
  // delta is kept per pair so only merged pairs are folded back. A span is
  // ended when its pair's work ends but recorded only once the pair's
  // outcome is known, which may be after its worker has moved on.
  enum class PairState : uint8_t { kUnclaimed, kSkipped, kRan };
  std::vector<PairState> state(pairs.size(), PairState::kUnclaimed);
  std::vector<PliEntropyEngine::Stats> deltas(shards.empty() ? 0
                                                             : pairs.size());
  std::vector<std::optional<obs::Span>> spans(sink != nullptr ? pairs.size()
                                                              : 0);
  std::mutex merge_mu;
  size_t merged = 0;  // pairs [0, merged) are merged; guarded by merge_mu

  const InfoCalc caller_calc(engine);
  const bool claimed_all =
      ParallelFor(
          run.threads_used, pairs.size(), &run_deadline,
          [&](int shard, size_t i) {
            const auto [a, b] = pairs[i];
            obs::Span untraced(nullptr, "mine.pair");
            obs::Span& span =
                spans.empty() ? untraced : spans[i].emplace(sink, "mine.pair");
            span.Arg("a", a);
            span.Arg("b", b);
            if (stop.load(std::memory_order_relaxed)) {
              span.End();
              std::lock_guard<std::mutex> lock(merge_mu);
              state[i] = PairState::kSkipped;
              return;
            }
            EngineShard* worker =
                shards.empty() ? nullptr : &shards[static_cast<size_t>(shard)];
            PliEntropyEngine::Stats before;
            if (worker != nullptr) before = worker->engine->stats();
            fn(PairTask{worker != nullptr ? *worker->calc : caller_calc, i, a,
                        b, run_deadline, span});
            if (worker != nullptr) {
              deltas[i] = worker->engine->stats();
              deltas[i].SubtractCounters(before);
            }
            span.End();

            // Extend the merged prefix as far as completed pairs reach. A
            // merge that says stop keeps its own pair and cancels the rest.
            std::lock_guard<std::mutex> lock(merge_mu);
            state[i] = PairState::kRan;
            while (!run.stopped && merged < pairs.size() &&
                   state[merged] == PairState::kRan) {
              const bool go_on = merge(merged);
              ++merged;
              if (!go_on) {
                run.stopped = true;
                stop.store(true, std::memory_order_relaxed);
              }
            }
          },
          sink)
          .completed;

  run.pairs_merged = static_cast<int>(merged);
  run.completed = claimed_all || run.stopped;
  for (size_t i = 0; i < deltas.size() && i < merged; ++i) {
    engine->MergeStats(deltas[i]);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!spans[i].has_value()) continue;  // never claimed
    spans[i]->Arg("outcome", i < merged                           ? "merged"
                             : state[i] == PairState::kSkipped ? "skipped"
                                                               : "cancelled");
    spans[i].reset();
  }
  return run;
}

}  // namespace maimon
