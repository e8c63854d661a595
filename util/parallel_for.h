// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// ParallelFor: the runtime's one fork-join primitive. Every parallel phase
// (the (a,b) pair grid, scheme ranking, a Yannakakis tree level) is one
// call, and no thread it starts outlives it.

#ifndef MAIMON_UTIL_PARALLEL_FOR_H_
#define MAIMON_UTIL_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

#include "util/stopwatch.h"

namespace maimon {

namespace obs {
class Sink;
}  // namespace obs

/// Resolves a user-facing thread-count knob: 0 means "all hardware
/// threads" (hardware_concurrency, itself clamped to >= 1), negative
/// values clamp to 1, anything positive is taken as given.
int ResolveNumThreads(int num_threads);

struct ParallelForResult {
  /// True iff every task index was claimed and executed; false when the
  /// deadline expired first and a suffix of tasks was never started.
  bool completed = true;
  /// Tasks actually executed (== num_tasks when completed).
  size_t tasks_run = 0;
};

/// Runs fn(shard, index) for every index in [0, num_tasks). Each shard
/// value in [0, num_shards) lives on exactly one thread, so fn may mutate
/// shard-indexed state without locking. Indices are claimed in ascending
/// order but assigned to shards dynamically: callers that need
/// deterministic output index their results by task, not by shard.
/// `deadline` (nullable) is polled before every claim; claimed indices run
/// to completion. At num_shards <= 1 the loop runs inline on the calling
/// thread, in index order; otherwise the call starts num_shards threads and
/// joins them before returning.
///
/// With a `sink`, each started thread counts `pool.tasks` and observes
/// `pool.queue_wait_ns` (its start latency) and `pool.task_run_ns` in its
/// lane, then releases the lane: spans fn opened there may be closed by
/// the caller once the call returns.
ParallelForResult ParallelFor(int num_shards, size_t num_tasks,
                              const Deadline* deadline,
                              const std::function<void(int, size_t)>& fn,
                              obs::Sink* sink = nullptr);

}  // namespace maimon

#endif  // MAIMON_UTIL_PARALLEL_FOR_H_
