// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "util/parallel_for.h"

#include <atomic>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace maimon {

int ResolveNumThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  if (num_threads < 0) return 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ParallelForResult ParallelFor(int num_shards, size_t num_tasks,
                              const Deadline* deadline,
                              const std::function<void(int, size_t)>& fn,
                              obs::Sink* sink) {
  std::atomic<size_t> next{0};
  std::atomic<size_t> ran{0};
  const auto claim_loop = [&](int shard) {
    while (!DeadlineExpired(deadline)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_tasks) break;
      fn(shard, i);
      ran.fetch_add(1, std::memory_order_relaxed);
    }
  };

  if (num_shards <= 1 || num_tasks == 0) {
    claim_loop(0);
  } else {
    // Joins on every exit, a failed thread start included: the threads
    // already running still drain the tasks.
    struct JoinAll {
      std::vector<std::thread> threads;
      ~JoinAll() { for (std::thread& t : threads) t.join(); }
    } started;
    started.threads.reserve(static_cast<size_t>(num_shards));
    for (int shard = 0; shard < num_shards; ++shard) {
      const uint64_t spawn_ns = sink != nullptr ? Stopwatch::NowNs() : 0;
      started.threads.emplace_back([&, shard, spawn_ns] {
        if (sink == nullptr) return claim_loop(shard);
        obs::Lane* lane = sink->lane();
        const uint64_t start_ns = Stopwatch::NowNs();
        lane->Count("pool.tasks", 1);
        lane->Observe("pool.queue_wait_ns", start_ns - spawn_ns);
        claim_loop(shard);
        lane->Observe("pool.task_run_ns", Stopwatch::NowNs() - start_ns);
        sink->ReleaseLane();
      });
    }
  }
  // A shard that saw the deadline may race one that claimed the final
  // index: the sweep only counts as cut short if work was actually left.
  const size_t tasks_run = ran.load(std::memory_order_relaxed);
  return ParallelForResult{tasks_run == num_tasks, tasks_run};
}

}  // namespace maimon
