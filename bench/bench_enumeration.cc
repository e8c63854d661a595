// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Micro-benchmark (google-benchmark): the scheme miner's enumeration
// substrate, maximal independent sets (Theorem 7.3's O(|V|^3) delay).
// Reported per emitted set, so the numbers read as enumeration delay.

#include <benchmark/benchmark.h>

#include "graph/mis.h"
#include "util/rng.h"

namespace maimon {
namespace {

Graph RandomGraph(int n, double density, uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(density)) g.AddEdge(i, j);
    }
  }
  return g;
}

void BM_MaximalIndependentSets(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 100.0;
  Graph g = RandomGraph(n, density, 13);
  size_t emitted = 0;
  for (auto _ : state) {
    size_t count = 0;
    EnumerateMaximalIndependentSets(g, [&](const VertexSet&) {
      ++count;
      return true;
    });
    emitted += count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(emitted));
}
BENCHMARK(BM_MaximalIndependentSets)
    ->Args({24, 30})
    ->Args({32, 30})
    ->Args({48, 50})
    ->Args({64, 70});

// First-k delay: how quickly do the first 32 sets arrive on a large
// instance (what ASMiner's streaming mode experiences).
void BM_MisFirst32(benchmark::State& state) {
  Graph g = RandomGraph(96, 0.4, 17);
  for (auto _ : state) {
    int count = 0;
    EnumerateMaximalIndependentSets(g, [&](const VertexSet&) {
      return ++count < 32;
    });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_MisFirst32);

}  // namespace
}  // namespace maimon

BENCHMARK_MAIN();
