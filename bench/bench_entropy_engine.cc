// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Micro-benchmark (google-benchmark): the PLI/CNT-TID entropy engine of
// Sec. 6.3 vs the naive full-scan engine, across relation sizes and block
// sizes L, and the engine's one kernel, the row-label fold. This quantifies
// the claim that reducing entropy computation to folds of cached row labels
// is what makes MVDMiner feasible: the PLI engine amortizes to microseconds
// per query once warm, while the naive engine pays a full scan per distinct
// attribute set.
//
// `--hitrate` switches to a counter-based mode (no google-benchmark
// timing): the same query mix is swept by N workers twice, once over the
// shared concurrent cache (engine forks, one global budget) and once over
// per-worker engines each holding a 1/N slice of the budget — the old
// fork/merge design this repo replaced. One JSONL line per (mode, threads)
// on stdout; EXPERIMENTS.md's thread-scaling table is generated from it.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "data/planted.h"
#include "entropy/naive_engine.h"
#include "entropy/pli_engine.h"
#include "entropy/row_labels.h"
#include "util/rng.h"
#include "util/parallel_for.h"

namespace maimon {
namespace {

Relation MakeRelation(int cols, int rows, uint64_t seed) {
  PlantedSpec spec;
  spec.num_attrs = cols;
  spec.num_bags = std::max(2, cols / 4);
  spec.root_rows = rows / 4;
  spec.max_rows = static_cast<size_t>(rows);
  spec.noise_fraction = 0.05;
  spec.domain_size = 32;
  spec.seed = seed;
  return GeneratePlanted(spec).relation;
}

// Random attribute-set query mix, like MVDMiner issues.
std::vector<AttrSet> QueryMix(int cols, int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<AttrSet> queries;
  queries.reserve(count);
  const uint64_t mask = (uint64_t{1} << cols) - 1;
  for (int i = 0; i < count; ++i) {
    AttrSet q(rng.Next64() & mask);
    if (q.Empty()) q.Add(static_cast<int>(rng.Uniform(cols)));
    queries.push_back(q);
  }
  return queries;
}

void BM_NaiveEntropyColdQueries(benchmark::State& state) {
  const int cols = static_cast<int>(state.range(0));
  const int rows = static_cast<int>(state.range(1));
  Relation r = MakeRelation(cols, rows, 1);
  auto queries = QueryMix(cols, 64, 2);
  for (auto _ : state) {
    NaiveEntropyEngine engine(r);  // cold: no cache reuse across runs
    double sum = 0;
    for (AttrSet q : queries) sum += engine.Entropy(q);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_NaiveEntropyColdQueries)
    ->Args({8, 4096})
    ->Args({12, 4096})
    ->Args({12, 16384});

void BM_PliEntropyColdQueries(benchmark::State& state) {
  const int cols = static_cast<int>(state.range(0));
  const int rows = static_cast<int>(state.range(1));
  Relation r = MakeRelation(cols, rows, 1);
  auto queries = QueryMix(cols, 64, 2);
  for (auto _ : state) {
    PliEntropyEngine engine(r);
    double sum = 0;
    for (AttrSet q : queries) sum += engine.Entropy(q);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_PliEntropyColdQueries)
    ->Args({8, 4096})
    ->Args({12, 4096})
    ->Args({12, 16384});

void BM_PliEntropyWarmQueries(benchmark::State& state) {
  const int cols = static_cast<int>(state.range(0));
  const int rows = static_cast<int>(state.range(1));
  Relation r = MakeRelation(cols, rows, 1);
  auto queries = QueryMix(cols, 64, 2);
  PliEntropyEngine engine(r);
  for (AttrSet q : queries) engine.Entropy(q);  // warm the caches
  for (auto _ : state) {
    double sum = 0;
    for (AttrSet q : queries) sum += engine.Entropy(q);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_PliEntropyWarmQueries)->Args({12, 16384});

// Block size L ablation (Sec. 6.3 uses L = 10).
void BM_PliBlockSize(benchmark::State& state) {
  const int block = static_cast<int>(state.range(0));
  Relation r = MakeRelation(14, 8192, 3);
  auto queries = QueryMix(14, 96, 4);
  for (auto _ : state) {
    PliEngineOptions opt;
    opt.block_size = block;
    PliEntropyEngine engine(r, opt);
    double sum = 0;
    for (AttrSet q : queries) sum += engine.Entropy(q);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_PliBlockSize)->Arg(2)->Arg(4)->Arg(7)->Arg(10)->Arg(14);

// One fold in the engine's warm fold-chain shape: X's labels extended by
// one column into a reused output buffer, with H(X ∪ c) from the same pass.
// Two 64-value columns: 4,096 pairs, FoldLabels' dense table.
void BM_LabelFold(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<uint32_t> c1(rows), c2(rows);
  for (int i = 0; i < rows; ++i) {
    c1[i] = static_cast<uint32_t>(rng.Uniform(64));
    c2[i] = static_cast<uint32_t>(rng.Uniform(64));
  }
  const Relation r({std::move(c1), std::move(c2)}, {64, 64});
  const RowLabels x = LabelRows(r, AttrSet::Single(0));
  const RowLabels column = LabelRows(r, AttrSet::Single(1));
  FoldScratch scratch;
  RowLabels out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FoldLabels(x, column, &scratch, &out));
    benchmark::DoNotOptimize(out.labels.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_LabelFold)->Arg(4096)->Arg(65536)->Arg(1 << 20);

// One worker's share of the query mix: indices congruent to `worker` mod
// `threads` — deterministic, balanced, and identical across the two modes.
uint64_t RunWorkerSlice(PliEntropyEngine* engine,
                        const std::vector<AttrSet>& queries, int worker,
                        int threads) {
  uint64_t ran = 0;
  for (size_t i = static_cast<size_t>(worker); i < queries.size();
       i += static_cast<size_t>(threads)) {
    engine->Entropy(queries[i]);
    ++ran;
  }
  return ran;
}

int RunHitRateMode(int cols, int rows, int num_queries) {
  const Relation r = MakeRelation(cols, rows, 1);
  const std::vector<AttrSet> queries = QueryMix(cols, num_queries, 2);
  const size_t budget = PliEngineOptions().cache_capacity_bytes;

  for (int threads : {1, 2, 4, 8}) {
    // Shared concurrent cache: forks are handles onto one budget.
    {
      PliEntropyEngine engine(r);
      const std::vector<EngineShard> forks = MakeEngineShards(engine, threads);
      ParallelFor(threads, static_cast<size_t>(threads), nullptr,
                  [&](int, size_t w) {
                    RunWorkerSlice(forks[w].engine.get(), queries,
                                   static_cast<int>(w), threads);
                  });
      for (const EngineShard& fork : forks) engine.MergeStats(*fork.engine);
      const auto s = engine.stats();
      const uint64_t hits = s.value_hits + s.cache.hits;
      const uint64_t lookups = hits + s.cache.misses;
      std::printf(
          "{\"bench\": \"hitrate\", \"mode\": \"shared\", \"threads\": %d, "
          "\"cols\": %d, \"rows\": %d, \"queries\": %d, \"hits\": %llu, "
          "\"lookups\": %llu, \"hit_rate\": %.4f, \"budget_bytes\": %zu, "
          "\"resident_bytes\": %zu}\n",
          threads, cols, rows, num_queries,
          static_cast<unsigned long long>(hits),
          static_cast<unsigned long long>(lookups),
          lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0,
          budget, engine.cache().bytes());
    }
    // Sliced caches: the replaced design — each worker a private engine
    // holding 1/N of the byte budget, no cross-worker reuse.
    {
      std::vector<std::unique_ptr<PliEntropyEngine>> workers;
      for (int w = 0; w < threads; ++w) {
        PliEngineOptions opt;
        opt.cache_capacity_bytes = budget / static_cast<size_t>(threads);
        workers.push_back(std::make_unique<PliEntropyEngine>(r, opt));
      }
      ParallelFor(threads, static_cast<size_t>(threads), nullptr,
                  [&](int, size_t w) {
                    RunWorkerSlice(workers[w].get(), queries,
                                   static_cast<int>(w), threads);
                  });
      uint64_t hits = 0, lookups = 0;
      size_t resident = 0;
      for (const auto& w : workers) {
        const auto s = w->stats();
        hits += s.value_hits + s.cache.hits;
        lookups += s.value_hits + s.cache.hits + s.cache.misses;
        resident += w->cache().bytes();
      }
      std::printf(
          "{\"bench\": \"hitrate\", \"mode\": \"sliced\", \"threads\": %d, "
          "\"cols\": %d, \"rows\": %d, \"queries\": %d, \"hits\": %llu, "
          "\"lookups\": %llu, \"hit_rate\": %.4f, \"budget_bytes\": %zu, "
          "\"resident_bytes\": %zu}\n",
          threads, cols, rows, num_queries,
          static_cast<unsigned long long>(hits),
          static_cast<unsigned long long>(lookups),
          lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0,
          budget, resident);
    }
  }
  return 0;
}

}  // namespace
}  // namespace maimon

int main(int argc, char** argv) {
  using maimon::bench::CountFlag;
  int cols = 12, rows = 16384, queries = 2048;
  bool hitrate = false;
  // The hit-rate flags are read strictly (exit 2 when malformed; --cols
  // stays below 64 because QueryMix shifts by it); every other argument
  // goes on to google-benchmark.
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hitrate") == 0) {
      hitrate = true;
    } else if (CountFlag(argv[i], "--cols=", &cols, 1,
                         maimon::AttrSet::kMaxAttrs - 1) ||
               CountFlag(argv[i], "--rows=", &rows) ||
               CountFlag(argv[i], "--queries=", &queries)) {
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (hitrate) return maimon::RunHitRateMode(cols, rows, queries);
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
