// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Perf acceptance guards for the Sec. 6.3 claim:
//
//   * warm PLI queries must be >= 10x faster per query than naive cold
//     full scans on the 12-col/16k-row configuration (mirrors
//     BM_PliEntropyWarmQueries/12/16384 vs BM_NaiveEntropyColdQueries
//     without requiring google-benchmark — the real margin is orders of
//     magnitude; 10x keeps the gate robust on slow shared CI machines);
//   * 8-thread mining must hold the cache hit rate of the 1-thread run on
//     the 12-col fixture. This is the shared-cache regression guard: the
//     old per-worker budget slices re-materialized every cross-worker key
//     and shed tens of points of hit rate at 8 threads. Counter-based
//     (folded PliCache::Stats, no wall clocks), so it holds on a 1-vCPU
//     CI box where all eight workers serialize;
//   * a disabled (null-sink) obs::Span on the warm entropy path must cost
//     nothing measurable — the instrumentation contract that let spans
//     land inside MineOnePair and the pair grid in the first place;
//   * store/ cold start: mmap-loading a canonical store file must beat the
//     CSV import + projection rebuild it replaces by >= 10x on a
//     Nursery-scale fixture;
//   * scheme ranking labels each distinct attribute set of its schemes
//     once per call (the `rank.labelings` counter, an exact work count at
//     1 and 4 threads), not once per scheme — the property the ranking
//     layer's cost rests on.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/maimon.h"
#include "data/planted.h"
#include "data/relation_io.h"
#include "decomp/projection_store.h"
#include "entropy/naive_engine.h"
#include "entropy/pli_engine.h"
#include "join/join_tree.h"
#include "obs/trace.h"
#include "scheme/ranker.h"
#include "store/mapped_store.h"
#include "store/writer.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace maimon {
namespace {

TEST_CASE(WarmPliBeatsNaiveByTenX) {
  PlantedSpec spec;
  spec.num_attrs = 12;
  spec.num_bags = 3;
  spec.root_rows = 4096;
  spec.max_rows = 16384;
  spec.noise_fraction = 0.05;
  spec.domain_size = 32;
  spec.seed = 1;
  const Relation r = GeneratePlanted(spec).relation;

  // The bench's query mix: 64 random attribute sets.
  Rng rng(2);
  std::vector<AttrSet> queries;
  const uint64_t mask = (uint64_t{1} << r.NumCols()) - 1;
  for (int i = 0; i < 64; ++i) {
    AttrSet q(rng.Next64() & mask);
    if (q.Empty()) q.Add(static_cast<int>(rng.Uniform(r.NumCols())));
    queries.push_back(q);
  }

  // Naive, cold: every query pays a full scan.
  NaiveEntropyEngine naive(r);
  Stopwatch naive_watch;
  double naive_sum = 0;
  for (AttrSet q : queries) naive_sum += naive.Entropy(q);
  const double naive_per_query =
      naive_watch.ElapsedSeconds() / static_cast<double>(queries.size());

  // PLI, warmed: repeat the mix several times and take the warm passes.
  PliEntropyEngine pli(r);
  double pli_sum = 0;
  for (AttrSet q : queries) pli_sum += pli.Entropy(q);  // warm-up pass
  Stopwatch pli_watch;
  const int kWarmPasses = 50;
  for (int pass = 0; pass < kWarmPasses; ++pass) {
    double sum = 0;
    for (AttrSet q : queries) sum += pli.Entropy(q);
    pli_sum = sum;
  }
  const double pli_per_query =
      pli_watch.ElapsedSeconds() /
      static_cast<double>(queries.size() * kWarmPasses);

  // Same answers...
  CHECK_NEAR(pli_sum, naive_sum, 1e-6);
  // ...at a >= 10x per-query speedup (acceptance criterion; typical
  // machines see 3-5 orders of magnitude).
  const double speedup = naive_per_query / pli_per_query;
  std::printf("  naive %.3f us/query, warm PLI %.4f us/query: %.0fx\n",
              naive_per_query * 1e6, pli_per_query * 1e6, speedup);
  CHECK(speedup >= 10.0);

  // Zero-overhead-when-off: wrap every warm query in a null-sink span (the
  // shape the instrumented pipeline has at every call site when no
  // --trace/--metrics flag is given) and the 10x guard must still hold.
  // A null sink means no clock read and no allocation, so the wrapped run
  // is the unwrapped run plus a predicted-not-taken branch.
  Stopwatch wrapped_watch;
  for (int pass = 0; pass < kWarmPasses; ++pass) {
    double sum = 0;
    for (AttrSet q : queries) {
      obs::Span span(nullptr, "perf.guard");
      sum += pli.Entropy(q);
    }
    pli_sum = sum;
  }
  const double wrapped_per_query =
      wrapped_watch.ElapsedSeconds() /
      static_cast<double>(queries.size() * kWarmPasses);
  const double wrapped_speedup = naive_per_query / wrapped_per_query;
  std::printf("  null-sink spans: %.4f us/query (%.0fx vs naive)\n",
              wrapped_per_query * 1e6, wrapped_speedup);
  CHECK(wrapped_speedup >= 10.0);
}

TEST_CASE(StoreMmapColdStartBeatsCsvRebuildByTenX) {
  // The store/ cold-start claim: mapping a canonical store file and
  // materializing its projections must be >= 10x faster than the CSV path
  // it replaces (parse the relation CSV, then rebuild the distinct
  // projections). Nursery-scale fixture: ~13k rows x 9 attrs. Best-of-N
  // timing keeps a CI scheduler hiccup from failing the build; the real
  // margin is well over an order of magnitude (binary columns vs integer
  // text parsing plus hash-distinct projection).
  PlantedSpec spec;
  spec.num_attrs = 9;
  spec.num_bags = 3;
  spec.root_rows = 4096;
  spec.max_rows = 12960;
  spec.noise_fraction = 0.05;
  spec.domain_size = 12;
  spec.seed = 5;
  const Relation r = GeneratePlanted(spec).relation;
  // Chain decomposition ABCD | DEFG | GHI over the 9-attribute universe.
  const Schema schema(std::vector<AttrSet>{
      AttrSet(0b000001111), AttrSet(0b001111000), AttrSet(0b111000000)});

  const std::string dir = "/tmp/maimon_perf_guard_" +
                          std::to_string(static_cast<long>(::getpid()));
  const std::string csv_path = dir + ".csv";
  const std::string store_path = dir + ".maimon";
  CHECK(ExportCsv(r, csv_path).ok());
  const ProjectionStore built(r, schema);
  store::Writer writer;
  CHECK(writer.Write(built, store_path).ok());

  constexpr int kTrials = 5;
  double csv_best = 1e99;
  double mmap_best = 1e99;
  size_t csv_rows = 0;
  size_t mmap_rows = 0;
  for (int t = 0; t < kTrials; ++t) {
    Stopwatch csv_watch;
    Relation imported;
    CHECK(ImportCsv(csv_path, &imported).ok());
    const ProjectionStore rebuilt(imported, schema);
    csv_best = std::min(csv_best, csv_watch.ElapsedSeconds());
    csv_rows = rebuilt.TotalRows();

    Stopwatch mmap_watch;
    ProjectionStore loaded(std::vector<StoredProjection>(), 0);
    CHECK(store::LoadProjectionStore(store_path, &loaded).ok());
    mmap_best = std::min(mmap_best, mmap_watch.ElapsedSeconds());
    mmap_rows = loaded.TotalRows();
  }
  std::remove(csv_path.c_str());
  std::remove(store_path.c_str());

  // Both cold starts materialize the same store.
  CHECK_EQ(mmap_rows, csv_rows);
  const double speedup = csv_best / mmap_best;
  std::printf("  cold start: csv+rebuild %.2f ms, mmap load %.3f ms: %.0fx\n",
              csv_best * 1e3, mmap_best * 1e3, speedup);
  CHECK(speedup >= 10.0);
}

TEST_CASE(SubsetProbeExaminesFewCandidatesPerQuery) {
  // The indexed probe's whole point: a cache miss no longer walks every
  // resident key. Run the warm 12-col query mix and bound the AVERAGE
  // candidates examined per probe — the legacy full scan examined every
  // resident (hundreds here) on every one of these probes.
  PlantedSpec spec;
  spec.num_attrs = 12;
  spec.num_bags = 3;
  spec.root_rows = 512;
  spec.max_rows = 2048;
  spec.noise_fraction = 0.05;
  spec.domain_size = 8;
  spec.seed = 1;
  const Relation r = GeneratePlanted(spec).relation;

  Rng rng(2);
  std::vector<AttrSet> queries;
  const uint64_t mask = (uint64_t{1} << r.NumCols()) - 1;
  for (int i = 0; i < 256; ++i) {
    AttrSet q(rng.Next64() & mask);
    if (q.Empty()) q.Add(static_cast<int>(rng.Uniform(r.NumCols())));
    queries.push_back(q);
  }
  PliEntropyEngine pli(r);
  for (int pass = 0; pass < 3; ++pass) {
    for (AttrSet q : queries) pli.Entropy(q);
  }
  const auto stats = pli.stats();
  CHECK(stats.subset_probes > 0);
  const double avg = static_cast<double>(stats.subset_probe_candidates) /
                     static_cast<double>(stats.subset_probes);
  std::printf("  subset probe: %llu probes, %.1f candidates/probe, %zu"
              " residents\n",
              static_cast<unsigned long long>(stats.subset_probes), avg,
              pli.cache().size());
  // The legacy full scan examined every resident on every probe, so the
  // per-probe cost gate is relative to the resident count (the fixture is
  // single-threaded and deterministic: ~500 residents, ~100 candidates).
  // The absolute cushion catches a future probe rewrite that blows up on
  // this adversarial mix (random queries, little width structure) even if
  // the resident count grows with it.
  CHECK(avg <= 0.33 * static_cast<double>(pli.cache().size()));
  CHECK(avg <= 160.0);
}

// Cache hit rate of a full MVD-mining run at `threads` workers, from the
// engine's folded counters: memo hits and partition hits over all lookups.
// The query multiset is thread-count-invariant, so the only way the rate
// can move is cache behavior itself.
double MiningCacheHitRate(const Relation& r, int threads) {
  MaimonConfig config;
  config.epsilon = 0.05;
  config.num_threads = threads;
  Maimon maimon(r, config);
  CHECK(maimon.MineMvds().status.ok());
  const auto stats = maimon.engine().stats();
  const uint64_t hits = stats.value_hits + stats.cache.hits;
  const uint64_t lookups = hits + stats.cache.misses;
  CHECK(lookups > 0);
  return static_cast<double>(hits) / static_cast<double>(lookups);
}

TEST_CASE(EightThreadMiningKeepsTheSingleThreadHitRate) {
  PlantedSpec spec;
  spec.num_attrs = 12;
  spec.num_bags = 3;
  spec.root_rows = 512;
  spec.max_rows = 2048;
  spec.noise_fraction = 0.05;
  spec.domain_size = 8;
  spec.seed = 1;
  const Relation r = GeneratePlanted(spec).relation;

  const double one = MiningCacheHitRate(r, 1);
  const double eight = MiningCacheHitRate(r, 8);
  std::printf("  mining hit rate: 1 thread %.4f, 8 threads %.4f\n", one,
              eight);
  // Parity, with a hair of slack for duplicate-materialization races (two
  // workers missing the same key before either publishes costs one extra
  // miss; the sliced design this guards against lost tens of points).
  CHECK(eight >= one - 0.005);
  // And the rate is genuinely high — the mining workload reuses subset
  // partitions heavily, so a cold-running cache would fail this outright.
  CHECK(one >= 0.5);
  CHECK(eight >= 0.5);
}

TEST_CASE(RankingLabelsEachAttributeSetOncePerCall) {
  PlantedSpec spec;
  spec.num_attrs = 12;
  spec.num_bags = 4;
  spec.root_rows = 512;
  spec.max_rows = 2048;
  spec.noise_fraction = 0.02;
  spec.domain_size = 8;
  spec.seed = 1;
  const Relation r = GeneratePlanted(spec).relation;
  MaimonConfig config;
  config.epsilon = 0.1;
  config.schemas.max_schemas = 64;
  Maimon maimon(r, config);
  const AsMinerResult mined = maimon.MineSchemas();
  CHECK(mined.schemas.size() > 1);

  // The sets the scoring DP reads: every relation, every join-tree
  // separator and the universe — distinct across the whole call, and
  // summed per scheme (what labeling inside each scheme would cost).
  std::set<uint64_t> distinct;
  size_t per_scheme = 0;
  for (const MinedSchema& s : mined.schemas) {
    const std::vector<AttrSet>& rels = s.schema.Relations();
    const JoinTree tree = BuildMaxOverlapJoinTree(rels);
    std::set<uint64_t> sets = {s.schema.UniverseAttrs().bits()};
    for (size_t v = 0; v < rels.size(); ++v) {
      sets.insert(rels[v].bits());
      if (tree.parent[v] >= 0) {
        sets.insert(
            rels[v].Intersect(rels[static_cast<size_t>(tree.parent[v])])
                .bits());
      }
    }
    per_scheme += sets.size();
    distinct.insert(sets.begin(), sets.end());
  }
  std::printf("  ranking %zu schemes: %zu distinct sets, %zu per-scheme\n",
              mined.schemas.size(), distinct.size(), per_scheme);
  CHECK(distinct.size() < per_scheme);

  for (int threads : {1, 4}) {
    obs::Sink sink;
    RankerOptions options;
    options.num_threads = threads;
    options.sink = &sink;
    const RankResult ranked =
        RankSchemes(r, mined.schemas, maimon.oracle(), options);
    CHECK(ranked.status.ok());
    CHECK_EQ(ranked.evaluated, mined.schemas.size());
    // Exact: the workers share one memo, so no set is labeled twice.
    CHECK_EQ(sink.SnapshotMetrics().counter("rank.labelings"),
             static_cast<uint64_t>(distinct.size()));
  }
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
