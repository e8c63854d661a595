// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The concurrent mining runtime's contracts:
//
//   * ParallelFor runs every task exactly once, binds each shard to one
//     thread (the caller at one shard, a thread of its own otherwise), and
//     stops claiming on an expired deadline;
//   * PliEntropyEngine forks are handles onto ONE shared concurrent cache
//     (a single global byte budget — no per-worker slices), the forks
//     answer byte-identical entropies, and MergeStats folds the per-handle
//     counters back exactly;
//   * the Maimon pipeline is thread-count-invariant: mined full MVDs, the
//     conflict graph, enumerated schemes (also when max_schemas truncates
//     them, and when max_conflict_mvds stops mining early), engine query
//     totals, the ranked top-k, and the Yannakakis semijoin reduction are
//     identical at num_threads in {1, 2, 8} on planted bag-chain data.
//
// This suite is also the ThreadSanitizer lane's target
// (scripts/check.sh --tsan): every cross-thread interaction of the runtime
// is exercised here.

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/maimon.h"
#include "data/planted.h"
#include "graph/mis.h"
#include "obs/trace.h"
#include "scheme/assembler.h"
#include "scheme/conflict_graph.h"
#include "scheme/ranker.h"
#include "tests/test_util.h"
#include "util/parallel_for.h"

namespace maimon {
namespace {

PlantedDataset MakePlanted(int attrs, int bags, uint64_t seed,
                           double noise = 0.0) {
  PlantedSpec spec;
  spec.num_attrs = attrs;
  spec.num_bags = bags;
  spec.root_rows = 128;
  spec.max_rows = 512;
  spec.noise_fraction = noise;
  spec.domain_size = 8;
  spec.seed = seed;
  return GeneratePlanted(spec);
}

TEST_CASE(ParallelForRunsEveryTaskExactlyOnce) {
  constexpr size_t kTasks = 257;  // not a multiple of the shard count
  std::vector<std::atomic<int>> counts(kTasks);
  for (auto& c : counts) c.store(0);
  const ParallelForResult run =
      ParallelFor(4, kTasks, nullptr, [&](int shard, size_t i) {
        CHECK(shard >= 0 && shard < 4);
        counts[i].fetch_add(1);
      });
  CHECK(run.completed);
  CHECK_EQ(run.tasks_run, kTasks);
  for (auto& c : counts) CHECK_EQ(c.load(), 1);
}

TEST_CASE(ParallelForBindsEachShardToOneThreadAtATime) {
  // Per-shard counters are written without atomics; if two threads ever
  // ran the same shard concurrently, TSan (the --tsan lane) would flag it
  // and the final tallies would not sum to the task count.
  const std::thread::id caller = std::this_thread::get_id();
  for (int shards : {1, 3}) {
    constexpr size_t kTasks = 300;
    size_t per_shard[3] = {0, 0, 0};
    std::set<std::thread::id> ran_on[3];
    std::atomic<int> started{0};
    const ParallelForResult run =
        ParallelFor(shards, kTasks, nullptr, [&](int shard, size_t) {
          // Each shard's first task waits for every shard's first task, so
          // no shard drains the tasks before the others have started.
          if (per_shard[shard]++ == 0) {
            started.fetch_add(1);
            while (started.load() < shards) std::this_thread::yield();
          }
          ran_on[shard].insert(std::this_thread::get_id());
        });
    CHECK(run.completed);
    CHECK_EQ(per_shard[0] + per_shard[1] + per_shard[2], kTasks);
    std::set<std::thread::id> ids;
    for (int s = 0; s < shards; ++s) {
      CHECK_EQ(ran_on[s].size(), size_t{1});
      ids.insert(ran_on[s].begin(), ran_on[s].end());
    }
    // One shard runs on the caller; three run on three threads of their
    // own, none of them the caller.
    CHECK_EQ(ids.size(), static_cast<size_t>(shards));
    CHECK_EQ(ids.count(caller), size_t{shards == 1 ? 1u : 0u});
  }
}

TEST_CASE(ParallelForStopsClaimingOnExpiredDeadline) {
  const Deadline expired = Deadline::After(0.0);
  std::atomic<size_t> ran{0};
  const ParallelForResult run = ParallelFor(
      2, 1000, &expired, [&](int, size_t) { ran.fetch_add(1); });
  CHECK(!run.completed);
  CHECK_EQ(run.tasks_run, ran.load());
  CHECK(ran.load() < 1000);  // an already-expired deadline blanks the sweep

  // Inline path (single shard) honors the deadline the same way.
  const ParallelForResult inline_run =
      ParallelFor(1, 1000, &expired, [&](int, size_t) {});
  CHECK(!inline_run.completed);
  CHECK_EQ(inline_run.tasks_run, size_t{0});

  // A budget past what the clock can hold never expires, and a hugely
  // negative one is expired from the start, at either path.
  const Deadline huge = Deadline::After(1e12);
  const Deadline negative = Deadline::After(-1e30);
  for (int shards : {1, 2}) {
    const ParallelForResult all =
        ParallelFor(shards, 1000, &huge, [](int, size_t) {});
    CHECK(all.completed);
    CHECK_EQ(all.tasks_run, size_t{1000});
    const ParallelForResult none =
        ParallelFor(shards, 1000, &negative, [](int, size_t) {});
    CHECK(!none.completed);
    CHECK_EQ(none.tasks_run, size_t{0});
  }
}

TEST_CASE(ForksShareOneCacheAtTheFullGlobalBudget) {
  // The old fork/merge design sliced the byte budget 1/n per worker
  // (stranding quota on idle shards and dropping the division remainder);
  // forks now share the parent's concurrent cache outright, so every
  // handle sees the full capacity and the budget is enforced globally.
  const PlantedDataset d = MakePlanted(6, 2, 11);
  PliEngineOptions options;
  options.cache_capacity_bytes = (size_t{1} << 20) + 7;  // awkward on purpose
  PliEntropyEngine engine(d.relation, options);
  for (int shards : {1, 2, 3, 8}) {
    const std::vector<EngineShard> forks = MakeEngineShards(engine, shards);
    CHECK_EQ(forks.size(), static_cast<size_t>(shards));
    for (const EngineShard& fork : forks) {
      // Same object, not a slice.
      CHECK(&fork.engine->cache() == &engine.cache());
      CHECK_EQ(fork.engine->cache().capacity_bytes(),
               options.cache_capacity_bytes);
      // All forks read the same immutable core.
      CHECK(&fork.engine->core() == &engine.core());
    }
  }
  CHECK(engine.cache().bytes() <= options.cache_capacity_bytes);
}

TEST_CASE(ForkedEnginesAnswerIdenticalEntropies) {
  const PlantedDataset d = MakePlanted(7, 2, 13, /*noise=*/0.05);
  PliEntropyEngine engine(d.relation);
  auto fork = engine.Fork();
  const AttrSet universe = d.relation.Universe();
  for (uint64_t mask = 1; mask < 128; ++mask) {
    const AttrSet attrs(mask);
    if (!universe.ContainsAll(attrs)) continue;
    // Exact equality: both run the same intersection arithmetic over the
    // same immutable single-column partitions.
    CHECK_EQ(engine.Entropy(attrs), fork->Entropy(attrs));
  }
}

TEST_CASE(MergeStatsFoldsWorkerCountersExactly) {
  const PlantedDataset d = MakePlanted(6, 2, 17);
  PliEntropyEngine engine(d.relation);
  const std::unique_ptr<PliEntropyEngine> workers[2] = {engine.Fork(),
                                                        engine.Fork()};
  workers[0]->Entropy(AttrSet(0b0111));
  workers[0]->Entropy(AttrSet(0b0111));  // memo hit on the worker
  workers[1]->Entropy(AttrSet(0b1110));
  const auto w0 = workers[0]->stats();
  const auto w1 = workers[1]->stats();
  const auto before = engine.stats();
  engine.MergeStats(*workers[0]);
  engine.MergeStats(*workers[1]);
  const auto after = engine.stats();
  CHECK_EQ(after.queries, before.queries + w0.queries + w1.queries);
  CHECK_EQ(after.value_hits, before.value_hits + w0.value_hits + w1.value_hits);
  CHECK_EQ(after.intersections,
           before.intersections + w0.intersections + w1.intersections);
  CHECK_EQ(after.cache.insertions,
           before.cache.insertions + w0.cache.insertions + w1.cache.insertions);
  CHECK_EQ(after.cache.hits,
           before.cache.hits + w0.cache.hits + w1.cache.hits);
  CHECK_EQ(after.cache.misses,
           before.cache.misses + w0.cache.misses + w1.cache.misses);
  // The bytes gauge reports the shared cache's resident total — a live
  // gauge, never summed across handles.
  CHECK_EQ(after.cache.bytes, engine.cache().bytes());
  CHECK_EQ(engine.NumQueries(), after.queries);
}

struct MiningFingerprint {
  std::vector<AttrSet> separators;
  std::vector<std::string> mvds;
  size_t conflict_vertices = 0;
  size_t conflict_edges = 0;
  uint64_t independent_sets = 0;
  std::vector<std::string> schemas;
  std::vector<std::string> top_k;
  uint64_t engine_queries = 0;
};

MiningFingerprint MineAt(const Relation& relation, int num_threads,
                         double eps) {
  MaimonConfig config;
  config.epsilon = eps;
  config.num_threads = num_threads;
  config.schemas.max_schemas = 2048;  // fixture tops out near 1000: no cap
  Maimon maimon(relation, config);
  const AsMinerResult schemas = maimon.MineSchemas();
  const MvdMinerResult& mvds = maimon.MineMvds();
  CHECK(mvds.status.ok());
  CHECK(schemas.status.ok());
  // The fixture must fit under the cap, so the whole scheme space is
  // compared; TruncationIsThreadCountInvariant covers the truncated stream.
  CHECK(!schemas.truncated);

  MiningFingerprint fp;
  fp.separators = mvds.separators;
  for (const Mvd& m : mvds.mvds) fp.mvds.push_back(m.ToString());
  fp.conflict_vertices = schemas.conflict_vertices;
  fp.conflict_edges = schemas.conflict_edges;
  fp.independent_sets = schemas.independent_sets;
  for (const MinedSchema& s : schemas.schemas) {
    fp.schemas.push_back(s.schema.ToString());
  }
  RankerOptions rank;
  rank.top_k = 5;
  rank.primary = RankKey::kSavings;
  const RankResult ranked =
      RankSchemes(relation, schemas.schemas, maimon.oracle(), rank);
  CHECK(ranked.status.ok());
  for (const RankedScheme& s : ranked.ranked) {
    fp.top_k.push_back(s.schema.ToString());
  }
  fp.engine_queries = maimon.engine().NumQueries();
  return fp;
}

TEST_CASE(MiningIsThreadCountInvariant) {
  // The determinism contract of the whole pipeline: every downstream
  // artifact — mined full MVDs (content AND order), the conflict graph,
  // the enumerated schemes, the ranked top-k — is identical whichever
  // thread count mined it. The planted bag-chain generator gives a
  // relation with rich real structure (multiple separators per chain).
  for (uint64_t seed : {3u, 21u}) {
    const PlantedDataset d = MakePlanted(8, 3, seed, /*noise=*/0.02);
    const MiningFingerprint base = MineAt(d.relation, 1, 0.05);
    CHECK(!base.mvds.empty());
    CHECK(!base.schemas.empty());
    for (int threads : {2, 8}) {
      const MiningFingerprint fp = MineAt(d.relation, threads, 0.05);
      CHECK_EQ(fp.separators, base.separators);
      CHECK_EQ(fp.mvds, base.mvds);
      CHECK_EQ(fp.conflict_vertices, base.conflict_vertices);
      CHECK_EQ(fp.conflict_edges, base.conflict_edges);
      CHECK_EQ(fp.independent_sets, base.independent_sets);
      CHECK_EQ(fp.schemas, base.schemas);
      CHECK_EQ(fp.top_k, base.top_k);
      // The per-pair query streams are deterministic, so after MergeStats
      // the aggregate query counter adds up to the sequential run's —
      // exactly, not approximately.
      CHECK_EQ(fp.engine_queries, base.engine_queries);
    }
  }
}

TEST_CASE(RankingIsThreadCountInvariant) {
  // Per-scheme S/E/J scoring shards over threads the same way MVD mining
  // does (forked engine workers, results indexed by scheme); the ranked
  // output must be byte-identical at any thread count — same order, same
  // exact metric values, same evaluated count.
  const PlantedDataset d = MakePlanted(8, 3, 21, /*noise=*/0.02);
  MaimonConfig config;
  config.epsilon = 0.05;
  config.schemas.max_schemas = 64;
  Maimon maimon(d.relation, config);
  const AsMinerResult schemas = maimon.MineSchemas();
  CHECK(schemas.schemas.size() > 1);  // real work to spread across shards

  RankerOptions options;
  options.top_k = 16;
  options.primary = RankKey::kSavings;
  const RankResult base =
      RankSchemes(d.relation, schemas.schemas, maimon.oracle(), options);
  CHECK(base.status.ok());
  CHECK_EQ(base.evaluated, schemas.schemas.size());
  CHECK(!base.ranked.empty());

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    const RankResult result =
        RankSchemes(d.relation, schemas.schemas, maimon.oracle(), options);
    CHECK(result.status.ok());
    CHECK_EQ(result.evaluated, base.evaluated);
    CHECK_EQ(result.ranked.size(), base.ranked.size());
    for (size_t i = 0; i < base.ranked.size(); ++i) {
      CHECK(result.ranked[i].schema == base.ranked[i].schema);
      // Exact double equality: shards run the identical arithmetic over
      // the same immutable partitions, so the scores cannot drift.
      CHECK_EQ(result.ranked[i].report.j_measure,
               base.ranked[i].report.j_measure);
      CHECK_EQ(result.ranked[i].report.savings_pct,
               base.ranked[i].report.savings_pct);
      CHECK_EQ(result.ranked[i].report.spurious_pct,
               base.ranked[i].report.spurious_pct);
      CHECK_EQ(result.ranked[i].report.join_rows,
               base.ranked[i].report.join_rows);
      CHECK_EQ(result.ranked[i].derivation_j, base.ranked[i].derivation_j);
    }
  }

  // An already-expired budget returns the partial (empty) prefix with
  // kDeadlineExceeded through the threaded path too.
  options.num_threads = 4;
  options.budget_seconds = 1e-9;
  const RankResult expired =
      RankSchemes(d.relation, schemas.schemas, maimon.oracle(), options);
  CHECK(expired.status.IsDeadlineExceeded());
  CHECK(expired.evaluated < schemas.schemas.size());
}

TEST_CASE(TruncationIsThreadCountInvariant) {
  // With a cap small enough to truncate, every thread count must stop at
  // the same point of the scheme stream: same schemes in the same order,
  // same independent_sets tally at the cut, truncated flag set, and the
  // same engine query total (assembly never runs past the cap).
  const PlantedDataset d = MakePlanted(8, 3, 21, /*noise=*/0.02);
  MaimonConfig config;
  config.epsilon = 0.05;
  config.schemas.max_schemas = 4;
  Maimon sequential(d.relation, config);
  const AsMinerResult base = sequential.MineSchemas();
  CHECK(base.status.ok());
  CHECK(base.truncated);
  CHECK_EQ(base.schemas.size(), size_t{4});
  for (int threads : {2, 8}) {
    config.num_threads = threads;
    Maimon maimon(d.relation, config);
    const AsMinerResult result = maimon.MineSchemas();
    CHECK(result.status.ok());
    CHECK(result.truncated);
    CHECK_EQ(maimon.engine().NumQueries(), sequential.engine().NumQueries());
    CHECK_EQ(result.independent_sets, base.independent_sets);
    CHECK_EQ(result.schemas.size(), base.schemas.size());
    for (size_t i = 0; i < base.schemas.size(); ++i) {
      CHECK(result.schemas[i].schema == base.schemas[i].schema);
      CHECK_EQ(result.schemas[i].j_measure, base.schemas[i].j_measure);
    }
  }
}

TEST_CASE(MetricTotalsAreThreadCountInvariant) {
  // The observability fold must inherit the pipeline's determinism: every
  // semantic counter (oracle calls, seeds, expansions, pairs, separators,
  // MVDs, assembly tallies) is folded once from the canonical merge loop,
  // so the sink snapshot and Maimon::metrics() agree exactly at any thread
  // count. Only lane-local operational metrics (pool.* latencies) and cache
  // hit/miss splits may move — those are excluded by construction here.
  const PlantedDataset d = MakePlanted(8, 3, 21, /*noise=*/0.02);
  const std::vector<std::string> kInvariant = {
      "minsep.seeds",        "minsep.expansions",
      "minsep.oracle_calls", "mine.pairs",
      "mine.separators",     "mine.mvds",
      "mine.pairs_merged",
      "assemble.independent_sets", "assemble.schemes",
      "assemble.conflict_vertices", "assemble.conflict_edges"};

  auto counters_at = [&](int threads) {
    obs::Sink sink;
    MaimonConfig config;
    config.epsilon = 0.05;
    config.num_threads = threads;
    config.schemas.max_schemas = 2048;
    config.sink = &sink;
    Maimon maimon(d.relation, config);
    const AsMinerResult schemas = maimon.MineSchemas();
    CHECK(schemas.status.ok());
    const obs::MetricsRegistry snapshot = sink.SnapshotMetrics();
    std::vector<uint64_t> values;
    for (const std::string& name : kInvariant) {
      // Facade registry and sink snapshot are two views of the same fold.
      CHECK_EQ(maimon.metrics().counter(name), snapshot.counter(name));
      values.push_back(snapshot.counter(name));
    }
    return values;
  };

  const std::vector<uint64_t> base = counters_at(1);
  CHECK(base[2] > 0);  // oracle calls: the fixture does real walk work
  for (int threads : {2, 8}) {
    CHECK(counters_at(threads) == base);
  }
}

// What one run with a binding max_conflict_mvds leaves behind.
struct CapStopRun {
  std::vector<AttrSet> separators;
  std::vector<std::string> mvds;
  size_t conflict_vertices = 0;
  size_t conflict_edges = 0;
  size_t mvds_dropped = 0;
  std::vector<std::string> schemas;
  uint64_t engine_queries = 0;
  std::map<std::string, uint64_t> counters;
};

CapStopRun MineWithCap(const Relation& relation, int num_threads, size_t cap,
                       const std::vector<std::string>& counter_names) {
  obs::Sink sink;
  MaimonConfig config;
  config.epsilon = 0.05;
  config.num_threads = num_threads;
  config.schemas.max_schemas = 2048;
  config.schemas.max_conflict_mvds = cap;
  config.sink = &sink;
  Maimon maimon(relation, config);
  const AsMinerResult schemas = maimon.MineSchemas();
  const MvdMinerResult& mvds = maimon.MineMvds();
  CHECK(mvds.status.ok());  // a cap stop is not a deadline
  CHECK(schemas.status.ok());
  CHECK(!schemas.truncated);

  CapStopRun run;
  run.separators = mvds.separators;
  for (const Mvd& m : mvds.mvds) run.mvds.push_back(m.ToString());
  run.conflict_vertices = schemas.conflict_vertices;
  run.conflict_edges = schemas.conflict_edges;
  run.mvds_dropped = schemas.mvds_dropped;
  for (const MinedSchema& s : schemas.schemas) {
    run.schemas.push_back(s.schema.ToString());
  }
  run.engine_queries = maimon.engine().NumQueries();
  const obs::MetricsRegistry snapshot = sink.SnapshotMetrics();
  for (const std::string& name : counter_names) {
    CHECK_EQ(maimon.metrics().counter(name), snapshot.counter(name));
    run.counters[name] = snapshot.counter(name);
  }
  // Every claimed pair's span says what became of it, and exactly the
  // merged prefix reads "merged"; pairs that ran also report their MVDs.
  uint64_t merged_spans = 0;
  sink.ForEachEvent([&](int, const std::string&, const obs::TraceEvent& e) {
    if (std::string(e.name) != "mine.pair") return;
    const auto has = [&](const char* arg) {
      return e.args_json.find(arg) != std::string::npos;
    };
    if (has("\"outcome\":\"merged\"")) {
      ++merged_spans;
      CHECK(has("\"mvds\":"));
    } else {
      CHECK(has("\"outcome\":\"cancelled\"") ||
            has("\"outcome\":\"skipped\""));
    }
  });
  CHECK_EQ(merged_spans, run.counters["mine.pairs_merged"]);
  return run;
}

// The schemes MineSchemas streams from `vertices`: every maximal
// independent set of their conflict graph assembled with intermediates,
// deduped by canonical form (max_schemas never binds on this fixture).
std::vector<std::string> SchemesOf(const Relation& relation,
                                   const std::vector<Mvd>& vertices,
                                   size_t* conflict_edges) {
  PliEntropyEngine engine(relation);
  InfoCalc calc(&engine);
  SchemeAssembler assembler(&calc, relation.Universe());
  const Graph graph = BuildConflictGraph(vertices, conflict_edges);
  std::vector<std::string> schemas;
  std::set<std::string> seen;
  EnumerateMaximalIndependentSets(graph, [&](const VertexSet& mis) {
    std::vector<const Mvd*> members;
    mis.ForEach([&](int v) {
      members.push_back(&vertices[static_cast<size_t>(v)]);
    });
    assembler.Assemble(members, /*emit_intermediates=*/true, nullptr,
                       [&](AssembledScheme&& scheme) {
                         if (scheme.schema.NumRelations() < 2) return true;
                         const std::string key = scheme.schema.ToString();
                         if (seen.insert(key).second) schemas.push_back(key);
                         return true;
                       });
    return true;
  });
  return schemas;
}

TEST_CASE(CapStopIsExactAtEveryThreadCount) {
  // With max_conflict_mvds binding, mining merges pairs in canonical order
  // and stops once the merged prefix holds cap + 1 distinct MVDs;
  // in-flight pairs past it are cancelled and their engine work is not
  // counted. On this fixture pair (0,2) alone mines 8 MVDs and the merged
  // prefix holds 18 after pair (0,3) and 19 after (0,4). So cap 5 cuts
  // inside one pair's list, cap 17 stops exactly on the (0,3) boundary,
  // and cap 18 lands on that boundary and needs one more pair to see an
  // MVD past it. Every artifact of the run, engine query totals and the
  // phase counters included, must be identical at 1, 2 and 8 threads, and
  // the admitted vertices and schemes must be those of an uncapped mine
  // truncated to the cap.
  const PlantedDataset d = MakePlanted(8, 3, 21, /*noise=*/0.02);
  const std::vector<std::string> kCounters = {
      "minsep.seeds",      "minsep.expansions", "minsep.oracle_calls",
      "mine.pairs",        "mine.pairs_merged", "mine.separators",
      "mine.mvds",         "assemble.independent_sets",
      "assemble.schemes",  "assemble.conflict_vertices",
      "assemble.conflict_edges"};

  MaimonConfig uncapped_config;
  uncapped_config.epsilon = 0.05;
  uncapped_config.schemas.max_conflict_mvds = 0;
  Maimon uncapped(d.relation, uncapped_config);
  const std::vector<Mvd>& all = uncapped.MineMvds().mvds;
  CHECK(uncapped.MineMvds().status.ok());
  CHECK(all.size() > 19);

  const struct {
    size_t cap;
    uint64_t pairs_merged;
  } kCases[] = {{5, 2}, {17, 3}, {18, 4}};
  for (const auto& c : kCases) {
    const CapStopRun base = MineWithCap(d.relation, 1, c.cap, kCounters);
    CHECK(base.mvds.size() > c.cap);  // one past the cap: the stop fired
    CHECK(base.mvds.size() < all.size());
    CHECK_EQ(base.conflict_vertices, c.cap);
    CHECK_EQ(base.mvds_dropped, base.mvds.size() - c.cap);
    CHECK_EQ(base.counters.at("mine.pairs_merged"), c.pairs_merged);
    CHECK(c.pairs_merged < base.counters.at("mine.pairs"));

    const std::vector<Mvd> admitted(all.begin(),
                                    all.begin() + static_cast<long>(c.cap));
    for (size_t i = 0; i < c.cap && i < base.mvds.size(); ++i) {
      CHECK_EQ(base.mvds[i], admitted[i].ToString());
    }
    size_t edges = 0;
    CHECK(SchemesOf(d.relation, admitted, &edges) == base.schemas);
    CHECK_EQ(base.conflict_edges, edges);
    CHECK(!base.schemas.empty());

    for (int threads : {2, 8}) {
      const CapStopRun run = MineWithCap(d.relation, threads, c.cap, kCounters);
      CHECK(run.separators == base.separators);
      CHECK(run.mvds == base.mvds);
      CHECK_EQ(run.conflict_vertices, base.conflict_vertices);
      CHECK_EQ(run.conflict_edges, base.conflict_edges);
      CHECK_EQ(run.mvds_dropped, base.mvds_dropped);
      CHECK(run.schemas == base.schemas);
      CHECK_EQ(run.engine_queries, base.engine_queries);
      CHECK(run.counters == base.counters);
    }
  }
}

TEST_CASE(SemijoinReductionIsThreadCountInvariant) {
  // The level-parallel Yannakakis reducer must leave every audit artifact
  // byte-identical to the sequential sweep: join row count, per-run
  // semijoin-dropped tally, the lossless verdict, and the DP cross-check.
  // Order-preserving semijoins make this exact, not statistical.
  const PlantedDataset d = MakePlanted(8, 3, 21, /*noise=*/0.02);
  MaimonConfig config;
  config.epsilon = 0.05;
  config.schemas.max_schemas = 64;
  Maimon maimon(d.relation, config);
  const AsMinerResult schemas = maimon.MineSchemas();
  CHECK(schemas.status.ok());
  CHECK(!schemas.schemas.empty());
  const size_t audits = std::min<size_t>(schemas.schemas.size(), 3);
  for (size_t i = 0; i < audits; ++i) {
    DecompAuditOptions options;
    const DecompositionAudit base =
        maimon.DecomposeAndAudit(schemas.schemas[i], options);
    CHECK(base.status.ok());
    for (int threads : {2, 8}) {
      options.num_threads = threads;
      const DecompositionAudit audit =
          maimon.DecomposeAndAudit(schemas.schemas[i], options);
      CHECK(audit.status.ok());
      CHECK_EQ(audit.join_rows, base.join_rows);
      CHECK_EQ(audit.semijoin_dropped, base.semijoin_dropped);
      CHECK_EQ(audit.original_distinct, base.original_distinct);
      CHECK_EQ(audit.spurious, base.spurious);
      CHECK_EQ(audit.contains_original, base.contains_original);
      CHECK_EQ(audit.exact, base.exact);
      CHECK_EQ(audit.matches_analytic, base.matches_analytic);
    }
  }
}

TEST_CASE(ParallelMiningHonorsTheGlobalBudget) {
  // A wide noisy relation with a near-zero budget must come back quickly
  // with DeadlineExceeded through the threaded path too.
  const PlantedDataset d = MakePlanted(12, 3, 33, /*noise=*/0.1);
  MaimonConfig config;
  config.epsilon = 0.1;
  config.mvd_budget_seconds = 1e-4;
  config.num_threads = 4;
  Maimon maimon(d.relation, config);
  const MvdMinerResult result = maimon.MineMvds();
  CHECK(result.status.IsDeadlineExceeded());
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
