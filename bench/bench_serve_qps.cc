// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Closed-loop QPS harness for the serve/ query service: N client threads
// each fire queries back-to-back against one QueryService and we report
// aggregate throughput at 1 / 8 / 64 clients. Two stores are served:
//
//   serve-chain    a planted 12-attribute / 4-bag chain decomposed by its
//                  ground-truth scheme (eps 0) — the pruning showcase, as
//                  most queries touch a strict subtree;
//   serve-nursery  a Nursery sample decomposed by a MINED scheme (eps 0.3,
//                  1 mining thread for determinism) — the end-to-end
//                  mine -> decompose -> serve path.
//
// The workload is a deterministic mix (per query index i, mod 4): a
// point lookup on one projection, a single-attribute scan, an attribute
// pair plus an equality selection, and an attribute triple plus a range
// selection; every other query is count-only. `--queries=N` is the TOTAL
// query count per row: query i of a row is workload entry i mod 256, and
// each client thread runs one contiguous slice of those N, so the 1-, 8-
// and 64-client rows run the same query multiset and read the same
// result_rows and enumerated (the join rows the executor visited, summed
// over the row's queries), and their wall times are comparable.
//
// Flags: --queries=N (default 4096), --mine-budget=S (default 5.0),
// --json (JSONL rows for scripts/bench_trend.py, each stamped with the
// host's online core count and the compiler; the committed
// BENCH_serve.json is this harness at the CI smoke flags), --trace=FILE /
// --metrics=FILE (ObsSession). A nursery mining time-limit marks that
// dataset's rows timed_out so the trend gate skips them (the mined schema,
// hence the serving cost, is no longer deterministic).
//
// Without --json the harness additionally prints the partial-vs-full
// reconstruction table EXPERIMENTS.md quotes: rows, plan nodes, semijoin
// passes and per-query latency as the requested attribute set grows from
// one attribute to the full universe.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.h"
#include "core/maimon.h"
#include "data/nursery.h"
#include "data/planted.h"
#include "decomp/projection_store.h"
#include "scheme/assembler.h"
#include "serve/planner.h"
#include "serve/service.h"
#include "util/stopwatch.h"

namespace maimon {
namespace bench {
namespace {

// The planted ground truth as an acyclic scheme (support MVDs applied as
// join-tree splits) — the same construction the decomp/serve tests use.
Schema ChainScheme(const PlantedDataset& d) {
  PliEntropyEngine engine(d.relation);
  InfoCalc oracle(&engine);
  SchemeAssembler assembler(&oracle, d.relation.Universe());
  std::vector<const Mvd*> mvds;
  for (const Mvd& m : d.schema.Support()) mvds.push_back(&m);
  Schema out;
  assembler.Assemble(mvds, /*emit_intermediates=*/false, nullptr,
                     [&](AssembledScheme&& s) {
                       out = s.schema;
                       return true;
                     });
  return out;
}

// Deterministic query mix over the store's universe (see file header).
// Index arithmetic only — no RNG — so every run and every machine fires
// the identical workload.
std::vector<serve::Query> MakeWorkload(const Relation& relation,
                                       const ProjectionStore& store,
                                       size_t count) {
  AttrSet universe;
  for (const StoredProjection& p : store.projections()) {
    universe = universe.Union(p.attrs);
  }
  const std::vector<int> attrs = universe.ToVector();
  const size_t n = attrs.size();
  const auto domain = [&](int a) {
    return std::max<uint32_t>(1, relation.DomainSize(a));
  };

  std::vector<serve::Query> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    serve::Query q;
    switch (i % 4) {
      case 0: {  // point lookup: whole node, equality on its first column
        const StoredProjection& p =
            store.projections()[i % store.NumProjections()];
        q.attrs = p.attrs;
        const int a = p.columns[0];
        q.selections.push_back(serve::Selection::Eq(
            a, static_cast<uint32_t>((i / 4) % domain(a))));
        break;
      }
      case 1:  // single-attribute scan
        q.attrs = AttrSet::Single(attrs[i % n]);
        break;
      case 2: {  // attribute pair + equality selection elsewhere
        q.attrs = AttrSet::Single(attrs[i % n]).Plus(attrs[(i * 7 + 3) % n]);
        const int s = attrs[(i * 5 + 1) % n];
        q.selections.push_back(serve::Selection::Eq(
            s, static_cast<uint32_t>((i / 4) % domain(s))));
        break;
      }
      default: {  // attribute triple + range selection
        q.attrs = AttrSet::Single(attrs[i % n])
                      .Plus(attrs[(i + n / 3) % n])
                      .Plus(attrs[(i + 2 * n / 3) % n]);
        const int s = attrs[(i * 3 + 2) % n];
        q.selections.push_back(serve::Selection::Range(s, 0, domain(s) / 2));
        break;
      }
    }
    q.count_only = (i % 2) == 0;
    out.push_back(std::move(q));
  }
  return out;
}

struct LoopResult {
  size_t executed = 0;
  double seconds = 0.0;
  uint64_t result_rows = 0;
  uint64_t enumerated = 0;
  uint64_t errors = 0;
};

// Closed loop: each of `threads` clients fires its slice of the row's
// `total_queries` back-to-back.
LoopResult RunClosedLoop(const serve::QueryService& service,
                         const std::vector<serve::Query>& workload,
                         int threads, size_t total_queries) {
  const size_t clients = static_cast<size_t>(threads);
  std::atomic<uint64_t> rows{0};
  std::atomic<uint64_t> enumerated{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  obs::Sink* sink = service.options().sink;
  Stopwatch watch;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t local_rows = 0;
      uint64_t local_enumerated = 0;
      uint64_t local_errors = 0;
      const size_t begin = total_queries * static_cast<size_t>(t) / clients;
      const size_t end =
          total_queries * (static_cast<size_t>(t) + 1) / clients;
      for (size_t i = begin; i < end; ++i) {
        const serve::QueryResult res =
            service.Execute(workload[i % workload.size()]);
        local_enumerated += res.rows_enumerated;
        if (res.status.ok()) {
          local_rows += res.rows;
        } else {
          ++local_errors;
        }
      }
      rows.fetch_add(local_rows);
      enumerated.fetch_add(local_enumerated);
      errors.fetch_add(local_errors);
      if (sink != nullptr) sink->ReleaseLane();
    });
  }
  for (std::thread& w : workers) w.join();
  LoopResult out;
  out.executed = total_queries;
  out.seconds = watch.ElapsedSeconds();
  out.result_rows = rows.load();
  out.enumerated = enumerated.load();
  out.errors = errors.load();
  return out;
}

// The compiler that built this binary, e.g. "gcc 12.2.0".
constexpr const char* kCompiler =
#if defined(__clang__)
    "clang " __clang_version__;
#elif defined(__GNUC__)
    "gcc " __VERSION__;
#else
    "unknown";
#endif

void PrintRow(const std::string& dataset, size_t rows, int cols, double eps,
              int threads, const LoopResult& run, bool timed_out,
              bool json) {
  if (json) {
    std::printf(
        "{\"fig\":0,\"dataset\":\"%s\",\"rows\":%zu,\"cols\":%d,"
        "\"eps\":%.2f,\"threads\":%d,\"queries\":%zu,\"seconds\":%.3f,"
        "\"qps\":%.1f,\"result_rows\":%llu,\"enumerated\":%llu,"
        "\"errors\":%llu,\"timed_out\":%s,\"nproc\":%ld,"
        "\"compiler\":\"%s\"}\n",
        dataset.c_str(), rows, cols, eps, threads, run.executed, run.seconds,
        static_cast<double>(run.executed) / std::max(run.seconds, 1e-9),
        static_cast<unsigned long long>(run.result_rows),
        static_cast<unsigned long long>(run.enumerated),
        static_cast<unsigned long long>(run.errors),
        timed_out ? "true" : "false", ::sysconf(_SC_NPROCESSORS_ONLN),
        kCompiler);
    std::fflush(stdout);
    return;
  }
  std::printf("%8d | %8zu | %9.3f %10.0f | %12llu %12llu %6llu%s\n",
              threads, run.executed, run.seconds,
              static_cast<double>(run.executed) / std::max(run.seconds, 1e-9),
              static_cast<unsigned long long>(run.result_rows),
              static_cast<unsigned long long>(run.enumerated),
              static_cast<unsigned long long>(run.errors),
              timed_out ? " TL" : "");
}

// One dataset: build the service (snapshot reduction paid here, off the
// measured path), then one closed-loop row per client count.
void RunDataset(const std::string& dataset, const Relation& relation,
                const Schema& schema, double eps, bool timed_out,
                size_t total_queries, bool json, obs::Sink* sink) {
  serve::ServiceOptions options;
  options.sink = sink;
  const serve::QueryService service(ProjectionStore(relation, schema),
                                    options);
  const std::vector<serve::Query> workload = MakeWorkload(
      relation, service.snapshot()->store(), /*count=*/256);

  if (!json) {
    std::printf("\n[%s] rows=%zu cols=%d eps=%.2f store_nodes=%zu\n",
                dataset.c_str(), relation.NumRows(), relation.NumCols(), eps,
                service.snapshot()->store().NumProjections());
    std::printf("%8s | %8s | %9s %10s | %12s %12s %6s\n", "clients",
                "queries", "time[s]", "qps", "result_rows", "enumerated",
                "errors");
    Rule(77);
  }
  for (int threads : {1, 8, 64}) {
    const LoopResult run =
        RunClosedLoop(service, workload, threads, total_queries);
    PrintRow(dataset, relation.NumRows(), relation.NumCols(), eps, threads,
             run, timed_out, json);
  }
}

// Partial-vs-full reconstruction table (human mode): as the requested
// attribute set grows, the plan's node count and semijoin passes grow
// toward the full plan — the measurable payoff of subtree pruning.
void PrintPartialVsFull(const Relation& relation, const Schema& schema) {
  const serve::QueryService service(ProjectionStore(relation, schema));
  const size_t store_nodes = service.snapshot()->store().NumProjections();
  const std::vector<int> attrs = relation.Universe().ToVector();
  std::printf(
      "\n[serve-chain] partial vs full reconstruction "
      "(full plan = %zu nodes, %zu semijoin passes)\n",
      store_nodes, 2 * (store_nodes - 1));
  std::printf("%8s | %6s %7s | %10s %10s\n", "attrs", "nodes", "passes",
              "rows", "ms/query");
  Rule(52);
  std::vector<size_t> ks = {1, 2, 3, attrs.size() / 2, attrs.size()};
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  for (size_t k : ks) {
    serve::Query q;
    for (size_t i = 0; i < k; ++i) q.attrs.Add(attrs[i]);
    q.count_only = true;
    const serve::QueryResult first = service.Execute(q);
    constexpr int kReps = 50;
    Stopwatch watch;
    for (int i = 0; i < kReps; ++i) service.Execute(q);
    std::printf("%8zu | %6zu %7llu | %10llu %10.3f\n", k, first.plan_nodes,
                static_cast<unsigned long long>(first.semijoin_passes),
                static_cast<unsigned long long>(first.rows),
                watch.ElapsedSeconds() * 1000.0 / kReps);
  }
}

void Run(size_t total_queries, double mine_budget, bool json,
         const std::string& trace_path, const std::string& metrics_path) {
  ObsSession obs(trace_path, metrics_path);

  if (!json) {
    Header("Serve: closed-loop QPS over decomposed stores",
           "Deterministic 4-way query mix (point / scan / pair+eq / "
           "triple+range), " +
               std::to_string(total_queries) + " queries per row.");
  }

  // serve-chain: planted ground truth, eps 0.
  PlantedSpec spec;
  spec.num_attrs = 12;
  spec.num_bags = 4;
  spec.root_rows = 192;
  spec.max_rows = 2048;
  spec.domain_size = 8;
  spec.seed = 7;
  const PlantedDataset chain = GeneratePlanted(spec);
  const Schema chain_scheme = ChainScheme(chain);
  RunDataset("serve-chain", chain.relation, chain_scheme, /*eps=*/0.0,
             /*timed_out=*/false, total_queries, json, obs.sink());

  // serve-nursery: mined scheme over a Nursery sample. One mining thread
  // keeps the mined scheme deterministic; a mining TL marks the rows
  // timed_out (the scheme, hence the serving cost, is no longer stable).
  const Relation nursery = NurseryDataset().SampleRows(0.1, 3);
  MaimonConfig config;
  config.epsilon = 0.3;
  config.mvd_budget_seconds = mine_budget;
  config.schema_budget_seconds = mine_budget;
  config.schemas.max_schemas = 32;
  config.mvd.max_full_mvds_per_separator = 3;
  config.num_threads = 1;
  Maimon maimon(nursery, config);
  const AsMinerResult mined = maimon.MineSchemas();
  if (mined.schemas.empty()) {
    std::fprintf(stderr,
                 "serve-nursery skipped: mining returned no schemas%s\n",
                 SchemeRunMarker(mined).c_str());
  } else {
    const MinedSchema* best = &mined.schemas[0];
    for (const MinedSchema& s : mined.schemas) {
      if (s.j_measure < best->j_measure) best = &s;
    }
    RunDataset("serve-nursery", nursery, best->schema, config.epsilon,
               mined.status.IsDeadlineExceeded(), total_queries, json,
               obs.sink());
  }

  if (!json) PrintPartialVsFull(chain.relation, chain_scheme);
}

}  // namespace
}  // namespace bench
}  // namespace maimon

int main(int argc, char** argv) {
  size_t total_queries = 4096;
  double mine_budget = 5.0;
  bool json = false;
  std::string trace_path;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (maimon::bench::CountFlag(argv[i], "--queries=", &total_queries)) {
    } else if (maimon::bench::SecondsFlag(argv[i], "--mine-budget=",
                                          &mine_budget)) {
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (maimon::bench::ParseObsFlag(argv[i], &trace_path,
                                           &metrics_path)) {
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  maimon::bench::Run(total_queries, mine_budget, json, trace_path,
                     metrics_path);
  return 0;
}
