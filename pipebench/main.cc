// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// pipebench: the end-to-end pipeline benchmark, relation in, answers out.
//
// One run = one workload at one seed:
//
//   1. generate the workload's relation (a fixed base relation whose codes
//      the seed relabels, see Relabel) and write it as CSV;
//   2. build once: CSV -> ImportCsv -> Maimon (MineMvds, MineSchemas) ->
//      RankSchemes (top scheme by J) -> ProjectionStore ->
//      YannakakisExecutor::Reduce -> store::Writer::Write; check the
//      deployed scheme with DecomposeAndAudit, and compute the reference
//      answers from the full, unpruned join of the written store file;
//   3. run kRounds rounds, each with its share of the remaining builds, of
//      the set-ups (QueryService::FromFile + a fixed warm-up prefix of the
//      query sequence), one serve segment (serve_loop.h: 2 clients in a
//      closed loop for --seconds / kRounds, plus the hot-swap publisher on
//      swap-chain) and its share of quiescent publishes. Spreading every
//      kind of measurement over the whole run makes each median sample the
//      run's whole window, not one stretch of a noisy machine;
//   4. check every served answer outside the timed regions — each timed
//      answer by row count as the loop takes it, after its latency, and
//      every distinct query once more on each version by row count plus an
//      order-independent row hash — then print the metrics.
//
// --trace 0 prints the end-to-end metrics. --trace 1 traces every other
// round with the benchmark's own spans (span_log.h) around every public
// call, attaches an obs::Sink to the traced builds to read the pool
// queue-wait counter, and prints the per-layer metrics, including the
// tracing overhead of traced against untraced rounds.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit codes: 0 ok; 1 a failed operation or wrong answer (the
// JSON line still prints); 2 bad arguments; 3 refused (unoptimized or
// sanitized build, or the workload could not be set up).

#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/nursery.h"
#include "data/planted.h"
#include "data/relation_io.h"
#include "decomp/audit.h"
#include "join/metrics.h"
#include "obs/trace.h"
#include "pipeline.h"
#include "queries.h"
#include "serve/service.h"
#include "serve_loop.h"
#include "span_log.h"
#include "store/mapped_store.h"
#include "store/writer.h"
#include "util/rng.h"
#include "util/stopwatch.h"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif

namespace pipebench {
namespace {

using maimon::ProjectionStore;
using maimon::Status;
using maimon::Stopwatch;
namespace serve = maimon::serve;
namespace mstore = maimon::store;

constexpr int kRounds = 6;  // even: a traced run traces every other round
constexpr int kSetupReps = 12;
constexpr int kRepublishReps = 18;  // quiescent publishes, no swapper
constexpr size_t kSequenceLength = size_t{1} << 16;
constexpr uint64_t kPublishEvery = 2000;  // claimed queries per hot swap
constexpr size_t kWarmupQueries = 32;
constexpr uint64_t kPostSwapWindow = 64;
constexpr double kQueryBudgetSeconds = 10.0;
constexpr int kEvaluateReps = 3;

struct Workload {
  std::string name;
  bool nursery = false;  // the regenerated Nursery relation; else planted
  maimon::PlantedSpec planted;
  /// Generator seeds of the planted base relations: version a, version b.
  uint64_t base_seed[2] = {1, 2};
  double epsilon = 0.0;  // at 0 the audit must also find the join exact
  int build_reps = 3;    // the first one plus the ones spread on rounds
  size_t pool_draws = 1024;
  bool swap = false;  // second version + publisher thread
};

std::vector<Workload> Workloads() {
  std::vector<Workload> out;

  Workload adult;  // Table 2's Adult shape at scale 0.25
  adult.name = "mine-adult";
  adult.planted.num_attrs = 14;
  adult.planted.num_bags = 4;
  adult.planted.root_rows = 3052;
  adult.planted.max_rows = 12210;
  adult.planted.noise_fraction = 0.03;
  adult.planted.domain_size = 18;
  adult.planted.branch_factor = 3;
  adult.epsilon = 0.01;
  out.push_back(adult);

  Workload nursery;
  nursery.name = "serve-nursery";
  nursery.nursery = true;
  nursery.epsilon = 0.3;
  nursery.build_reps = 25;
  out.push_back(nursery);

  Workload chain;
  chain.name = "swap-chain";
  chain.planted.num_attrs = 12;
  chain.planted.num_bags = 4;
  chain.planted.root_rows = 2000;
  chain.planted.max_rows = 8000;
  chain.planted.domain_size = 10;
  chain.planted.branch_factor = 3;
  chain.build_reps = 7;
  chain.pool_draws = kSequenceLength - kWarmupQueries;  // all drawn fresh
  chain.swap = true;
  out.push_back(chain);
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  std::string commit = "unknown";
};

// The seed relabels each column's codes with a random permutation of the
// codes that column uses. Entropies, dependencies, the mined scheme and
// every size stay those of the fixed base relation, so a workload does the
// same mining and storage work at every seed, while its inputs (the codes,
// and with them which rows each selection picks) differ. Mining planted
// relations drawn afresh per seed deploys schemes of very different shape
// and size, which no bound of a quarter could cover.
maimon::Relation Relabel(const maimon::Relation& base, uint64_t seed) {
  maimon::Rng rng(seed * 0x2545f4914f6cdd1dULL + 0x7f4a7c15);
  std::vector<std::vector<uint32_t>> columns;
  std::vector<uint32_t> domains;
  for (int c = 0; c < base.NumCols(); ++c) {
    const std::vector<uint32_t>& column = base.Column(c);
    std::vector<uint32_t> used = column;
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    std::vector<uint32_t> shuffled = used;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
    }
    std::vector<uint32_t> code(base.DomainSize(c), 0);
    for (size_t i = 0; i < used.size(); ++i) code[used[i]] = shuffled[i];
    std::vector<uint32_t> relabeled;
    relabeled.reserve(column.size());
    for (uint32_t v : column) relabeled.push_back(code[v]);
    columns.push_back(std::move(relabeled));
    domains.push_back(base.DomainSize(c));
  }
  return maimon::Relation(std::move(columns), std::move(domains));
}

// ---- small statistics helpers ----------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double PeakRssMb() {
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- bookkeeping -----------------------------------------------------------

// Attempted / failed operations: queries, publishes and pipeline calls.
class Ledger {
 public:
  void Add(uint64_t attempted, uint64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0 && notes_.size() < 8) notes_.push_back(what);
  }
  void Attempt(bool ok, const std::string& what) { Add(1, ok ? 0 : 1, what); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> notes_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
  bool exact = false;  // a deterministic count, printed as an integer
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics_.push_back(Metric{name, value, unit, samples, false});
  }
  void Count(const std::string& name, uint64_t value,
             const std::string& unit = "count") {
    metrics_.push_back(
        Metric{name, static_cast<double>(value), unit, 1, true});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string FormatValue(const Metric& m) {
  char buf[64];
  if (m.exact) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64,
                  static_cast<uint64_t>(m.value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
  }
  return buf;
}

// ---- the run ---------------------------------------------------------------

// The run's scratch directory (CSV and store files); removed with every
// file in it when the run returns, on every path.
class WorkDir {
 public:
  explicit WorkDir(std::string path)
      : path_(std::move(path)), ok_(::mkdir(path_.c_str(), 0755) == 0) {}
  ~WorkDir() {
    if (!ok_) return;
    for (const char* name :
         {"a.csv", "b.csv", "a.store", "b.store", "live.store"}) {
      std::remove(File(name).c_str());
    }
    ::rmdir(path_.c_str());
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  bool ok() const { return ok_; }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
  bool ok_;
};


int Refuse(const std::string& why) {
  std::fprintf(stderr, "pipebench: %s\n", why.c_str());
  return 3;
}

std::string Stamp(const Args& args) {
  const char* compiler =
#if defined(__clang__)
      "clang ";
#elif defined(__GNUC__)
      "gcc ";
#else
      "unknown ";
#endif
  std::string mix;
  for (int w : kMix) mix += (mix.empty() ? "" : ",") + std::to_string(w);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\":\"%s\",\"seed\":%" PRIu64
                ",\"trace\":%d,\"nproc\":%ld,\"compiler\":\"%s%s\","
                "\"build_type\":\"%s\",\"commit\":\"%s\",\"mix\":\"%s\"}",
                args.workload.c_str(), args.seed, args.trace ? 1 : 0,
                ::sysconf(_SC_NPROCESSORS_ONLN), compiler, __VERSION__,
                PIPEBENCH_BUILD_TYPE, args.commit.c_str(), mix.c_str());
  return buf;
}

// Deterministic work counts, compared across the build repetitions of one
// run (and, by run.py, across runs at one seed).
struct Counts {
  uint64_t entropy_queries = 0;
  uint64_t oracle_calls = 0;
  uint64_t schemes = 0;
  uint64_t independent_sets = 0;
  uint64_t stored_rows = 0;
  uint64_t store_bytes = 0;
  std::string deployed;

  static Counts Of(const BuildOutput& b) {
    return Counts{b.mine_entropy_queries, b.minsep.oracle_calls,
                  b.schemes,              b.independent_sets,
                  b.stored_rows,          b.store_bytes,
                  b.deployed};
  }
  bool operator==(const Counts& o) const {
    return entropy_queries == o.entropy_queries &&
           oracle_calls == o.oracle_calls && schemes == o.schemes &&
           independent_sets == o.independent_sets &&
           stored_rows == o.stored_rows && store_bytes == o.store_bytes &&
           deployed == o.deployed;
  }
};

// The per-layer metrics of a traced run: self times from the span log
// (traced rounds only), the counters the library exposes, and the tracing
// overhead (traced rounds against untraced rounds of the same run).
void LayerMetrics(const SpanLog& log, const QueryPool& pool,
                  const LoopState& loop, const BuildOutput& first,
                  const std::vector<double>* build_s,
                  const std::vector<double>& pool_wait_ms, double audit_s,
                  uint64_t semijoin_passes, uint64_t result_rows,
                  Report* report) {
  std::vector<uint64_t> starts = loop.window_starts;
  std::sort(starts.begin(), starts.end());
  std::map<std::string, std::vector<double>> self;  // ns, by span name
  std::vector<double> execute_us[kNumClasses];
  std::vector<double> post_swap_us;  // the first queries after each publish
  for (const SelfTime& s : log.SelfTimes()) {
    self[s.name].push_back(s.self_ns);
    if (std::strcmp(s.name, "serve.execute") != 0) continue;
    const uint64_t index = static_cast<uint64_t>(s.query_id);
    execute_us[pool.classes[pool.At(index)]].push_back(s.self_ns / 1e3);
    const auto it = std::upper_bound(starts.begin(), starts.end(), index);
    if (it != starts.begin() && index < *(it - 1) + kPostSwapWindow) {
      post_swap_us.push_back(s.self_ns / 1e3);
    }
  }
  const auto span = [&](const char* name, double ns_per_unit,
                        const char* metric, const char* unit) {
    const std::vector<double>& v = self[name];
    report->Add(metric, Median(v) / ns_per_unit, unit, v.size());
  };
  const auto ratio = [](uint64_t num, uint64_t den) {
    return static_cast<double>(num) /
           static_cast<double>(std::max<uint64_t>(1, den));
  };

  const maimon::PliEntropyEngine::Stats& e = first.entropy;
  span("data.import", 1e9, "data.import_s", "s");
  span("entropy.init", 1e9, "entropy.init_s", "s");
  report->Count("entropy.queries", first.mine_entropy_queries);
  report->Count("entropy.intersections", e.intersections);
  report->Add("entropy.cache_hit_rate",
              ratio(e.cache.hits, e.cache.hits + e.cache.misses), "ratio", 1);
  report->Add("entropy.value_hit_rate", ratio(e.value_hits, e.queries),
              "ratio", 1);
  report->Count("entropy.evictions", e.cache.evictions);
  report->Add("entropy.probe_candidates_per_probe",
              ratio(e.subset_probe_candidates, e.subset_probes), "count", 1);
  report->Add("entropy.resident_mb",
              static_cast<double>(e.cache.bytes) / (1024.0 * 1024.0), "MB", 1);

  span("core.mine_mvds", 1e9, "core.mine_mvds_s", "s");
  report->Count("core.oracle_calls", first.minsep.oracle_calls);
  report->Add("core.oracle_calls_per_pair",
              ratio(first.minsep.oracle_calls,
                    first.attrs * (first.attrs - 1) / 2),
              "count", 1);
  report->Count("core.seeds", first.minsep.seeds);
  report->Count("core.expansions", first.minsep.expansions);
  report->Count("core.separators", first.separators);
  report->Count("core.mvds", first.mvds);

  span("scheme.assemble", 1e9, "scheme.assemble_s", "s");
  report->Count("scheme.conflict_vertices", first.conflict_vertices);
  report->Count("scheme.conflict_edges", first.conflict_edges);
  report->Count("graph.independent_sets", first.independent_sets);
  report->Count("scheme.schemes", first.schemes);
  report->Count("scheme.mvds_dropped", first.mvds_dropped);
  span("scheme.rank", 1e9, "scheme.rank_s", "s");
  span("join.evaluate", 1e6, "join.evaluate_ms", "ms");

  span("decomp.project", 1e6, "decomp.project_ms", "ms");
  span("decomp.reduce", 1e6, "decomp.reduce_ms", "ms");
  report->Count("decomp.stored_rows", first.stored_rows);
  report->Count("decomp.semijoin_dropped", first.semijoin_dropped);
  report->Add("decomp.audit_s", audit_s, "s", 1);

  span("store.write", 1e6, "store.write_ms", "ms");
  span("store.open", 1e6, "store.open_ms", "ms");
  span("store.load", 1e6, "store.load_ms", "ms");

  span("serve.snapshot", 1e6, "serve.snapshot_ms", "ms");
  span("serve.plan", 1e3, "serve.plan_us", "us");
  const Tally& untraced = loop.tally[0];
  const Tally& traced = loop.tally[1];
  const uint64_t queries = untraced.queries + traced.queries;
  report->Add("serve.post_swap_p99_us", Percentile(post_swap_us, 0.99), "us",
              post_swap_us.size());
  for (int c = 0; c < kNumClasses; ++c) {
    report->Add(std::string("serve.") + ClassName(c) + "_p50_us",
                Median(execute_us[c]), "us", execute_us[c].size());
  }
  report->Add("serve.plan_nodes_mean",
              ratio(untraced.plan_nodes + traced.plan_nodes, queries), "count",
              queries);
  report->Count("serve.semijoin_passes", semijoin_passes);
  report->Add("serve.point_lookup_share",
              ratio(untraced.point_lookups + traced.point_lookups, queries),
              "ratio", queries);
  report->Count("serve.result_rows", result_rows);

  report->Add("util.pool_queue_wait_ms", Median(pool_wait_ms), "ms",
              pool_wait_ms.size());

  const double build_untraced = Median(build_s[0]);
  report->Add("obs.build_overhead_pct",
              100.0 * (Median(build_s[1]) - build_untraced) / build_untraced,
              "%", build_s[1].size());
  const double qps_untraced =
      static_cast<double>(untraced.queries) / loop.seconds[0];
  const double qps_traced =
      static_cast<double>(traced.queries) / loop.seconds[1];
  report->Add("obs.qps_overhead_pct",
              100.0 * (qps_untraced - qps_traced) / qps_untraced, "%",
              traced.queries);
}

// Runs fn(v) for every version; version b runs on a second thread.
template <typename Fn>
void ForEachVersion(size_t num_versions, const Fn& fn) {
  std::thread second;
  if (num_versions > 1) second = std::thread([&] { fn(1); });
  fn(0);
  if (second.joinable()) second.join();
}

// Repetitions of `total` that fall in round `r`, spread evenly.
int Share(int total, int r) {
  return total * (r + 1) / kRounds - total * r / kRounds;
}

int Run(const Args& args, const Workload& w) {
#if !defined(__OPTIMIZE__)
  return Refuse("refusing to report from a build with optimization off");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return Refuse("refusing to report from a sanitizer build");
#endif

  std::printf("stamp %s\n", Stamp(args).c_str());
  std::fflush(stdout);

  const WorkDir dir(args.work_dir + "/" + w.name + "-" +
                    std::to_string(::getpid()));
  if (!dir.ok()) return Refuse("cannot create " + dir.path());
  const size_t num_versions = w.swap ? 2 : 1;
  const std::string live_path = dir.File("live.store");
  std::vector<std::string> csv(num_versions);
  std::vector<Version> versions(num_versions);
  for (size_t v = 0; v < num_versions; ++v) {
    const std::string tag = v == 0 ? "a" : "b";
    csv[v] = dir.File(tag + ".csv");
    versions[v].path = dir.File(tag + ".store");
    maimon::PlantedSpec spec = w.planted;
    spec.seed = w.base_seed[v];
    const maimon::Relation relation = Relabel(
        w.nursery ? maimon::NurseryDataset()
                  : maimon::GeneratePlanted(spec).relation,
        args.seed + v);
    const Status status = maimon::ExportCsv(relation, csv[v]);
    if (!status.ok()) return Refuse("csv export: " + status.message());
  }

  Ledger ledger;
  SpanLog log;
  SpanLane* main_lane = args.trace ? log.NewLane() : nullptr;
  std::vector<std::string> flags;

  // ---- preparation: first build of each version and its checks -----------
  BuildOptions build;
  build.epsilon = w.epsilon;

  std::vector<double> build_s[2];  // untraced, traced
  std::vector<double> pool_wait_ms;
  double audit_s = 0;
  BuildOutput first;  // version a's first build: the counters reported
  for (size_t v = 0; v < num_versions; ++v) {
    BuildOutput b = BuildStore(csv[v], versions[v].path, build, /*keep=*/true);
    ledger.Add(static_cast<uint64_t>(b.calls), b.status.ok() ? 0 : 1,
               "build: " + b.status.message());
    if (!b.status.ok()) return Refuse("build failed: " + b.status.message());
    if (v == 0) build_s[0].push_back(b.seconds);

    // The deployed scheme must pass the lossless-join audit.
    SpanLane* lane = v == 0 ? main_lane : nullptr;
    maimon::DecompositionAudit audit;
    {
      Scope span(lane, "decomp.audit");
      maimon::DecompAuditOptions options;
      options.budget_seconds = build.budget_seconds;
      options.num_threads = build.threads;
      const Stopwatch watch;
      audit = b.maimon->DecomposeAndAudit(b.deployed_scheme, options);
      if (v == 0) audit_s = watch.ElapsedSeconds();
    }
    ledger.Attempt(audit.status.ok() && audit.contains_original &&
                       audit.matches_analytic &&
                       (w.epsilon > 0 || audit.exact),
                   "audit of " + b.deployed);
    // One EvaluateSchema on the deployed scheme: the counting DP + J that
    // ranking repeats once per scheme.
    for (int e = 0; lane != nullptr && e < kEvaluateReps; ++e) {
      Scope span(lane, "join.evaluate");
      const maimon::SchemaReport report = maimon::EvaluateSchema(
          *b.relation, b.deployed_scheme.schema, b.maimon->oracle());
      ledger.Attempt(report.num_relations > 0, "evaluate");
    }
    // Only the store and its meta outlive the checks, so no two builds'
    // engines are ever alive at once (peak_rss_mb is one build's).
    b.maimon.reset();
    b.relation.reset();
    ::malloc_trim(0);
    versions[v].store = std::move(b.store);
    versions[v].writer = std::make_unique<mstore::Writer>(b.meta);
    if (v == 0) first = std::move(b);
  }

  // ---- reference answers, from the store files as written ----------------
  QueryPool pool;
  std::vector<Status> loaded_ok(num_versions);
  {
    ProjectionStore loaded(std::vector<maimon::StoredProjection>(), 0);
    loaded_ok[0] = mstore::LoadProjectionStore(versions[0].path, &loaded);
    if (!loaded_ok[0].ok()) return Refuse("load: " + loaded_ok[0].message());
    pool = MakeQueryPool(loaded, args.seed, kWarmupQueries, w.pool_draws,
                         kSequenceLength);
  }
  ForEachVersion(num_versions, [&](size_t v) {
    ProjectionStore loaded(std::vector<maimon::StoredProjection>(), 0);
    Reference reference;
    Status status = mstore::LoadProjectionStore(versions[v].path, &loaded);
    if (status.ok()) status = Reference::Build(loaded, &reference);
    loaded_ok[v] = status;
    if (!status.ok()) return;
    versions[v].expected.reserve(pool.queries.size());
    for (const serve::Query& q : pool.queries) {
      versions[v].expected.push_back(reference.Evaluate(q));
    }
  });
  for (const Status& status : loaded_ok) {
    if (!status.ok()) return Refuse("reference: " + status.message());
  }

  // ---- rounds: builds, set-ups, a serve segment, publishes ---------------
  // Spreading every kind of measurement over the whole run makes each
  // median sample the run's whole window rather than one stretch of it.
  serve::ServiceOptions service_options;
  service_options.default_budget_seconds = kQueryBudgetSeconds;
  std::unique_ptr<serve::QueryService> service;
  std::vector<double> setup_s[2];
  LoopState loop(kWarmupQueries);
  for (int r = 0; r < kRounds; ++r) {
    const bool traced = args.trace && r % 2 == 1;
    SpanLane* lane = traced ? main_lane : nullptr;

    for (int i = 0; i < Share(w.build_reps - 1, r); ++i) {
      std::unique_ptr<maimon::obs::Sink> sink;
      BuildOptions options = build;
      if (traced) {
        sink = std::make_unique<maimon::obs::Sink>();
        options.sink = sink.get();
        options.lane = lane;
      }
      const BuildOutput b =
          BuildStore(csv[0], versions[0].path, options, /*keep=*/false);
      // Hand the build's freed heap back, so the next allocations on other
      // threads' arenas do not stack on top of it in peak_rss_mb.
      ::malloc_trim(0);
      ledger.Add(static_cast<uint64_t>(b.calls), b.status.ok() ? 0 : 1,
                 "build: " + b.status.message());
      if (!b.status.ok()) continue;
      build_s[traced ? 1 : 0].push_back(b.seconds);
      if (sink != nullptr) {
        const maimon::obs::MetricsRegistry metrics = sink->SnapshotMetrics();
        const maimon::obs::Histogram* wait =
            metrics.histogram("pool.queue_wait_ns");
        pool_wait_ms.push_back(
            wait != nullptr ? static_cast<double>(wait->sum) / 1e6 : 0.0);
      }
      const Counts want = Counts::Of(first);
      const Counts got = Counts::Of(b);
      if (got.deployed != want.deployed ||
          got.store_bytes != want.store_bytes ||
          got.stored_rows != want.stored_rows) {
        ledger.Add(0, 1, "build output differs between repetitions");
      } else if (!(got == want)) {
        flags.push_back("work counts differ between build repetitions");
      }
    }

    for (int i = 0; i < Share(kSetupReps, r); ++i) {
      service.reset();
      std::vector<serve::QueryResult> warm(kWarmupQueries);
      const Stopwatch watch;
      Status status;
      {
        Scope span(lane, "setup");
        status =
            OpenService(versions[0].path, service_options, lane, &service);
        Scope warmup(lane, "serve.warmup");
        for (size_t q = 0; status.ok() && q < kWarmupQueries; ++q) {
          warm[q] = service->Execute(pool.queries[pool.At(q)]);
        }
      }
      setup_s[traced ? 1 : 0].push_back(watch.ElapsedSeconds());
      ledger.Attempt(status.ok(), "set-up: " + status.message());
      if (!status.ok()) return Refuse("set-up failed: " + status.message());
      for (size_t q = 0; q < kWarmupQueries; ++q) {
        ledger.Attempt(Matches(versions[0], pool, pool.At(q), warm[q]),
                       "warm-up answer");
      }
    }

    loop.live = 0;  // a set-up always serves version a
    RunSegment(service.get(), pool, versions, live_path,
               w.swap ? kPublishEvery : 0, args.seconds / kRounds,
               traced ? &log : nullptr, &loop);

    for (int i = 0; !w.swap && i < Share(kRepublishReps, r); ++i) {
      const uint64_t t0 = Stopwatch::NowNs();
      const Status status =
          Publish(service.get(), versions[0], live_path, lane);
      loop.publish_ms.push_back(
          static_cast<double>(Stopwatch::NowNs() - t0) / 1e6);
      if (!status.ok()) ++loop.publish_failed;
    }
  }
  ledger.Add(loop.publish_ms.size(), loop.publish_failed, "publish");

  // ---- checks -------------------------------------------------------------
  // Every timed answer by row count (the loop counted them) ...
  for (const Tally& tally : loop.tally) {
    ledger.Add(tally.queries, tally.wrong, "timed answer");
  }
  // ... and every distinct query by count and row hash, on each version.
  std::vector<CheckOutcome> checked(num_versions);
  ForEachVersion(num_versions, [&](size_t v) {
    checked[v] = CheckVersion(versions[v], pool, service_options);
  });
  for (const CheckOutcome& c : checked) {
    ledger.Add(c.attempted, c.failed, c.note);
  }
  const uint64_t result_rows = checked[0].result_rows;
  const uint64_t semijoin_passes = checked[0].semijoin_passes;

  // ---- metrics ------------------------------------------------------------
  Report report;
  if (!args.trace) {
    const Tally& timed = loop.tally[0];
    report.Add("build_s", Median(build_s[0]), "s", build_s[0].size());
    report.Add("setup_s", Median(setup_s[0]), "s", setup_s[0].size());
    report.Add("query_p50_us", timed.latency.Percentile(0.5) / 1e3, "us",
               timed.latency.count());
    report.Add("query_p99_us", timed.latency.Percentile(0.99) / 1e3, "us",
               timed.latency.count());
    report.Add("qps", static_cast<double>(timed.queries) / loop.seconds[0],
               "1/s", timed.queries);
    report.Add("publish_p50_ms", Median(loop.publish_ms), "ms",
               loop.publish_ms.size());
    report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    report.Count("store_bytes", first.store_bytes, "B");
  } else {
    LayerMetrics(log, pool, loop, first, build_s, pool_wait_ms, audit_s,
                 semijoin_passes, result_rows, &report);
    const std::string trace_path =
        args.work_dir + "/trace-" + w.name + ".jsonl";
    if (!log.WriteJsonl(trace_path)) {
      flags.push_back("could not write " + trace_path);
    }
  }

  // ---- output -------------------------------------------------------------
  std::printf("counts {\"entropy.queries\":%" PRIu64
              ",\"core.oracle_calls\":%" PRIu64 ",\"scheme.schemes\":%zu"
              ",\"serve.semijoin_passes\":%" PRIu64
              ",\"serve.result_rows\":%" PRIu64 ",\"store_bytes\":%" PRIu64
              ",\"deployed\":\"%s\"}\n",
              first.mine_entropy_queries, first.minsep.oracle_calls,
              first.schemes, semijoin_passes, result_rows, first.store_bytes,
              first.deployed.c_str());
  std::printf("workload %s: deployed %s, %zu distinct queries, sequence %zu\n",
              w.name.c_str(), first.deployed.c_str(), pool.queries.size(),
              pool.sequence.size());
  for (const Metric& m : report.metrics()) {
    std::printf("metric %-36s %22s %-5s n=%zu\n", m.name.c_str(),
                FormatValue(m).c_str(), m.unit.c_str(), m.samples);
  }
  const double failed_frac =
      static_cast<double>(ledger.failed()) /
      static_cast<double>(std::max<uint64_t>(1, ledger.attempted()));
  std::printf("metric %-36s %22.17g %-5s n=%" PRIu64 "\n", "failed_frac",
              failed_frac, "ratio", ledger.attempted());
  for (const std::string& note : ledger.notes()) {
    std::printf("failure %s\n", note.c_str());
  }
  for (const std::string& flag : flags) std::printf("flag %s\n", flag.c_str());

  const bool correct = ledger.failed() == 0;
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(ledger.attempted());
  json += ",\"failed\":" + std::to_string(ledger.failed());
  json += ",\"metrics\":{";
  for (size_t i = 0; i < report.metrics().size(); ++i) {
    const Metric& m = report.metrics()[i];
    json += (i == 0 ? "\"" : ",\"") + m.name + "\":{\"value\":" +
            FormatValue(m) + ",\"unit\":\"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* rest = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &rest, 10);
      if (value.empty() || *rest != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &rest);
      if (value.empty() || *rest != '\0' || !(args->seconds > 0) ||
          args->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  pipebench::Args args;
  if (!pipebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pipebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--commit ID]\n");
    return 2;
  }
  for (const pipebench::Workload& w : pipebench::Workloads()) {
    if (w.name == args.workload) return pipebench::Run(args, w);
  }
  std::fprintf(stderr, "pipebench: unknown workload %s\n",
               args.workload.c_str());
  return 2;
}
