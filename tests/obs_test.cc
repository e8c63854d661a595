// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The observability subsystem's contracts:
//
//   * Histogram buckets are fixed powers of two (bucket = bit width), so
//     two shards always line up and merging is exact bucket addition;
//   * MetricsRegistry::Merge folds counters/histograms by summation and
//     gauges by max — byte-identical totals for any shard split;
//   * Span is a pure RAII recorder: nesting lands both events in the
//     owning lane, args round-trip into the rendered JSON, and a null
//     sink makes every operation a no-op (the zero-overhead-off path);
//   * Sink lanes are thread-confined; concurrent emission from many
//     threads folds to exact totals (this file is part of the TSan lane);
//   * the instrumented pipeline (Maimon + ranker + ParallelFor) emits
//     the advertised spans and counters, and the Chrome-trace / JSONL
//     writers produce structurally sound output.

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/maimon.h"
#include "data/planted.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "scheme/ranker.h"
#include "tests/test_util.h"
#include "util/parallel_for.h"

namespace maimon {
namespace {

TEST_CASE(HistogramBucketBoundaries) {
  // Bucket index is the bit width: 0 -> 0, 1 -> 1, [2,3] -> 2, [4,7] -> 3.
  CHECK_EQ(obs::Histogram::BucketOf(0), 0);
  CHECK_EQ(obs::Histogram::BucketOf(1), 1);
  CHECK_EQ(obs::Histogram::BucketOf(2), 2);
  CHECK_EQ(obs::Histogram::BucketOf(3), 2);
  CHECK_EQ(obs::Histogram::BucketOf(4), 3);
  CHECK_EQ(obs::Histogram::BucketOf(7), 3);
  CHECK_EQ(obs::Histogram::BucketOf(8), 4);
  CHECK_EQ(obs::Histogram::BucketOf(uint64_t{1} << 40), 41);
  CHECK_EQ(obs::Histogram::BucketOf(~uint64_t{0}), 64);
  // BucketFloor is the left edge: the smallest value mapping to bucket b.
  for (int b = 0; b < obs::Histogram::kNumBuckets; ++b) {
    const uint64_t floor = obs::Histogram::BucketFloor(b);
    CHECK_EQ(obs::Histogram::BucketOf(floor), b);
    if (b >= 2) CHECK_EQ(obs::Histogram::BucketOf(floor - 1), b - 1);
  }

  obs::Histogram h;
  h.Observe(0);
  h.Observe(3);
  h.Observe(3);
  h.Observe(1024, /*n=*/5);
  CHECK_EQ(h.count, uint64_t{8});
  CHECK_EQ(h.sum, uint64_t{0 + 3 + 3 + 1024 * 5});
  CHECK_EQ(h.buckets[0], uint64_t{1});
  CHECK_EQ(h.buckets[2], uint64_t{2});
  CHECK_EQ(h.buckets[11], uint64_t{5});
}

TEST_CASE(RegistryMergeIsExact) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.Count("mine.pairs", 3);
  b.Count("mine.pairs", 4);
  b.Count("mine.mvds", 9);
  a.GaugeMax("cache.bytes", 100);
  b.GaugeMax("cache.bytes", 70);  // loses the max fold
  b.GaugeMax("peak.lanes", 5);
  a.Observe("depth", 3);
  b.Observe("depth", 3);
  b.Observe("depth", 700);

  a.Merge(b);
  CHECK_EQ(a.counter("mine.pairs"), uint64_t{7});
  CHECK_EQ(a.counter("mine.mvds"), uint64_t{9});
  CHECK_EQ(a.counter("never.touched"), uint64_t{0});
  CHECK_EQ(a.gauge("cache.bytes"), int64_t{100});
  CHECK_EQ(a.gauge("peak.lanes"), int64_t{5});
  const obs::Histogram* h = a.histogram("depth");
  CHECK(h != nullptr);
  CHECK_EQ(h->count, uint64_t{3});
  CHECK_EQ(h->buckets[2], uint64_t{2});
  CHECK_EQ(h->buckets[10], uint64_t{1});
  CHECK(a.histogram("absent") == nullptr);

  // Merging the same shards in the opposite order gives identical totals.
  obs::MetricsRegistry c;
  c.Count("mine.pairs", 4);
  c.Count("mine.mvds", 9);
  obs::MetricsRegistry d;
  d.Count("mine.pairs", 3);
  c.Merge(d);
  CHECK_EQ(c.counter("mine.pairs"), a.counter("mine.pairs"));
}

TEST_CASE(JsonEscapeHandlesControlCharacters) {
  CHECK_EQ(obs::JsonEscape("plain"), std::string("plain"));
  CHECK_EQ(obs::JsonEscape("a\"b\\c"), std::string("a\\\"b\\\\c"));
  CHECK_EQ(obs::JsonEscape("x\n\t"), std::string("x\\n\\t"));
  CHECK_EQ(obs::JsonEscape(std::string(1, '\x01')), std::string("\\u0001"));
}

TEST_CASE(SpanNestingAndAttributeRoundTrip) {
  obs::Sink sink;
  {
    obs::Span outer(&sink, "outer");
    CHECK(outer.active());
    outer.Arg("pairs", uint64_t{42});
    outer.Arg("label", "a \"quoted\" name");
    {
      obs::Span inner(&sink, "inner");
      inner.Arg("ratio", 0.5);
      inner.Arg("neg", int64_t{-3});
    }
  }
  std::vector<std::string> names;
  std::vector<std::string> args;
  uint64_t outer_start = 0, outer_end = 0, inner_start = 0, inner_end = 0;
  sink.ForEachEvent([&](int track, const std::string& label,
                        const obs::TraceEvent& e) {
    CHECK_EQ(track, 0);  // both spans ran on the constructing thread
    CHECK_EQ(label, std::string("main"));
    names.push_back(e.name);
    args.push_back(e.args_json);
    if (std::strcmp(e.name, "outer") == 0) {
      outer_start = e.start_ns;
      outer_end = e.start_ns + e.dur_ns;
    } else {
      inner_start = e.start_ns;
      inner_end = e.start_ns + e.dur_ns;
    }
  });
  // Destruction order: inner closes (and records) before outer.
  CHECK_EQ(names.size(), size_t{2});
  CHECK_EQ(names[0], std::string("inner"));
  CHECK_EQ(names[1], std::string("outer"));
  // The inner interval nests inside the outer one on the steady clock.
  CHECK(outer_start <= inner_start);
  CHECK(inner_end <= outer_end);
  // Args rendered as `"key":value` fragments, strings escaped.
  CHECK(args[0].find("\"ratio\":0.5") != std::string::npos);
  CHECK(args[0].find("\"neg\":-3") != std::string::npos);
  CHECK(args[1].find("\"pairs\":42") != std::string::npos);
  CHECK(args[1].find("\\\"quoted\\\"") != std::string::npos);
}

TEST_CASE(NullSinkIsInert) {
  obs::Span span(nullptr, "ignored");
  CHECK(!span.active());
  span.Arg("k", uint64_t{1});  // must not crash or allocate a lane
  obs::Count(nullptr, "c", 1);
  obs::Observe(nullptr, "o", 1);
  obs::GaugeMax(nullptr, "g", 1);
}

TEST_CASE(LanesAreThreadConfinedAndTracksRecycle) {
  obs::Sink sink;
  CHECK_EQ(sink.num_lanes(), size_t{1});  // constructing thread = track 0
  CHECK_EQ(sink.lane()->track(), 0);
  CHECK_EQ(sink.lane()->label(), std::string("main"));

  std::thread t1([&] {
    sink.lane()->Count("worker.counts", 2);
    CHECK_EQ(sink.lane()->track(), 1);
    sink.ReleaseLane();
  });
  t1.join();
  // A later thread recycles the released track instead of growing the map;
  // the first worker's events/metrics stay in the lane buffer.
  std::thread t2([&] {
    CHECK_EQ(sink.lane()->track(), 1);
    sink.lane()->Count("worker.counts", 3);
    sink.ReleaseLane();
  });
  t2.join();
  CHECK_EQ(sink.num_lanes(), size_t{2});
  CHECK_EQ(sink.SnapshotMetrics().counter("worker.counts"), uint64_t{5});
}

TEST_CASE(ConcurrentEmitFoldsExactTotals) {
  // The TSan-lane stress: many threads hammer one sink with spans and
  // metrics concurrently; after the join the fold is exact.
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  obs::Sink sink;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      obs::Lane* lane = sink.lane();
      for (int i = 0; i < kIters; ++i) {
        obs::Span span(&sink, "stress.op");
        span.Arg("thread", t);
        lane->Count("stress.ops", 1);
        lane->Observe("stress.value", static_cast<uint64_t>(i));
        lane->GaugeMax("stress.high_water", t * kIters + i);
      }
      sink.ReleaseLane();
    });
  }
  for (auto& t : threads) t.join();

  const obs::MetricsRegistry snapshot = sink.SnapshotMetrics();
  CHECK_EQ(snapshot.counter("stress.ops"), uint64_t{kThreads * kIters});
  const obs::Histogram* h = snapshot.histogram("stress.value");
  CHECK(h != nullptr);
  CHECK_EQ(h->count, uint64_t{kThreads * kIters});
  CHECK_EQ(snapshot.gauge("stress.high_water"),
           int64_t{(kThreads - 1) * kIters + kIters - 1});
  size_t events = 0;
  sink.ForEachEvent([&](int track, const std::string&,
                        const obs::TraceEvent& e) {
    CHECK(track >= 0 && track <= kThreads);  // main + at most kThreads lanes
    CHECK_EQ(std::string(e.name), std::string("stress.op"));
    ++events;
  });
  CHECK_EQ(events, size_t{kThreads * kIters});
}

TEST_CASE(ParallelForRecordsQueueAndRunLatency) {
  obs::Sink sink;
  constexpr size_t kTasks = 64;
  // One shard runs inline on the caller: no thread starts, so no pool.*
  // metric (nor any other) is recorded.
  CHECK(ParallelFor(1, kTasks, nullptr, [](int, size_t) {}, &sink).completed);
  CHECK(sink.SnapshotMetrics().empty());

  // ParallelFor joins its threads (lanes released) before it returns, so
  // the snapshot is safe. Each started thread is one pool task.
  CHECK(ParallelFor(3, kTasks, nullptr, [](int, size_t) {}, &sink).completed);
  const obs::MetricsRegistry snapshot = sink.SnapshotMetrics();
  CHECK_EQ(snapshot.counter("pool.tasks"), uint64_t{3});
  const obs::Histogram* wait = snapshot.histogram("pool.queue_wait_ns");
  const obs::Histogram* runh = snapshot.histogram("pool.task_run_ns");
  CHECK(wait != nullptr);
  CHECK(runh != nullptr);
  CHECK_EQ(wait->count, uint64_t{3});
  CHECK_EQ(runh->count, uint64_t{3});
}

TEST_CASE(PipelineEmitsPhaseSpansAndCounters) {
  PlantedSpec spec;
  spec.num_attrs = 8;
  spec.num_bags = 3;
  spec.root_rows = 128;
  spec.max_rows = 512;
  spec.noise_fraction = 0.02;
  spec.domain_size = 8;
  spec.seed = 21;
  const PlantedDataset d = GeneratePlanted(spec);

  obs::Sink sink;
  MaimonConfig config;
  config.epsilon = 0.05;
  config.schemas.max_schemas = 64;
  config.num_threads = 2;
  config.sink = &sink;
  Maimon maimon(d.relation, config);
  const AsMinerResult schemas = maimon.MineSchemas();
  CHECK(schemas.status.ok());
  CHECK(!schemas.schemas.empty());

  RankerOptions rank;
  rank.top_k = 8;
  rank.primary = RankKey::kSavings;
  rank.sink = &sink;
  const RankResult ranked =
      RankSchemes(d.relation, schemas.schemas, maimon.oracle(), rank);
  CHECK(ranked.status.ok());

  DecompAuditOptions audit_options;  // sink inherited from config.sink
  const DecompositionAudit audit =
      maimon.DecomposeAndAudit(schemas.schemas[0], audit_options);
  CHECK(audit.status.ok());

  std::vector<std::string> seen;
  sink.ForEachEvent([&](int, const std::string&, const obs::TraceEvent& e) {
    seen.push_back(e.name);
  });
  for (const char* expected :
       {"mine.mvds", "mine.pair", "minsep.walk", "assemble.schemas",
        "assemble.conflict_graph", "rank.schemes", "rank.score",
        "audit.store", "yk.reduce", "yk.join"}) {
    bool found = false;
    for (const std::string& name : seen) found |= name == expected;
    if (!found) std::printf("  missing span: %s\n", expected);
    CHECK(found);
  }

  // The registry view agrees with the pipeline's own result objects — the
  // satellite that replaced MvdMinerResult::min_sep_stats with the thin
  // accessor over Maimon::metrics().
  const obs::MetricsRegistry snapshot = sink.SnapshotMetrics();
  const MinSepsStats walk = maimon.min_sep_stats();
  CHECK(walk.oracle_calls > 0);
  CHECK_EQ(snapshot.counter("minsep.oracle_calls"), walk.oracle_calls);
  CHECK_EQ(snapshot.counter("minsep.seeds"), walk.seeds);
  CHECK_EQ(snapshot.counter("minsep.expansions"), walk.expansions);
  CHECK_EQ(snapshot.counter("mine.mvds"),
           static_cast<uint64_t>(maimon.MineMvds().mvds.size()));
  CHECK_EQ(snapshot.counter("assemble.schemes"),
           static_cast<uint64_t>(schemas.schemas.size()));
  CHECK_EQ(snapshot.counter("rank.scored"),
           static_cast<uint64_t>(ranked.evaluated));
  CHECK_EQ(snapshot.counter("yk.join_rows"),
           static_cast<uint64_t>(audit.join_rows));
  CHECK_EQ(snapshot.counter("yk.semijoin_dropped"),
           static_cast<uint64_t>(audit.semijoin_dropped));

  // Phase profile aggregates by span name.
  bool profiled_mining = false;
  for (const obs::PhaseRow& row : obs::PhaseProfile(sink)) {
    CHECK(row.count > 0);
    if (row.name == "mine.pair") {
      profiled_mining = true;
      CHECK_EQ(row.count, snapshot.counter("mine.pairs"));
    }
  }
  CHECK(profiled_mining);
}

// A pair opens an mvd.expand span only when it will expand: K > 0 full MVDs
// per separator and a walk that found a separator. So at K = 0 there is no
// such span, and otherwise there is one per minsep.walk span whose `seps`
// is non-zero.
TEST_CASE(MvdExpandSpansOnlyForPairsThatExpand) {
  PlantedSpec spec;
  spec.num_attrs = 7;
  spec.num_bags = 3;
  spec.root_rows = 96;
  spec.max_rows = 384;
  spec.noise_fraction = 0.02;
  spec.domain_size = 6;
  spec.seed = 23;
  const PlantedDataset d = GeneratePlanted(spec);

  for (size_t k : {size_t{0}, size_t{3}}) {
    obs::Sink sink;
    MaimonConfig config;
    config.epsilon = 0.05;
    config.mvd.max_full_mvds_per_separator = k;
    config.schemas.max_conflict_mvds = 0;  // mine every pair
    config.sink = &sink;
    Maimon maimon(d.relation, config);
    CHECK(maimon.MineMvds().status.ok());

    uint64_t walks_with_seps = 0;
    uint64_t expand_spans = 0;
    sink.ForEachEvent([&](int, const std::string&, const obs::TraceEvent& e) {
      const std::string name = e.name;
      if (name == "minsep.walk" &&
          e.args_json.find("\"seps\":0") == std::string::npos) {
        ++walks_with_seps;
      }
      if (name == "mvd.expand") {
        ++expand_spans;
        CHECK(e.args_json.find("\"mvds\":") != std::string::npos);
      }
    });
    CHECK(walks_with_seps > 0);
    CHECK_EQ(expand_spans, k == 0 ? uint64_t{0} : walks_with_seps);
  }
}

// Structural scan of a JSON document: brace/bracket balance outside string
// literals plus basic shape checks. Not a full parser — CI runs the real
// json.load — but catches truncation, bad escaping and comma slips.
bool JsonLooksBalanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      --depth;
      if (depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST_CASE(TraceAndMetricsWritersProduceSoundFiles) {
  obs::Sink sink;
  {
    obs::Span span(&sink, "phase.one");
    span.Arg("note", "quote\" and \\ backslash");
    span.Arg("count", uint64_t{7});
  }
  std::thread worker([&] {
    obs::Span span(&sink, "phase.two");
    sink.lane()->Count("file.counter", 4);
    sink.lane()->Observe("file.histogram", 12);
  });
  worker.join();

  const std::string trace_path = "/tmp/maimon_obs_test_trace.json";
  const std::string metrics_path = "/tmp/maimon_obs_test_metrics.jsonl";
  CHECK(obs::WriteTraceFile(sink, trace_path));
  CHECK(obs::WriteMetricsFile(sink, metrics_path));

  const std::string trace = ReadWholeFile(trace_path);
  CHECK(!trace.empty());
  CHECK(JsonLooksBalanced(trace));
  CHECK_EQ(trace.rfind("{\"traceEvents\":[", 0), size_t{0});
  CHECK(trace.find("\"ph\":\"M\"") != std::string::npos);  // lane metadata
  CHECK(trace.find("\"ph\":\"X\"") != std::string::npos);  // complete spans
  CHECK(trace.find("\"phase.one\"") != std::string::npos);
  CHECK(trace.find("\"phase.two\"") != std::string::npos);
  CHECK(trace.find("\"cpu_us\"") != std::string::npos);
  CHECK(trace.find("worker-1") != std::string::npos);

  const std::string metrics = ReadWholeFile(metrics_path);
  CHECK(!metrics.empty());
  // JSONL: every non-empty line is one balanced object.
  size_t lines = 0;
  size_t start = 0;
  while (start < metrics.size()) {
    size_t end = metrics.find('\n', start);
    if (end == std::string::npos) end = metrics.size();
    const std::string line = metrics.substr(start, end - start);
    if (!line.empty()) {
      ++lines;
      CHECK_EQ(line.front(), '{');
      CHECK_EQ(line.back(), '}');
      CHECK(JsonLooksBalanced(line));
    }
    start = end + 1;
  }
  CHECK_EQ(lines, size_t{2});  // file.counter + file.histogram
  CHECK(metrics.find("file.counter") != std::string::npos);
  CHECK(metrics.find("file.histogram") != std::string::npos);

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
