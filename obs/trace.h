// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Span tracer + sink: the runtime's observability entry point.
//
//   Sink — ONE per pipeline run, threaded through MaimonConfig,
//          RankerOptions, YannakakisOptions and the figure benches as a
//          nullable pointer. nullptr means observability is OFF and every
//          instrumentation site collapses to a pointer test: Span
//          constructors read no clock, counters touch no map, nothing
//          allocates (tests/perf_guard_test.cc bounds this disabled path).
//   Lane — one thread's private emission context inside a sink: a span
//          buffer plus a MetricsRegistry shard. A lane is owned by exactly
//          one live thread (Sink::lane() resolves the calling thread's lane
//          under a mutex ONCE per call; the buffers themselves are written
//          lock-free). Shard threads release their lane on exit so the
//          next parallel phase reuses the same track ids — Perfetto shows
//          one row per worker slot, not one per historical OS thread.
//   Span — RAII scoped phase marker. Records wall interval (from
//          Stopwatch::NowNs — the same steady clock every Deadline polls)
//          plus thread-CPU time, with optional key/value args, and lands in
//          the owning lane's buffer at destruction as one Chrome
//          trace-event "X" (complete) event.
//
// Fold discipline: metric emission goes to the calling thread's lane shard
// (or through Sink::Fold for registries accumulated elsewhere, e.g. the
// miner's deterministic per-pair merge loop). SnapshotMetrics merges base +
// every lane shard with MetricsRegistry::Merge — exact sums, so metric
// totals are byte-identical at any thread count whenever the underlying
// event stream is (the same contract PliEntropyEngine::MergeStats keeps).
// Reading (SnapshotMetrics / WriteChromeTrace / ForEachEvent) is safe once
// worker threads are joined — ParallelFor joins its shard threads before
// it returns.

#ifndef MAIMON_OBS_TRACE_H_
#define MAIMON_OBS_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace maimon {
namespace obs {

/// One completed span, timestamped in nanoseconds since the sink's epoch.
struct TraceEvent {
  const char* name = "";  // static literal at every call site
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t cpu_ns = 0;
  /// Pre-rendered `"key":value` fragments, comma-joined; empty = no args.
  std::string args_json;
};

class Sink;

/// One thread's private emission context. Never constructed directly —
/// Sink::lane() hands the calling thread its lane.
class Lane {
 public:
  int track() const { return track_; }
  const std::string& label() const { return label_; }

  /// Thread-confined metric shard (folded into snapshots exactly).
  void Count(const char* name, uint64_t delta) { metrics_.Count(name, delta); }
  void Observe(const char* name, uint64_t value) {
    metrics_.Observe(name, value);
  }
  void GaugeMax(const char* name, int64_t value) {
    metrics_.GaugeMax(name, value);
  }
  MetricsRegistry& metrics() { return metrics_; }

  void Record(TraceEvent event) { events_.push_back(std::move(event)); }

 private:
  friend class Sink;
  Lane(int track, std::string label)
      : track_(track), label_(std::move(label)) {}

  int track_;
  std::string label_;
  std::vector<TraceEvent> events_;
  MetricsRegistry metrics_;
};

class Sink {
 public:
  /// The constructing thread is registered as track 0 ("main"); the
  /// construction instant is the trace epoch (timestamp 0).
  Sink();

  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  /// The calling thread's lane, created (or recycled from a released
  /// track) on first touch. One mutex-guarded map lookup per call — cache
  /// the pointer across a tight loop, not across threads.
  Lane* lane();

  /// Detaches the calling thread from its lane and marks the track
  /// recyclable. Shard threads call this on exit so track ids stay dense;
  /// the recorded events stay in the buffer. No-op for unregistered
  /// threads.
  void ReleaseLane();

  /// Folds an externally accumulated registry into the base shard — for
  /// metrics aggregated outside lanes (e.g. the miner's canonical-order
  /// per-pair merge). Thread-safe; each registry must be folded once.
  void Fold(const MetricsRegistry& shard);

  /// Base shard + every lane shard, merged exactly (counters/histograms
  /// summed, gauges maxed).
  MetricsRegistry SnapshotMetrics() const;

  /// Visits every recorded span (track-ordered, emission-ordered within a
  /// track). Caller must have joined worker threads first.
  void ForEachEvent(
      const std::function<void(int track, const std::string& label,
                               const TraceEvent&)>& fn) const;

  /// Serializes every span as Chrome trace-event JSON (the `traceEvents`
  /// object form), loadable in Perfetto / chrome://tracing: pid 1, one tid
  /// per lane with thread_name metadata, complete ("X") events with
  /// microsecond timestamps and a cpu_us arg.
  void WriteChromeTrace(std::FILE* out) const;

  uint64_t epoch_ns() const { return epoch_ns_; }
  size_t num_lanes() const;

 private:
  Lane* RegisterThread();

  const uint64_t epoch_ns_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::unordered_map<std::thread::id, Lane*> by_thread_;
  std::vector<int> free_tracks_;  // released lane indices, reused LIFO
  MetricsRegistry base_;
};

/// RAII scoped span. With a null sink the constructor stores a null lane
/// and everything else is a no-op — no clock read, no allocation.
class Span {
 public:
  Span(Sink* sink, const char* name)
      : lane_(sink != nullptr ? sink->lane() : nullptr), name_(name) {
    if (lane_ != nullptr) {
      epoch_ns_ = sink->epoch_ns();
      start_ns_ = Stopwatch::NowNs();
      cpu_start_ns_ = ThreadCpuNs();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (lane_ == nullptr) return;
    End();
    TraceEvent event;
    event.name = name_;
    event.start_ns = start_ns_ - epoch_ns_;
    event.dur_ns = end_ns_ > start_ns_ ? end_ns_ - start_ns_ : 0;
    event.cpu_ns =
        cpu_end_ns_ > cpu_start_ns_ ? cpu_end_ns_ - cpu_start_ns_ : 0;
    event.args_json = std::move(args_);
    lane_->Record(std::move(event));
  }

  /// Stamps the span's end (wall and thread CPU) now. The event is still
  /// recorded at destruction, so args known only after the timed work can
  /// be attached in between; later calls are no-ops. The event lands in
  /// the constructing thread's lane: destroy an ended span on another
  /// thread only once that thread has released its lane (a joined
  /// ParallelFor shard thread).
  void End() {
    if (lane_ == nullptr || ended_) return;
    ended_ = true;
    end_ns_ = Stopwatch::NowNs();
    cpu_end_ns_ = ThreadCpuNs();
  }

  bool active() const { return lane_ != nullptr; }

  /// Attaches a key/value argument (rendered into the event's args object).
  void Arg(const char* key, uint64_t value);
  void Arg(const char* key, int64_t value);
  void Arg(const char* key, int value) { Arg(key, static_cast<int64_t>(value)); }
  void Arg(const char* key, double value);
  void Arg(const char* key, const std::string& value);
  void Arg(const char* key, const char* value) { Arg(key, std::string(value)); }

 private:
  void AppendRaw(const char* key, const std::string& rendered);

  Lane* lane_;
  const char* name_;
  uint64_t epoch_ns_ = 0;
  uint64_t start_ns_ = 0;
  uint64_t cpu_start_ns_ = 0;
  bool ended_ = false;
  uint64_t end_ns_ = 0;
  uint64_t cpu_end_ns_ = 0;
  std::string args_;
};

/// Null-safe metric helpers: the idiomatic call sites for code holding a
/// maybe-null sink. Each resolves the calling thread's lane once.
inline void Count(Sink* sink, const char* name, uint64_t delta) {
  if (sink != nullptr) sink->lane()->Count(name, delta);
}
inline void Observe(Sink* sink, const char* name, uint64_t value) {
  if (sink != nullptr) sink->lane()->Observe(name, value);
}
inline void GaugeMax(Sink* sink, const char* name, int64_t value) {
  if (sink != nullptr) sink->lane()->GaugeMax(name, value);
}

}  // namespace obs
}  // namespace maimon

#endif  // MAIMON_OBS_TRACE_H_
