// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// SpanLog: the pipeline benchmark's own tracer. Spans are recorded from the
// benchmark's code around each call into a public library function (the
// library itself is never instrumented by it). Each span has a name, a
// start, an end, a parent (the span open on the same lane when it began)
// and an optional query id. Spans stay in memory until the run ends; then
// SelfTimes derives each span's self time — its duration minus the part of
// that interval its child spans cover — and WriteJsonl dumps the raw spans.
//
// One lane per thread: a lane is written by exactly one thread, so
// recording takes no lock. A null lane turns every Scope into a no-op,
// which is how the untraced run pays nothing.

#ifndef PIPEBENCH_SPAN_LOG_H_
#define PIPEBENCH_SPAN_LOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pipebench {

struct SpanRecord {
  const char* name = "";  // static literal at every call site
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;         // index into the same lane; -1 = root
  int64_t query_id = -1;   // -1 = not part of a query
};

struct SelfTime {
  const char* name = "";
  double self_ns = 0;
  int64_t query_id = -1;
};

class SpanLane {
 public:
  /// Opens a span whose parent is the innermost span still open on this
  /// lane; returns its index for Close.
  int Open(const char* name, int64_t query_id);
  void Close(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

class SpanLog {
 public:
  /// A new lane for the calling thread. Thread-safe; the returned lane
  /// lives as long as the log.
  SpanLane* NewLane();

  /// Every recorded span with its self time, lane by lane. Call once the
  /// threads that own lanes have been joined.
  std::vector<SelfTime> SelfTimes() const;

  /// One JSON object per span: name, start/end ns, lane, parent index,
  /// query id. Returns false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLane>> lanes_;
};

/// RAII span on `lane`; a null lane records nothing.
class Scope {
 public:
  Scope(SpanLane* lane, const char* name, int64_t query_id = -1)
      : lane_(lane), index_(lane ? lane->Open(name, query_id) : -1) {}
  ~Scope() {
    if (lane_ != nullptr) lane_->Close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLane* lane_;
  int index_;
};

}  // namespace pipebench

#endif  // PIPEBENCH_SPAN_LOG_H_
