// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The serving half of the pipeline benchmark: cold start, publishing, the
// closed query loop, and the answer checks.
//
//   OpenService  store file -> QueryService (FromFile);
//   Publish      store::Writer::Write + QueryService::SwapFromFile;
//   RunSegment   one timed stretch of the closed loop: kClients threads
//                claim sequence positions from the shared cursor in
//                LoopState and Execute them back to back, checking each
//                answer's row count against the references once its
//                latency is taken, while (on workloads with two versions)
//                a publisher thread rewrites the live store file with the
//                other version and hot-swaps it in every `publish_every`
//                claimed queries;
//   CheckVersion every distinct query once more, outside any timed region,
//                compared with the version's reference answers (Matches).
//
// With a span log, the three calls are split into the public calls they
// consist of (MappedStore::Open, ToProjectionStore, the QueryService
// constructor or Swap), each in its own span, and every query gets a
// serve.query span (its sequence position as query id) with serve.plan
// (Planner::Plan, called from outside) and serve.execute children.

#ifndef PIPEBENCH_SERVE_LOOP_H_
#define PIPEBENCH_SERVE_LOOP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "decomp/projection_store.h"
#include "queries.h"
#include "serve/service.h"
#include "span_log.h"
#include "store/writer.h"
#include "util/status.h"

namespace pipebench {

constexpr int kClients = 2;

/// One deployable store version: the reduced store, the writer that packs
/// it exactly as the build did, its build-output file, and the reference
/// answer of every pool entry.
struct Version {
  std::unique_ptr<maimon::ProjectionStore> store;
  std::unique_ptr<maimon::store::Writer> writer;
  std::string path;
  std::vector<Answer> expected;
};

/// Query latencies in a log-linear histogram: exact below 256 ns, then 256
/// buckets per power of two (a relative resolution of 1/256). Its memory is
/// fixed, so the loop's footprint does not grow with the queries it runs.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(uint64_t ns);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  /// Nearest-rank percentile in ns, p in (0, 1]; within a bucket wider than
  /// 1 ns the rank is placed linearly. 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// What the timed loop counts, per client and summed per segment kind.
struct Tally {
  uint64_t queries = 0;
  /// Answers that are not OK or whose row count is no version's reference
  /// count (checked after the latency is taken).
  uint64_t wrong = 0;
  uint64_t plan_nodes = 0;
  uint64_t point_lookups = 0;
  LatencyHistogram latency;  // untraced segments only

  void Merge(const Tally& other);
};

/// Everything the loop carries from one segment to the next.
struct LoopState {
  explicit LoopState(uint64_t first) : cursor(first) {}

  std::atomic<uint64_t> cursor;
  Tally tally[2];              // untraced, traced segments
  double seconds[2] = {0, 0};  // likewise
  std::vector<double> publish_ms;
  uint64_t publish_failed = 0;
  /// Cursor values right after each set-up or publish: the post-swap
  /// windows start here.
  std::vector<uint64_t> window_starts;
  size_t live = 0;  // version currently published
  uint64_t next_publish = 0;
};

/// True when `result` is `version`'s reference answer for pool entry
/// `entry`: an OK status, the same row count and, unless count-only, the
/// same rows (by order-independent hash).
bool Matches(const Version& version, const QueryPool& pool, size_t entry,
             const maimon::serve::QueryResult& result);

struct CheckOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t result_rows = 0;      // summed over the pool's distinct queries
  uint64_t semijoin_passes = 0;  // likewise
  std::string note;              // the first failure
};

/// Cold-starts a service from `version`'s store file and checks every
/// distinct pool query against the version's reference, once each.
CheckOutcome CheckVersion(const Version& version, const QueryPool& pool,
                          const maimon::serve::ServiceOptions& options);

maimon::Status OpenService(const std::string& path,
                           const maimon::serve::ServiceOptions& options,
                           SpanLane* lane,
                           std::unique_ptr<maimon::serve::QueryService>* out);

maimon::Status Publish(maimon::serve::QueryService* service,
                       const Version& version, const std::string& path,
                       SpanLane* lane);

/// Runs the closed loop for `seconds`. `log` non-null traces the segment.
/// `publish_every` 0 means no publisher thread.
void RunSegment(maimon::serve::QueryService* service, const QueryPool& pool,
                const std::vector<Version>& versions,
                const std::string& live_path, uint64_t publish_every,
                double seconds, SpanLog* log, LoopState* state);

}  // namespace pipebench

#endif  // PIPEBENCH_SERVE_LOOP_H_
