// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "serve_loop.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "store/mapped_store.h"
#include "util/stopwatch.h"

namespace pipebench {

using maimon::ProjectionStore;
using maimon::Status;
using maimon::Stopwatch;
namespace serve = maimon::serve;
namespace mstore = maimon::store;

namespace {

constexpr int kSubBits = 8;                 // 256 buckets per power of two
constexpr int kMaxBits = 40;                // latencies clamp at ~18 minutes
constexpr size_t kNumBuckets =
    size_t{kMaxBits - kSubBits + 1} << kSubBits;

size_t BucketOf(uint64_t ns) {
  ns = std::min<uint64_t>(ns, (uint64_t{1} << kMaxBits) - 1);
  if (ns < (uint64_t{1} << kSubBits)) return static_cast<size_t>(ns);
  const int shift = 63 - __builtin_clzll(ns) - kSubBits;
  return (static_cast<size_t>(shift + 1) << kSubBits) +
         static_cast<size_t>((ns >> shift) - (uint64_t{1} << kSubBits));
}

// MappedStore::Open + ToProjectionStore, each in its own span: what
// FromFile and SwapFromFile do before building a snapshot.
Status LoadTraced(const std::string& path, SpanLane* lane,
                  ProjectionStore* out) {
  mstore::MappedStore mapped;
  Status status;
  {
    Scope span(lane, "store.open");
    status = mstore::MappedStore::Open(path, &mapped);
  }
  if (!status.ok()) return status;
  Scope span(lane, "store.load");
  return mapped.ToProjectionStore(out);
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kNumBuckets, 0) {}

void LatencyHistogram::Add(uint64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < kNumBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p * static_cast<double>(count_))));
  uint64_t below = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    if (below + buckets_[b] < rank) {
      below += buckets_[b];
      continue;
    }
    if (b < (size_t{2} << kSubBits)) return static_cast<double>(b);  // 1 ns
    const int shift = static_cast<int>(b >> kSubBits) - 1;
    const uint64_t lower = ((b & ((size_t{1} << kSubBits) - 1)) |
                            (size_t{1} << kSubBits))
                           << shift;
    const double within = (static_cast<double>(rank - below) - 0.5) /
                          static_cast<double>(buckets_[b]);
    return static_cast<double>(lower) +
           within * static_cast<double>(uint64_t{1} << shift);
  }
  return 0;
}

void Tally::Merge(const Tally& other) {
  queries += other.queries;
  wrong += other.wrong;
  plan_nodes += other.plan_nodes;
  point_lookups += other.point_lookups;
  latency.Merge(other.latency);
}

bool Matches(const Version& version, const QueryPool& pool, size_t entry,
             const serve::QueryResult& result) {
  const Answer& want = version.expected[entry];
  if (!result.status.ok() || result.rows != want.rows) return false;
  if (pool.queries[entry].count_only) return true;
  return result.tuples.size() == result.rows &&
         AnswerOf(result).hash == want.hash;
}

CheckOutcome CheckVersion(const Version& version, const QueryPool& pool,
                          const serve::ServiceOptions& options) {
  CheckOutcome out;
  std::unique_ptr<serve::QueryService> service;
  const Status status =
      serve::QueryService::FromFile(version.path, options, &service);
  ++out.attempted;
  if (!status.ok()) {
    ++out.failed;
    out.note = "check set-up: " + status.message();
    return out;
  }
  for (size_t e = 0; e < pool.queries.size(); ++e) {
    const serve::QueryResult result = service->Execute(pool.queries[e]);
    ++out.attempted;
    if (!Matches(version, pool, e, result)) {
      if (out.failed++ == 0) out.note = "checked answer";
    }
    out.result_rows += result.rows;
    out.semijoin_passes += result.semijoin_passes;
  }
  return out;
}

Status OpenService(const std::string& path,
                   const serve::ServiceOptions& options, SpanLane* lane,
                   std::unique_ptr<serve::QueryService>* out) {
  if (lane == nullptr) return serve::QueryService::FromFile(path, options, out);
  ProjectionStore loaded(std::vector<maimon::StoredProjection>(), 0);
  const Status status = LoadTraced(path, lane, &loaded);
  if (!status.ok()) return status;
  Scope span(lane, "serve.snapshot");
  *out = std::make_unique<serve::QueryService>(std::move(loaded), options);
  return Status::Ok();
}

Status Publish(serve::QueryService* service, const Version& version,
               const std::string& path, SpanLane* lane) {
  Scope publish_span(lane, "publish");
  Status status;
  {
    Scope span(lane, "store.write");
    status = version.writer->Write(*version.store, path);
  }
  if (!status.ok()) return status;
  if (lane == nullptr) return service->SwapFromFile(path);
  ProjectionStore loaded(std::vector<maimon::StoredProjection>(), 0);
  status = LoadTraced(path, lane, &loaded);
  if (!status.ok()) return status;
  Scope span(lane, "serve.snapshot");
  service->Swap(std::move(loaded));
  return Status::Ok();
}

void RunSegment(serve::QueryService* service, const QueryPool& pool,
                const std::vector<Version>& versions,
                const std::string& live_path, uint64_t publish_every,
                double seconds, SpanLog* log, LoopState* state) {
  std::atomic<bool> stop{false};
  std::vector<Tally> per_client(kClients);
  std::vector<double> publish_ms;
  std::vector<uint64_t> window_starts = {state->cursor.load()};
  uint64_t publish_failed = 0;
  const bool traced = log != nullptr;

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      SpanLane* lane = traced ? log->NewLane() : nullptr;
      Tally tally;  // thread-local until the end: no shared cache lines
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t index =
            state->cursor.fetch_add(1, std::memory_order_relaxed);
        const size_t entry = pool.At(index);
        const serve::Query& q = pool.queries[entry];
        const int64_t id = static_cast<int64_t>(index);
        Scope query_span(lane, "serve.query", id);
        bool planned = true;
        if (lane != nullptr) {
          Scope span(lane, "serve.plan", id);
          planned = service->snapshot()->planner().Plan(q).status.ok();
        }
        serve::QueryResult result;
        {
          Scope span(lane, "serve.execute", id);
          const uint64_t t0 = Stopwatch::NowNs();
          result = service->Execute(q);
          if (!traced) tally.latency.Add(Stopwatch::NowNs() - t0);
        }
        // Either version's reference count is right during hot swaps.
        bool ok = false;
        for (const Version& v : versions) {
          ok |= v.expected[entry].rows == result.rows;
        }
        ++tally.queries;
        tally.wrong += planned && result.status.ok() && ok ? 0 : 1;
        tally.plan_nodes += result.plan_nodes;
        tally.point_lookups += result.point_lookup ? 1 : 0;
      }
      per_client[static_cast<size_t>(c)] = std::move(tally);
    });
  }
  if (publish_every > 0) {
    threads.emplace_back([&] {
      SpanLane* lane = traced ? log->NewLane() : nullptr;
      if (state->next_publish == 0) {
        state->next_publish = state->cursor.load() + publish_every;
      }
      while (!stop.load(std::memory_order_relaxed)) {
        if (state->cursor.load(std::memory_order_relaxed) <
            state->next_publish) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          continue;
        }
        const size_t next = 1 - state->live;
        const uint64_t t0 = Stopwatch::NowNs();
        const Status status = Publish(service, versions[next], live_path, lane);
        publish_ms.push_back(static_cast<double>(Stopwatch::NowNs() - t0) /
                             1e6);
        if (status.ok()) {
          state->live = next;
        } else {
          ++publish_failed;
        }
        window_starts.push_back(state->cursor.load());
        state->next_publish += publish_every;
      }
    });
  }

  const Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  state->seconds[traced ? 1 : 0] += watch.ElapsedSeconds();
  for (const Tally& tally : per_client) {
    state->tally[traced ? 1 : 0].Merge(tally);
  }
  state->publish_ms.insert(state->publish_ms.end(), publish_ms.begin(),
                           publish_ms.end());
  state->window_starts.insert(state->window_starts.end(),
                              window_starts.begin(), window_starts.end());
  state->publish_failed += publish_failed;
}

}  // namespace pipebench
