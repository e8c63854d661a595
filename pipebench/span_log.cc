// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "span_log.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "util/stopwatch.h"

namespace pipebench {

int SpanLane::Open(const char* name, int64_t query_id) {
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.query_id = query_id;
  span.start_ns = maimon::Stopwatch::NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLane::Close(int index) {
  spans_[static_cast<size_t>(index)].end_ns = maimon::Stopwatch::NowNs();
  open_.pop_back();
}

SpanLane* SpanLog::NewLane() {
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.push_back(std::make_unique<SpanLane>());
  return lanes_.back().get();
}

std::vector<SelfTime> SpanLog::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SelfTime> out;
  for (const auto& lane : lanes_) {
    const std::vector<SpanRecord>& spans = lane->spans();
    // Child intervals per parent, clipped to the parent and merged, so
    // overlapping children never count twice.
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
        spans.size());
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0) {
        children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                             s.end_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::vector<std::pair<uint64_t, uint64_t>>& kids = children[i];
      std::sort(kids.begin(), kids.end());
      uint64_t covered = 0;
      uint64_t reach = s.start_ns;
      for (const auto& [lo, hi] : kids) {
        const uint64_t from = std::max(lo, reach);
        const uint64_t to = std::min(hi, s.end_ns);
        if (to > from) {
          covered += to - from;
          reach = to;
        }
      }
      const uint64_t dur = s.end_ns - s.start_ns;
      out.push_back(SelfTime{
          s.name, static_cast<double>(dur - std::min(dur, covered)),
          s.query_id});
    }
  }
  return out;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t l = 0; l < lanes_.size(); ++l) {
    for (const SpanRecord& s : lanes_[l]->spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%" PRIu64
                   ",\"end_ns\":%" PRIu64 ",\"lane\":%zu,\"parent\":%d,"
                   "\"query\":%" PRId64 "}\n",
                   s.name, s.start_ns, s.end_ns, l, s.parent, s.query_id);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace pipebench
