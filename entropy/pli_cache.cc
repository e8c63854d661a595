// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "entropy/pli_cache.h"

#include <thread>
#include <utility>

namespace maimon {

namespace {
constexpr int kDefaultStripes = 16;
}  // namespace

PliCache::PliCache(size_t capacity_bytes, int num_stripes)
    : capacity_bytes_(capacity_bytes),
      stripes_(static_cast<size_t>(num_stripes > 0 ? num_stripes
                                                   : kDefaultStripes)) {}

bool PliCache::TryReserve(size_t cost) {
  size_t cur = bytes_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur + cost > capacity_bytes_) return false;
    if (bytes_.compare_exchange_weak(cur, cur + cost,
                                     std::memory_order_relaxed)) {
      return true;
    }
  }
}

PliCache::LabelsRef PliCache::Get(AttrSet key, Stats* stats) {
  Stripe& s = StripeFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.index.find(key);
  if (it == s.index.end()) {
    if (stats != nullptr) ++stats->misses;
    return nullptr;
  }
  if (stats != nullptr) ++stats->hits;
  s.lru.splice(s.lru.begin(), s.lru, it->second);
  return it->second->labels;
}

bool PliCache::Contains(AttrSet key) const {
  const Stripe& s = StripeFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.index.count(key) != 0;
}

void PliCache::Touch(AttrSet key) {
  Stripe& s = StripeFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.index.find(key);
  if (it != s.index.end()) s.lru.splice(s.lru.begin(), s.lru, it->second);
}

void PliCache::IndexKey(Stripe& s, AttrSet key) {
  const int w = key.Count();
  if (s.by_width.size() <= static_cast<size_t>(w)) {
    s.by_width.resize(static_cast<size_t>(w) + 1);
  }
  s.by_width[static_cast<size_t>(w)].push_back(key);
  if (w > s.max_width) s.max_width = w;
}

void PliCache::UnindexKey(Stripe& s, AttrSet key) {
  const int w = key.Count();
  std::vector<AttrSet>& bucket = s.by_width[static_cast<size_t>(w)];
  for (AttrSet& k : bucket) {
    if (k == key) {
      k = bucket.back();
      bucket.pop_back();
      break;
    }
  }
  while (s.max_width > 0 &&
         s.by_width[static_cast<size_t>(s.max_width)].empty()) {
    --s.max_width;
  }
}

PliCache::LabelsRef PliCache::BestSubset(AttrSet query, AttrSet* key,
                                         uint64_t* candidates) {
  const int query_width = query.Count();
  AttrSet best_key;
  int best_width = 0;
  LabelsRef best_ref;
  uint64_t examined = 0;
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    // Only strictly wider buckets than the best so far can improve; within
    // a stripe the first subset hit at a width wins that stripe outright.
    int top = s.max_width < query_width ? s.max_width : query_width;
    for (int w = top; w > best_width; --w) {
      bool found = false;
      for (AttrSet k : s.by_width[static_cast<size_t>(w)]) {
        ++examined;
        if (query.ContainsAll(k)) {
          best_key = k;
          best_width = w;
          // Pin under the stripe lock we already hold: no window for a
          // concurrent eviction between probe and fetch.
          best_ref = s.index.find(k)->second->labels;
          found = true;
          break;
        }
      }
      if (found) break;
    }
  }
  if (candidates != nullptr) *candidates += examined;
  *key = best_key;
  if (best_ref != nullptr) Touch(best_key);  // promote the winner only
  return best_ref;
}

PliCache::LabelsRef PliCache::Put(AttrSet key, RowLabels labels,
                                  Stats* stats) {
  // Shrink before charging: a reused fold buffer can hold capacity above
  // its size, and the budget must reflect the bytes actually held while
  // resident.
  labels.labels.shrink_to_fit();
  const size_t cost = labels.MemoryBytes();
  if (cost > capacity_bytes_) return nullptr;
  auto ref = std::make_shared<const RowLabels>(std::move(labels));

  // Phase 0: detach any existing entry for the key (a refresh) so its
  // bytes are returned before we reserve the new cost. Not an eviction:
  // the key's data is being replaced, not dropped.
  bool refresh = false;  // replacing resident labels is not an insert
  {
    Stripe& s = StripeFor(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      refresh = true;
      Release(it->second->cost);
      UnindexKey(s, key);
      s.lru.erase(it->second);
      s.index.erase(it);
    }
  }

  // Phase 1: reserve the cost, evicting cold entries while it does not
  // fit. No locks are held between attempts, so eviction (which takes one
  // stripe lock at a time) cannot deadlock against concurrent inserts.
  while (!TryReserve(cost)) {
    if (!EvictSomething(stats)) {
      // Nothing evictable: concurrent inserts hold reservations they have
      // not yet published. Yield and retry — they will publish or release.
      std::this_thread::yield();
    }
  }

  // Phase 2: publish. Another thread may have inserted the same key while
  // we held no lock; cached labels are pure functions of the key, so keep
  // the resident copy and hand back our reservation.
  Stripe& s = StripeFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.index.find(key);
  if (it != s.index.end()) {
    Release(cost);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return it->second->labels;
  }
  s.lru.push_front(Entry{key, ref, cost});
  s.index[key] = s.lru.begin();
  IndexKey(s, key);
  if (stats != nullptr && !refresh) ++stats->insertions;
  return ref;
}

bool PliCache::EvictSomething(Stats* stats) {
  const size_t n = stripes_.size();
  const size_t start = evict_cursor_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    Stripe& s = stripes_[(start + i) % n];
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.lru.empty()) continue;
    const Entry& victim = s.lru.back();
    Release(victim.cost);
    if (stats != nullptr) ++stats->evictions;
    UnindexKey(s, victim.key);
    s.index.erase(victim.key);
    s.lru.pop_back();
    return true;
  }
  return false;
}

size_t PliCache::size() const {
  size_t total = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.index.size();
  }
  return total;
}

}  // namespace maimon
