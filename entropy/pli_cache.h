// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// PliCache: byte-budgeted concurrent LRU cache of materialized row labels
// (entropy/row_labels.h), keyed by attribute set. The PLI engine consults it
// before every fold chain; MVDMiner's query stream has heavy prefix overlap
// (separator candidates differ in one or two attributes), which is what
// makes this cache the difference between feasible and infeasible mining.
// It holds labels only: the exact H(X) value memo is thread-confined state
// of each engine handle (pli_engine.h).
//
// One cache is shared by every engine handle forked from the same core —
// there are no per-worker budget slices. Concurrency model:
//
//   * The index is striped: each stripe owns a mutex, a hash map, and one
//     LRU list. A key's stripe is fixed by its hash, so operations on
//     distinct stripes never contend.
//   * The byte budget is one global atomic (bytes_). Inserts RESERVE bytes
//     with a compare-exchange loop before publishing the entry, so
//     `bytes <= capacity` holds at every instant — not just between
//     operations. Reservation is lock-free; eviction locks one stripe at a
//     time while holding no other lock, so the cache cannot deadlock.
//   * Eviction is LRU within a stripe and round-robin across stripes (an
//     approximation of global LRU; with one stripe it IS global LRU, and
//     the single-threaded invariant tests pin that case).
//   * Labels are held by shared_ptr: Get/Put return a LabelsRef that
//     keeps the labels alive even if another thread evicts the entry a
//     moment later. The cache's byte accounting covers resident
//     entries only; a reader's transient pin is its own (bounded) memory.
//   * Counters live in caller-owned Stats structs (one per engine
//     handle/thread), passed into each operation — no atomic counter
//     contention, and folding them with AccumulateCounters reproduces the
//     single-threaded totals exactly.
//
// Each stripe additionally maintains a width-bucketed index of its
// resident keys (bucket w = keys with w attributes), updated under the
// stripe lock on insert, refresh and eviction. The engine's
// best-cached-subset probe (BestSubset) scans the buckets in descending
// width and stops at the first subset hit per stripe, so a cache miss
// costs O(candidates actually examined) instead of a full O(#residents)
// key walk per query.
//
// Determinism note: sharing labels across threads is safe for the
// thread-count-invariance contract because the labels of X are canonical
// (first-occurrence ids) and H(X) is a pure function of them (LabelEntropy
// and FoldLabels sum in ascending row-count order), so a value computed
// from any worker's labels is bit-identical to the value every other worker
// would compute.

#ifndef MAIMON_ENTROPY_PLI_CACHE_H_
#define MAIMON_ENTROPY_PLI_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "entropy/row_labels.h"
#include "util/attr_set.h"

namespace maimon {

class PliCache {
 public:
  /// A pin on cached labels: valid for as long as the caller holds it,
  /// regardless of concurrent eviction.
  using LabelsRef = std::shared_ptr<const RowLabels>;

  /// Per-caller counter block. Each thread (engine handle) owns one and
  /// passes it into cache operations; folding the blocks with
  /// AccumulateCounters yields exact aggregate totals.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;  // label entries inserted
    uint64_t evictions = 0;
    size_t bytes = 0;  // resident-byte gauge; set from bytes(), never summed

    /// Adds `other`'s monotone counters into this one. `bytes` — a
    /// resident gauge, not a counter — is deliberately left untouched; the
    /// single summation site keeps multi-shard aggregation in lockstep
    /// with the counter list above.
    void AccumulateCounters(const Stats& other) {
      hits += other.hits;
      misses += other.misses;
      insertions += other.insertions;
      evictions += other.evictions;
    }
    /// The inverse: takes an earlier reading of the same counters out, so
    /// `later.SubtractCounters(earlier)` is the work done in between.
    void SubtractCounters(const Stats& earlier) {
      hits -= earlier.hits;
      misses -= earlier.misses;
      insertions -= earlier.insertions;
      evictions -= earlier.evictions;
    }
  };

  /// `num_stripes <= 0` picks the default (16). Use 1 stripe to get exact
  /// global LRU order (the single-threaded tests do).
  explicit PliCache(size_t capacity_bytes, int num_stripes = 0);

  PliCache(const PliCache&) = delete;
  PliCache& operator=(const PliCache&) = delete;

  /// Looks up the labels of `key`, promoting the entry to
  /// most-recently-used in its stripe. Counts a hit or a miss into `stats`.
  /// Returns an empty ref on miss.
  LabelsRef Get(AttrSet key, Stats* stats);

  /// True iff labels are resident for `key`.
  bool Contains(AttrSet key) const;

  /// Widest resident key that is a subset of `query`, and its labels — the
  /// engine's fold-chain starting point. Probes each stripe's
  /// width buckets in descending width, stopping at the first subset hit
  /// per stripe and skipping buckets no wider than the best found so far,
  /// so the cost is O(candidate keys examined), not O(residents). The
  /// winner is pinned under its stripe lock (no probe/pin race) and
  /// promoted to MRU; no hit/miss accounting. Returns an empty ref with
  /// `*key` empty when no resident key applies. `candidates` (nullable) is
  /// incremented by the number of keys examined — the
  /// `pli.subset_probe.candidates` counter.
  LabelsRef BestSubset(AttrSet query, AttrSet* key, uint64_t* candidates);

  /// Inserts (or refreshes) the labels of `key`. They are shrunk to fit
  /// before being charged, so the budget reflects real residency. Evicts
  /// least-recently-used entries until the byte budget holds — never the
  /// entry being inserted; labels larger than the whole budget are
  /// rejected. Returns the resident labels (or, if another thread raced the
  /// same key in first, that thread's identical copy); an empty ref iff
  /// rejected.
  LabelsRef Put(AttrSet key, RowLabels labels, Stats* stats);

  /// Resident entries across all stripes.
  size_t size() const;
  size_t capacity_bytes() const { return capacity_bytes_; }
  /// Resident bytes right now. With reservation-before-insert this never
  /// exceeds capacity_bytes(), even observed mid-operation from another
  /// thread.
  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  int num_stripes() const { return static_cast<int>(stripes_.size()); }

 private:
  struct Entry {
    AttrSet key;
    LabelsRef labels;
    size_t cost = 0;  // bytes charged while resident
  };
  struct Stripe {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = MRU
    std::unordered_map<AttrSet, std::list<Entry>::iterator, AttrSetHash> index;
    /// Width-bucketed resident keys: by_width[w] holds this stripe's keys
    /// with w attributes. Maintained under `mu` by IndexKey/UnindexKey at
    /// every insert/refresh/evict; BestSubset scans descending.
    std::vector<std::vector<AttrSet>> by_width;
    int max_width = 0;  // highest non-empty bucket (0 = none resident)
  };

  /// Adds `key` to its stripe width bucket. Caller holds s.mu.
  static void IndexKey(Stripe& s, AttrSet key);
  /// Removes `key` from its stripe width bucket (swap-with-back; buckets
  /// are unordered). Caller holds s.mu.
  static void UnindexKey(Stripe& s, AttrSet key);

  Stripe& StripeFor(AttrSet key) {
    return stripes_[AttrSetHash{}(key) % stripes_.size()];
  }
  const Stripe& StripeFor(AttrSet key) const {
    return stripes_[AttrSetHash{}(key) % stripes_.size()];
  }

  /// Promotes `key` to MRU without hit/miss accounting (BestSubset's
  /// winner); a no-op if it is no longer resident.
  void Touch(AttrSet key);

  /// Reserves `cost` bytes against the global budget iff it fits; the CAS
  /// loop guarantees bytes_ <= capacity at every instant.
  bool TryReserve(size_t cost);
  void Release(size_t cost) {
    bytes_.fetch_sub(cost, std::memory_order_relaxed);
  }

  /// Evicts the LRU entry of some stripe (round-robin scan from an
  /// advancing cursor). Returns false when every stripe is empty.
  bool EvictSomething(Stats* stats);

  const size_t capacity_bytes_;
  std::atomic<size_t> bytes_{0};  // resident bytes, all entries
  std::atomic<size_t> evict_cursor_{0};
  std::vector<Stripe> stripes_;
};

}  // namespace maimon

#endif  // MAIMON_ENTROPY_PLI_CACHE_H_
