// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// PliCache contract: LRU eviction respects the byte capacity, hit/miss
// counters are exact, and label refs stay valid across inserts and
// concurrent evictions. The single-threaded cases run on a one-stripe
// cache, where eviction order is exact global LRU; the stress case runs
// the default striping with eight threads of mixed traffic and checks the
// invariants that survive concurrency: bytes <= capacity at every instant,
// per-thread counters folding exactly, and pinned labels staying
// readable.

#include "entropy/pli_cache.h"

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace maimon {
namespace {

// The labels of the empty set over `rows` rows (every row id 0): their
// MemoryBytes() grows with `rows`, which lets the tests dial entry sizes.
RowLabels MakeLabels(size_t rows) {
  RowLabels labels;
  labels.labels.assign(rows, 0);
  labels.num_distinct = rows > 0 ? 1 : 0;
  return labels;
}

TEST_CASE(HitAndMissCountersAreExact) {
  PliCache cache(size_t{1} << 20, /*num_stripes=*/1);
  PliCache::Stats st;
  const AttrSet a(0b01), b(0b10);

  CHECK(cache.Get(a, &st) == nullptr);
  CHECK(cache.Get(b, &st) == nullptr);
  CHECK_EQ(st.misses, 2u);
  CHECK_EQ(st.hits, 0u);

  cache.Put(a, MakeLabels(64), &st);
  for (int i = 0; i < 5; ++i) CHECK(cache.Get(a, &st) != nullptr);
  CHECK(cache.Get(b, &st) == nullptr);
  CHECK_EQ(st.hits, 5u);
  CHECK_EQ(st.misses, 3u);
  CHECK_EQ(st.insertions, 1u);
  CHECK_EQ(st.evictions, 0u);
}

TEST_CASE(EvictionRespectsCapacityAndLruOrder) {
  const size_t entry_bytes = MakeLabels(256).MemoryBytes();
  // Room for three entries, not four. One stripe: exact global LRU.
  PliCache cache(3 * entry_bytes + entry_bytes / 2, /*num_stripes=*/1);
  PliCache::Stats st;

  const AttrSet keys[4] = {AttrSet(1), AttrSet(2), AttrSet(4), AttrSet(8)};
  for (int i = 0; i < 3; ++i) cache.Put(keys[i], MakeLabels(256), &st);
  CHECK_EQ(cache.size(), 3u);
  CHECK(cache.bytes() <= cache.capacity_bytes());

  // Touch key 0 so key 1 becomes LRU, then insert key 3.
  CHECK(cache.Get(keys[0], &st) != nullptr);
  cache.Put(keys[3], MakeLabels(256), &st);
  CHECK_EQ(cache.size(), 3u);
  CHECK_EQ(st.evictions, 1u);
  CHECK(!cache.Contains(keys[1]));  // the LRU victim
  CHECK(cache.Contains(keys[0]));
  CHECK(cache.Contains(keys[2]));
  CHECK(cache.Contains(keys[3]));
  CHECK(cache.bytes() <= cache.capacity_bytes());
}

TEST_CASE(OversizedEntryIsRejected) {
  const size_t small = MakeLabels(16).MemoryBytes();
  PliCache cache(small, /*num_stripes=*/1);
  PliCache::Stats st;
  CHECK(cache.Put(AttrSet(1), MakeLabels(4096), &st) == nullptr);
  CHECK_EQ(cache.size(), 0u);
  CHECK_EQ(cache.bytes(), 0u);
  // A fitting entry still goes in.
  CHECK(cache.Put(AttrSet(2), MakeLabels(16), &st) != nullptr);
  CHECK_EQ(cache.size(), 1u);
}

TEST_CASE(PutNeverEvictsTheInsertedEntryAndRefsStayValid) {
  const size_t entry_bytes = MakeLabels(128).MemoryBytes();
  PliCache cache(2 * entry_bytes + entry_bytes / 2, /*num_stripes=*/1);
  PliCache::Stats st;

  const PliCache::LabelsRef first =
      cache.Put(AttrSet(1), MakeLabels(128), &st);
  CHECK(first != nullptr);
  const PliCache::LabelsRef second =
      cache.Put(AttrSet(2), MakeLabels(128), &st);
  CHECK(second != nullptr);
  // Third insert evicts the LRU (key 1), not itself. The evicted `first`
  // is pinned by our ref and stays readable; `second` stays resident.
  const PliCache::LabelsRef third =
      cache.Put(AttrSet(4), MakeLabels(128), &st);
  CHECK(third != nullptr);
  CHECK(!cache.Contains(AttrSet(1)));
  CHECK(cache.Contains(AttrSet(2)));
  CHECK_EQ(first->labels.size(), size_t{128});  // pin outlives eviction
  CHECK_EQ(second->labels.size(), size_t{128});
  CHECK_EQ(third->labels.size(), size_t{128});
}

TEST_CASE(RefreshingAKeyUpdatesBytesWithoutDoubleCounting) {
  PliCache cache(size_t{1} << 20, /*num_stripes=*/1);
  PliCache::Stats st;
  cache.Put(AttrSet(1), MakeLabels(64), &st);
  const size_t bytes_small = cache.bytes();
  cache.Put(AttrSet(1), MakeLabels(512), &st);
  CHECK_EQ(cache.size(), 1u);
  CHECK(cache.bytes() > bytes_small);
  cache.Put(AttrSet(1), MakeLabels(64), &st);
  CHECK_EQ(cache.size(), 1u);
  CHECK_EQ(st.insertions, 1u);
}

TEST_CASE(ShrinkToFitIsChargedNotTheFoldBufferCapacity) {
  // A reused fold buffer can hold capacity above its size: Put must charge
  // the exactly sized labels.
  PliCache cache(size_t{1} << 20, /*num_stripes=*/1);
  PliCache::Stats st;
  RowLabels labels = MakeLabels(512);
  const size_t fit_bytes = labels.MemoryBytes();
  labels.labels.reserve(4096);
  CHECK(labels.MemoryBytes() > fit_bytes);
  cache.Put(AttrSet(1), std::move(labels), &st);
  CHECK_EQ(cache.bytes(), fit_bytes);
}

TEST_CASE(BestSubsetReturnsWidestApplicableKey) {
  PliCache cache(size_t{1} << 20, /*num_stripes=*/1);
  PliCache::Stats st;
  cache.Put(AttrSet(0b0001), MakeLabels(64), &st);      // width 1, subset
  cache.Put(AttrSet(0b0011), MakeLabels(64), &st);      // width 2, subset
  cache.Put(AttrSet(0b0111), MakeLabels(64), &st);      // width 3, subset
  cache.Put(AttrSet(0b11000000), MakeLabels(64), &st);  // width 2, not

  AttrSet key;
  uint64_t candidates = 0;
  const PliCache::LabelsRef ref =
      cache.BestSubset(AttrSet(0b1111), &key, &candidates);
  CHECK(ref != nullptr);
  CHECK_EQ(key, AttrSet(0b0111));
  // Descending-width scan with early exit: the width-3 bucket hits on its
  // first key, so narrower buckets are never examined. Only the width-3
  // candidate is charged.
  CHECK_EQ(candidates, 1u);

  // No resident key applies: empty result. Buckets wider than the query
  // (the width-3 key) are skipped outright — they cannot fit inside it.
  key = AttrSet(0b1);
  const PliCache::LabelsRef none =
      cache.BestSubset(AttrSet(0b110000), &key, &candidates);
  CHECK(none == nullptr);
  CHECK(key.Empty());
}

TEST_CASE(BestSubsetTracksEvictionAndRefresh) {
  const size_t entry_bytes = MakeLabels(256).MemoryBytes();
  PliCache cache(3 * entry_bytes + entry_bytes / 2, /*num_stripes=*/1);
  PliCache::Stats st;
  cache.Put(AttrSet(0b011), MakeLabels(256), &st);

  // Push the key out of the cache; the subset index must forget it.
  cache.Put(AttrSet(0b100), MakeLabels(256), &st);
  cache.Put(AttrSet(0b1000), MakeLabels(256), &st);
  cache.Put(AttrSet(0b10000), MakeLabels(256), &st);
  CHECK(!cache.Contains(AttrSet(0b011)));

  AttrSet key;
  uint64_t candidates = 0;
  // The evicted width-2 key must NOT come back; the width-1 resident
  // subset wins instead.
  const PliCache::LabelsRef ref =
      cache.BestSubset(AttrSet(0b111), &key, &candidates);
  CHECK(ref != nullptr);
  CHECK_EQ(key, AttrSet(0b100));

  // Re-inserting (refresh path) restores the key to the index exactly once.
  cache.Put(AttrSet(0b011), MakeLabels(256), &st);
  cache.Put(AttrSet(0b011), MakeLabels(256), &st);  // refresh, same key
  candidates = 0;
  const PliCache::LabelsRef again =
      cache.BestSubset(AttrSet(0b011), &key, &candidates);
  CHECK(again != nullptr);
  CHECK_EQ(key, AttrSet(0b011));
  CHECK_EQ(candidates, 1u);  // one copy in the bucket, not two
}

TEST_CASE(BestSubsetPromotesOnlyTheWinner) {
  const size_t entry_bytes = MakeLabels(256).MemoryBytes();
  PliCache cache(3 * entry_bytes + entry_bytes / 2, /*num_stripes=*/1);
  PliCache::Stats st;
  cache.Put(AttrSet(0b001), MakeLabels(256), &st);  // LRU after the others
  cache.Put(AttrSet(0b010), MakeLabels(256), &st);
  cache.Put(AttrSet(0b110), MakeLabels(256), &st);  // MRU, widest

  AttrSet key;
  const PliCache::LabelsRef ref = cache.BestSubset(AttrSet(0b111), &key,
                                                      /*candidates=*/nullptr);
  CHECK_EQ(key, AttrSet(0b110));
  // The winner was promoted; the losing candidates were not, so the next
  // eviction takes AttrSet(0b001) — still the global LRU.
  cache.Put(AttrSet(0b1000), MakeLabels(256), &st);
  CHECK(!cache.Contains(AttrSet(0b001)));
  CHECK(cache.Contains(AttrSet(0b010)));
  CHECK(cache.Contains(AttrSet(0b110)));
}

// Eight threads of mixed Get/Put/BestSubset traffic against a cache sized
// to force constant eviction. Checks the concurrency contract:
//   * bytes() <= capacity at EVERY observation (reservation-before-insert);
//   * per-thread Stats fold exactly: hits + misses == the known number of
//     Get calls issued across all threads;
//   * returned refs stay readable under concurrent eviction (ASan/TSan
//     make this a real check, not a formality), and a BestSubset winner is
//     always a subset of its query.
TEST_CASE(ConcurrentMixedTrafficHoldsInvariantsAndFoldsCountersExactly) {
  const size_t entry_bytes = MakeLabels(128).MemoryBytes();
  PliCache cache(6 * entry_bytes + entry_bytes / 2);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr uint64_t kKeySpace = 24;  // >> resident capacity: churn

  std::vector<PliCache::Stats> per_thread(kThreads);
  std::vector<uint64_t> gets_issued(kThreads, 0);
  std::atomic<bool> budget_ok{true};
  std::atomic<bool> refs_ok{true};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PliCache::Stats& st = per_thread[static_cast<size_t>(t)];
      // SplitMix64 per-thread stream: deterministic, no shared RNG state.
      uint64_t x = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(t + 1);
      const auto next = [&x] {
        x += 0x9e3779b97f4a7c15ULL;
        uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
      };
      for (int op = 0; op < kOpsPerThread; ++op) {
        const uint64_t r = next();
        const AttrSet key(uint64_t{1} << (r % kKeySpace));
        switch ((r >> 32) % 3) {
          case 0: {
            const PliCache::LabelsRef ref = cache.Get(key, &st);
            ++gets_issued[static_cast<size_t>(t)];
            if (ref != nullptr && ref->labels.size() != 128) {
              refs_ok.store(false, std::memory_order_relaxed);
            }
            break;
          }
          case 1: {
            const PliCache::LabelsRef ref =
                cache.Put(key, MakeLabels(128), &st);
            // Entry cost << capacity, so Put cannot reject; the returned
            // pin must be readable even if evicted immediately after.
            if (ref == nullptr || ref->labels.size() != 128) {
              refs_ok.store(false, std::memory_order_relaxed);
            }
            break;
          }
          default: {
            // A two- or one-attribute query: any resident key inside it
            // may win, and the pinned winner must stay readable.
            const AttrSet query =
                key.Union(AttrSet(uint64_t{1} << ((r >> 8) % kKeySpace)));
            AttrSet best;
            const PliCache::LabelsRef ref =
                cache.BestSubset(query, &best, /*candidates=*/nullptr);
            if (ref != nullptr &&
                (ref->labels.size() != 128 || best.Empty() ||
                 !query.ContainsAll(best))) {
              refs_ok.store(false, std::memory_order_relaxed);
            }
            break;
          }
        }
        if (cache.bytes() > cache.capacity_bytes()) {
          budget_ok.store(false, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  CHECK(budget_ok.load());
  CHECK(refs_ok.load());
  CHECK(cache.bytes() <= cache.capacity_bytes());

  // Exact fold: no counter increments were lost or double-counted.
  PliCache::Stats total;
  uint64_t total_gets = 0;
  for (int t = 0; t < kThreads; ++t) {
    total.AccumulateCounters(per_thread[static_cast<size_t>(t)]);
    total_gets += gets_issued[static_cast<size_t>(t)];
  }
  CHECK_EQ(total.hits + total.misses, total_gets);
  std::printf("  %d threads x %d ops: %llu hits / %llu gets, %llu evictions,"
              " %zu resident bytes\n",
              kThreads, kOpsPerThread,
              static_cast<unsigned long long>(total.hits),
              static_cast<unsigned long long>(total_gets),
              static_cast<unsigned long long>(total.evictions),
              cache.bytes());
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
