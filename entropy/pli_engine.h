// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// PliEntropyEngine: the Sec. 6.3 entropy engine. H(X) is computed from row
// labels (entropy/row_labels.h), the engine's one form of X's partition,
// folded from cached subsets instead of scanning the relation:
//
//   1. exact-match value memo: a repeated query is one lookup in the
//      handle's own EntropyMemo — thread-confined, so no lock and no
//      shared write on the hit path, and bounded by
//      EntropyMemo::kMaxSlots. Single columns bypass it: their H is
//      precomputed at construction;
//   2. otherwise, start from the labels of the largest cached subset of X
//      (found via the cache's width index) and fold in the missing
//      attributes one single-column labeling at a time (FoldLabels); the
//      last fold also yields H(X);
//   3. intermediate labelings with at most `block_size` attributes (the
//      paper's L, default 10) are staged into a byte-budgeted LRU cache, so
//      the prefix work is shared across the miner's query stream. Wider
//      ones stay transient — they are many and rarely re-usable, which is
//      exactly the memory/compute trade the L knob controls.
//
// The engine is split along the concurrency boundary:
//
//   PliSharedCore    — immutable after construction: the relation view, one
//                      RowLabels per column, and every single-column
//                      entropy. Built once, read concurrently by any number
//                      of workers with no synchronization.
//   PliCache         — ONE concurrent label cache (striped locks, one
//                      global byte budget) shared by every engine handle
//                      forked from the same core: labels materialized by
//                      any worker are immediately a hit for all of them,
//                      and no budget is stranded in cold per-worker slices.
//   PliEntropyEngine — the per-worker handle: the H(X) value memo, the fold
//                      buffers and scratch, and the query/hit counters. One
//                      handle is owned by one thread at a time; Fork()
//                      hands out a handle over the shared core + cache,
//                      with an empty memo, and MergeStats() folds worker
//                      counters back so aggregate ablation numbers add up
//                      exactly across any thread count.
//
// Counters for every layer (value hits, cache hits/misses, evictions,
// bytes, folds) feed the ablation bench.

#ifndef MAIMON_ENTROPY_PLI_ENGINE_H_
#define MAIMON_ENTROPY_PLI_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/relation.h"
#include "entropy/entropy_engine.h"
#include "entropy/info_calc.h"
#include "entropy/pli_cache.h"
#include "entropy/row_labels.h"

namespace maimon {

struct PliEngineOptions {
  /// L: labelings of at most this many attributes are cached; wider ones
  /// are computed transiently. Sec. 6.3 uses L = 10.
  int block_size = 10;
  /// Byte budget for the shared label cache. One global budget: every
  /// engine handle forked from the same core shares the one cache, so no
  /// bytes are sliced away or stranded per worker.
  size_t cache_capacity_bytes = size_t{64} << 20;
};

/// Exact H(X) values keyed by attribute mask: one per engine handle and
/// touched only by the thread that owns the handle, so it takes no lock.
/// Open addressing with linear probing at load <= 1/2; the table doubles
/// from kInitialSlots up to kMaxSlots 16-byte slots (2 MiB) and then, instead
/// of growing, restarts empty at that size. Mask 0 marks an empty slot, so
/// the empty set is never stored (H({}) = 0 needs no memo).
class EntropyMemo {
 public:
  static constexpr size_t kInitialSlots = size_t{1} << 10;
  static constexpr size_t kMaxSlots = size_t{1} << 17;

  /// Sets `*h` and returns true iff H(key) is stored.
  bool Find(AttrSet key, double* h) const;
  /// Stores H(key); a no-op for the empty set.
  void Insert(AttrSet key, double h);

  size_t size() const { return size_; }
  size_t slots() const { return slots_.size(); }

 private:
  struct Slot {
    uint64_t key = 0;  // 0 = empty
    double value = 0.0;
  };
  /// The slot holding `key`, or the empty slot where it would go. Requires
  /// a non-empty table.
  size_t Probe(uint64_t key) const;

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// The immutable half of the engine: everything every worker reads and no
/// worker writes. Constructed once per relation and shared (by shared_ptr)
/// across all engines forked from it.
class PliSharedCore {
 public:
  PliSharedCore(const Relation& relation, PliEngineOptions options);

  const Relation& relation() const { return *relation_; }
  const PliEngineOptions& options() const { return options_; }
  const RowLabels& Single(int c) const {
    return singles_[static_cast<size_t>(c)];
  }
  double SingleEntropy(int c) const {
    return single_entropy_[static_cast<size_t>(c)];
  }

 private:
  const Relation* relation_;
  PliEngineOptions options_;
  std::vector<RowLabels> singles_;      // one labeling per column, built once
  std::vector<double> single_entropy_;  // H per column, never evicted
};

class PliEntropyEngine : public EntropyEngine {
 public:
  /// Builds the shared core and a full-budget shard on top of it.
  explicit PliEntropyEngine(const Relation& relation,
                            PliEngineOptions options = PliEngineOptions());

  double Entropy(AttrSet attrs) override;
  /// Width-ordered batch: narrow sets are computed (and staged into the
  /// cache) before the wider sets that extend them, so one batch of related
  /// candidates shares prefix labelings. Results come back in input order.
  std::vector<double> EntropyBatch(const std::vector<AttrSet>& queries) override;
  /// Total queries answered by this shard plus everything merged into it.
  uint64_t NumQueries() const override { return stats_.queries; }

  /// A worker handle over this engine's immutable core AND its shared
  /// concurrent cache — the full byte budget, no slicing. Labels staged by
  /// this engine are warm for every worker (and vice versa). The handle
  /// carries only thread-confined state (an empty value memo, fold buffers
  /// and scratch, counters) and may be handed to a different thread.
  std::unique_ptr<PliEntropyEngine> Fork() const;

  /// Folds a worker's counters into this engine's merged totals. Counter
  /// fields (queries, hits, misses, insertions, evictions, intersections)
  /// are summed exactly; the `bytes` gauge is not (it is read off the one
  /// shared cache, never summed). Call once per worker, after its last
  /// query and from the thread that owns this engine.
  void MergeStats(const PliEntropyEngine& worker);

  struct Stats {
    /// Fold-depth histogram: bucket d counts the label-path queries that
    /// needed d single-column folds (0 = served outright by exact cached
    /// labels). The last bucket absorbs deeper queries.
    static constexpr int kDepthBuckets = 17;

    uint64_t queries = 0;
    uint64_t value_hits = 0;     // answered from the H(X) memo
    uint64_t intersections = 0;  // single-column folds performed
    /// Indexed subset probes issued, candidate keys those probes examined
    /// (a full scan would examine every resident — perf_guard_test bounds
    /// the per-probe average), and H values taken from a query's last fold.
    uint64_t subset_probes = 0;
    uint64_t subset_probe_candidates = 0;
    uint64_t fused_entropies = 0;
    uint64_t depth_hist[kDepthBuckets] = {};
    PliCache::Stats cache;       // label LRU counters

    void ObserveDepth(int depth) {
      if (depth < 0) depth = 0;
      if (depth >= kDepthBuckets) depth = kDepthBuckets - 1;
      ++depth_hist[depth];
    }

    /// Adds `other`'s counters into this one (cache.bytes, a resident
    /// gauge, stays untouched).
    void AccumulateCounters(const Stats& other) {
      queries += other.queries;
      value_hits += other.value_hits;
      intersections += other.intersections;
      subset_probes += other.subset_probes;
      subset_probe_candidates += other.subset_probe_candidates;
      fused_entropies += other.fused_entropies;
      for (int i = 0; i < kDepthBuckets; ++i) {
        depth_hist[i] += other.depth_hist[i];
      }
      cache.AccumulateCounters(other.cache);
    }
    /// The inverse: `later.SubtractCounters(earlier)` leaves the counters
    /// of the work done between two readings of one handle.
    void SubtractCounters(const Stats& earlier) {
      queries -= earlier.queries;
      value_hits -= earlier.value_hits;
      intersections -= earlier.intersections;
      subset_probes -= earlier.subset_probes;
      subset_probe_candidates -= earlier.subset_probe_candidates;
      fused_entropies -= earlier.fused_entropies;
      for (int i = 0; i < kDepthBuckets; ++i) {
        depth_hist[i] -= earlier.depth_hist[i];
      }
      cache.SubtractCounters(earlier.cache);
    }
  };
  /// Folds one slice of a worker's work, a difference of two stats()
  /// readings (Stats::SubtractCounters): the pair grid folds only the pairs
  /// it merged. Same thread rule as above.
  void MergeStats(const Stats& delta);
  /// This handle's counters plus every merged worker's. `cache.bytes` is
  /// the resident gauge of the shared cache.
  Stats stats() const;

  const PliCache& cache() const { return *cache_; }
  const Relation& relation() const { return core_->relation(); }
  const PliEngineOptions& options() const { return core_->options(); }
  const PliSharedCore& core() const { return *core_; }

 private:
  /// A worker handle over an existing core and its shared cache.
  PliEntropyEngine(std::shared_ptr<const PliSharedCore> core,
                   std::shared_ptr<PliCache> cache);

  std::shared_ptr<const PliSharedCore> core_;
  std::shared_ptr<PliCache> cache_;  // shared label cache
  EntropyMemo memo_;                 // this handle's H(X) values
  /// Fold-chain output buffers, ping-ponged so a depth-k chain reuses two
  /// allocations instead of making k. A buffer whose labels are staged
  /// into the cache donates its storage (moved out) and re-grows later.
  RowLabels fold_bufs_[2];
  FoldScratch fold_scratch_;  // FoldLabels' tables, freed with the handle
  /// This handle's counters plus every folded worker's; `cache.bytes` stays
  /// 0 here (stats() reads the gauge off the shared cache).
  Stats stats_;
};

/// A worker's complete mining context: a forked engine shard plus the
/// InfoCalc bound to it. ParallelFor callbacks index these by shard id.
struct EngineShard {
  std::unique_ptr<PliEntropyEngine> engine;
  std::unique_ptr<InfoCalc> calc;
};

/// Forks `num_shards` engines off `parent` and wraps each in an InfoCalc.
std::vector<EngineShard> MakeEngineShards(const PliEntropyEngine& parent,
                                          int num_shards);

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Exports an engine's counters into an obs registry under the `pli.*`
/// namespace: queries / value_hits / intersections (folds), the probe and
/// last-fold counters (`pli.subset_probe.probes`,
/// `pli.subset_probe.candidates`, `pli.fused.entropies`), the cache
/// counters (hits, misses, insertions, evictions), the
/// `pli.cache.resident_bytes` gauge (high-water across folds), and the
/// `pli.intersect_depth` (fold depth) histogram. Fold ONCE per engine,
/// after its workers' stats are merged — typically right before a bench
/// reports.
void AppendEngineMetrics(const PliEntropyEngine::Stats& stats,
                         obs::MetricsRegistry* registry);

}  // namespace maimon

#endif  // MAIMON_ENTROPY_PLI_ENGINE_H_
