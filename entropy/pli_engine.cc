// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "entropy/pli_engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/metrics.h"

namespace maimon {

PliSharedCore::PliSharedCore(const Relation& relation,
                             PliEngineOptions options)
    : relation_(&relation), options_(options) {
  if (options_.block_size < 1) options_.block_size = 1;
  singles_.reserve(static_cast<size_t>(relation.NumCols()));
  single_entropy_.reserve(static_cast<size_t>(relation.NumCols()));
  for (int c = 0; c < relation.NumCols(); ++c) {
    // LabelRows hashes the codes, so sparse codes cost no domain-sized
    // array.
    singles_.push_back(LabelRows(relation, AttrSet::Single(c)));
    // Single-column H is queried by every MvdMeasure: precompute it here
    // rather than burning evictable memo slots on it.
    single_entropy_.push_back(LabelEntropy(singles_.back()));
  }
}

size_t EntropyMemo::Probe(uint64_t key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = AttrSetHash{}(AttrSet(key)) & mask;
  while (slots_[i].key != 0 && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

bool EntropyMemo::Find(AttrSet key, double* h) const {
  // Mask 0 probes to the first free slot: the empty set is never found.
  if (slots_.empty()) return false;
  const Slot& slot = slots_[Probe(key.bits())];
  if (slot.key == 0) return false;
  *h = slot.value;
  return true;
}

void EntropyMemo::Insert(AttrSet key, double h) {
  if (key.Empty()) return;
  if (!slots_.empty()) {
    Slot& slot = slots_[Probe(key.bits())];
    if (slot.key == key.bits() || 2 * (size_ + 1) <= slots_.size()) {
      if (slot.key == 0) ++size_;
      slot = Slot{key.bits(), h};
      return;
    }
  }
  // A new key would pass half load: grow, or at the bound start over.
  // Every value is exact, so dropping them costs recomputation, never a
  // different answer.
  if (slots_.size() == kMaxSlots) {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  } else {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), Slot{});
    for (const Slot& slot : old) {
      if (slot.key != 0) slots_[Probe(slot.key)] = slot;
    }
  }
  slots_[Probe(key.bits())] = Slot{key.bits(), h};
  ++size_;
}

PliEntropyEngine::PliEntropyEngine(const Relation& relation,
                                   PliEngineOptions options)
    : core_(std::make_shared<PliSharedCore>(relation, options)),
      cache_(std::make_shared<PliCache>(
          core_->options().cache_capacity_bytes)) {}

PliEntropyEngine::PliEntropyEngine(std::shared_ptr<const PliSharedCore> core,
                                   std::shared_ptr<PliCache> cache)
    : core_(std::move(core)), cache_(std::move(cache)) {}

std::unique_ptr<PliEntropyEngine> PliEntropyEngine::Fork() const {
  return std::unique_ptr<PliEntropyEngine>(
      new PliEntropyEngine(core_, cache_));
}

void PliEntropyEngine::MergeStats(const PliEntropyEngine& worker) {
  MergeStats(worker.stats());
}

void PliEntropyEngine::MergeStats(const Stats& delta) {
  // AccumulateCounters skips cache.bytes: a resident gauge of the shared
  // cache, not a counter — stats() reads it off the cache directly.
  stats_.AccumulateCounters(delta);
}

double PliEntropyEngine::Entropy(AttrSet attrs) {
  ++stats_.queries;
  const Relation& relation = core_->relation();
  const PliEngineOptions& options = core_->options();
  if (attrs.Empty() || relation.NumRows() == 0) return 0.0;
  assert(relation.Universe().ContainsAll(attrs));

  // Single attribute: precomputed at construction, never evicted — and
  // never memoized, so probe the array before the memo hash lookup.
  if (attrs.Count() == 1) {
    return core_->SingleEntropy(attrs.First());
  }

  double memoized = 0.0;
  if (memo_.Find(attrs, &memoized)) {
    ++stats_.value_hits;
    return memoized;
  }

  // Exact-labels probe — the accounted hit/miss event: a hit means the
  // cache served this attribute set outright, a miss means folds follow.
  if (PliCache::LabelsRef exact = cache_->Get(attrs, &stats_.cache)) {
    stats_.ObserveDepth(0);
    const double h = LabelEntropy(*exact);
    memo_.Insert(attrs, h);
    return h;
  }

  // Stage 1: best cached starting point via the cache's width index. `cur`
  // aliases either a pinned cache resident (`held` keeps it alive under
  // concurrent eviction) or a single column's labels; it is only read until
  // the first fold.
  AttrSet have;
  PliCache::LabelsRef held;
  const RowLabels* cur = nullptr;
  ++stats_.subset_probes;
  held = cache_->BestSubset(attrs, &have, &stats_.subset_probe_candidates);
  if (held != nullptr) cur = held.get();
  if (cur == nullptr) {
    // Nothing cached applies: start from a single column's labels.
    const int first = attrs.First();
    have = AttrSet::Single(first);
    cur = &core_->Single(first);
  }

  stats_.ObserveDepth(attrs.Minus(have).Count());

  // Stage 2: fold in the missing attributes one column at a time, staging
  // block-sized intermediates into the LRU cache so later queries that share
  // the prefix start further along. `local` tracks which engine-owned buffer
  // (if any) currently backs `cur`, so the tail staging below can move it
  // out without a const_cast.
  double h = 0.0;
  bool h_from_fold = false;
  RowLabels* local = nullptr;
  const std::vector<int> missing = attrs.Minus(have).ToVector();
  for (size_t i = 0; i < missing.size(); ++i) {
    const int c = missing[i];
    // Ping-pong between the two fold buffers: the chain's k folds reuse
    // two allocations (resize() keeps capacity), and a buffer donated to
    // the cache by the staging Put below simply re-grows on its next turn.
    RowLabels* out = (cur == &fold_bufs_[0]) ? &fold_bufs_[1] : &fold_bufs_[0];
    const double fold_h =
        FoldLabels(*cur, core_->Single(c), &fold_scratch_, out);
    if (i + 1 == missing.size()) {
      h = fold_h;
      h_from_fold = true;
      ++stats_.fused_entropies;
    }
    local = out;
    ++stats_.intersections;
    have.Add(c);
    cur = local;
    held.reset();  // previous pin no longer read
    if (have.Count() <= options.block_size && have != attrs &&
        local->MemoryBytes() <= cache_->capacity_bytes()) {
      // Put cannot reject (capacity pre-checked, and shrinking inside Put
      // only lowers the cost), so the labels may be moved into the cache
      // and `cur` re-pointed at the resident (pinned) copy.
      held = cache_->Put(have, std::move(*local), &stats_.cache);
      assert(held != nullptr);
      cur = held.get();
      local = nullptr;
    }
  }

  // The last fold already produced H; the only other way here (a
  // BestSubset race that returned `attrs` itself) counts the labels once.
  if (!h_from_fold) h = LabelEntropy(*cur);
  // The full query's labels are also worth staging when narrow enough:
  // MVDMiner re-queries supersets of them immediately.
  if (attrs.Count() <= options.block_size && local != nullptr &&
      local->MemoryBytes() <= cache_->capacity_bytes()) {
    cache_->Put(attrs, std::move(*local), &stats_.cache);
  }
  memo_.Insert(attrs, h);
  return h;
}

std::vector<double> PliEntropyEngine::EntropyBatch(
    const std::vector<AttrSet>& queries) {
  // Ascending-width schedule: a narrow query's labels are staged into the
  // LRU before the wider queries that extend it run, so the batch shares
  // prefix work. Index tiebreak keeps the schedule deterministic; the value
  // memo makes answering in scheduled order equivalent to input order.
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t lhs, size_t rhs) {
    const int cl = queries[lhs].Count();
    const int cr = queries[rhs].Count();
    if (cl != cr) return cl < cr;
    if (queries[lhs].bits() != queries[rhs].bits()) {
      return queries[lhs].bits() < queries[rhs].bits();
    }
    return lhs < rhs;
  });
  std::vector<double> out(queries.size());
  for (size_t i : order) out[i] = Entropy(queries[i]);
  return out;
}

PliEntropyEngine::Stats PliEntropyEngine::stats() const {
  Stats s = stats_;
  s.cache.bytes = cache_->bytes();  // resident gauge of the shared cache
  return s;
}

void AppendEngineMetrics(const PliEntropyEngine::Stats& stats,
                         obs::MetricsRegistry* registry) {
  registry->Count("pli.queries", stats.queries);
  registry->Count("pli.value_hits", stats.value_hits);
  registry->Count("pli.intersections", stats.intersections);
  registry->Count("pli.subset_probe.probes", stats.subset_probes);
  registry->Count("pli.subset_probe.candidates", stats.subset_probe_candidates);
  registry->Count("pli.fused.entropies", stats.fused_entropies);
  registry->Count("pli.cache.hits", stats.cache.hits);
  registry->Count("pli.cache.misses", stats.cache.misses);
  registry->Count("pli.cache.insertions", stats.cache.insertions);
  registry->Count("pli.cache.evictions", stats.cache.evictions);
  registry->GaugeMax("pli.cache.resident_bytes",
                     static_cast<int64_t>(stats.cache.bytes));
  for (int depth = 0; depth < PliEntropyEngine::Stats::kDepthBuckets;
       ++depth) {
    if (stats.depth_hist[depth] != 0) {
      registry->Observe("pli.intersect_depth", static_cast<uint64_t>(depth),
                        stats.depth_hist[depth]);
    }
  }
}

std::vector<EngineShard> MakeEngineShards(const PliEntropyEngine& parent,
                                          int num_shards) {
  // Every shard shares THE cache — the full byte budget, not a 1/n slice.
  std::vector<EngineShard> shards(static_cast<size_t>(std::max(1, num_shards)));
  for (EngineShard& shard : shards) {
    shard.engine = parent.Fork();
    shard.calc = std::make_unique<InfoCalc>(shard.engine.get());
  }
  return shards;
}

}  // namespace maimon
