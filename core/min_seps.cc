// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "core/min_seps.h"

#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "entropy/info_calc.h"

namespace maimon {
namespace {

// ---------------------------------------------------------------------------
// Exhaustive size-ascending lattice sweep — the differential-test oracle
// (MinSepsOptions::exhaustive). Complete and exactly-minimal by
// construction, but exponential in the pool width: every emitted row of the
// close walk is pinned against this on the small fixtures.
// ---------------------------------------------------------------------------

void MineExhaustive(FullMvdSearch* search, AttrSet universe, int a, int b,
                    const std::vector<int>& pool, const Deadline* deadline,
                    MinSepsResult* out) {
  const int m = static_cast<int>(pool.size());
  // Size-ascending walk over the candidate lattice with subset pruning: a
  // candidate with a smaller separator inside it is skipped, and any
  // candidate that separates with no smaller separator inside is minimal by
  // construction. No monotonicity of entropic separation is assumed
  // anywhere. The walk is deadline-bounded — wide relations report a
  // partial result with DeadlineExceeded (the paper's red-clock regime).
  for (int k = 0; k <= m; ++k) {
    if (DeadlineExpired(deadline)) {
      out->status = Status::DeadlineExceeded("minimal separator enumeration");
      return;
    }
    // Gosper's hack over m-bit combination masks of size k.
    uint64_t combo = k == 0 ? 0 : (uint64_t{1} << k) - 1;
    while (true) {
      if (DeadlineExpired(deadline)) {
        out->status =
            Status::DeadlineExceeded("minimal separator enumeration");
        return;
      }
      AttrSet candidate;
      for (uint64_t bits = combo; bits != 0; bits &= bits - 1) {
        candidate.Add(pool[static_cast<size_t>(__builtin_ctzll(bits))]);
      }
      bool has_smaller_separator = false;
      for (AttrSet s : out->separators) {
        if (candidate.ContainsAll(s)) {
          has_smaller_separator = true;
          break;
        }
      }
      if (!has_smaller_separator) {
        ++out->stats.oracle_calls;
        if (search->Separates(candidate, universe, a, b)) {
          out->separators.push_back(candidate);
        }
      }
      if (k == 0) break;
      const uint64_t limit = uint64_t{1} << m;
      const uint64_t low = combo & (~combo + 1);
      const uint64_t ripple = combo + low;
      combo = ripple | (((combo ^ ripple) >> 2) / low);
      if (combo >= limit) break;
    }
  }
}

// ---------------------------------------------------------------------------
// Close-separator / neighborhood walk — the default enumeration.
//
// Shape (DESIGN.md "Close-separator walk"): verify once whether the full
// candidate pool separates the pair; if it does, shrink it into the minimal
// separator close to a (every movable attribute pushed onto b's side) and
// the one close to b — the oracle-level analog of the component-
// neighborhood seeds N(C(a)), N(C(b)) of graph minimal-separator
// enumeration. Then expand: every discovered minimal separator S spawns,
// for each x ∈ S, the subproblem of re-blocking the pair without x — the
// walk substitutes x with the neighborhood of the component it shields by
// re-minimizing the pool that avoids x (and every attribute excluded on
// the way down, so distinct separator branches cannot shadow each other).
//
// Soundness never leans on monotonicity: a candidate is emitted only after
// the entropy oracle confirms it separates AND that no single-attribute
// removal still separates, and the final result is reduced to its
// inclusion-minimal antichain. Completeness of the expansion rule is the
// close-separator argument (every minimal separator other than the found
// one must avoid at least one of its attributes); the exhaustive sweep
// stays available as the differential oracle for exactly this claim.
// ---------------------------------------------------------------------------

class CloseSeparatorWalk {
 public:
  CloseSeparatorWalk(FullMvdSearch* search, AttrSet universe, int a, int b,
                     const Deadline* deadline, MinSepsResult* out)
      : search_(search),
        universe_(universe),
        a_(a),
        b_(b),
        deadline_(deadline),
        out_(out),
        pool_(universe.Without(a).Without(b)) {}

  void Run() {
    // Root verification: does the full pool separate at all? A negative
    // answer ends the walk — and is cross-checked against the deadline so
    // an expiry-induced "no" is never reported as a clean empty result.
    Mvd witness;
    if (!Sep(pool_, &witness)) {
      if (DeadlineExpired(deadline_)) Cut();
      return;
    }
    // Component-neighborhood seeds: the minimal separator hugging a (all
    // movable attributes pushed onto b's side) and the one hugging b.
    for (const bool push_to_b : {true, false}) {
      if (DeadlineExpired(deadline_)) {
        Cut();
        return;
      }
      AttrSet seed;
      if (Minimize(pool_, witness, push_to_b, &seed)) {
        if (Emit(seed)) ++out_->stats.seeds;
        EnqueueChildren(AttrSet(), seed);
      } else {
        Cut();
        return;
      }
    }
    // Neighborhood expansion over exclusion sets.
    while (!queue_.empty()) {
      if (DeadlineExpired(deadline_)) {
        Cut();
        return;
      }
      const AttrSet excluded = queue_.front();
      queue_.pop_front();
      if (!ProcessNode(excluded)) {
        Cut();
        return;
      }
    }
    FilterAntichain();
  }

 private:
  struct SepEntry {
    bool separates = false;
    Mvd witness;
  };

  /// Memoized separation oracle. A fresh (key) query costs one
  /// FindWitness; repeats are hash lookups and are not counted as oracle
  /// calls. The memo is sound across the whole walk because the oracle is
  /// a pure function of the key for a fixed (universe, a, b, eps).
  bool Sep(AttrSet key, Mvd* witness) {
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      ++out_->stats.oracle_calls;
      SepEntry entry;
      entry.separates =
          search_->FindWitness(key, universe_, a_, b_, &entry.witness);
      it = memo_.emplace(key, std::move(entry)).first;
    }
    if (witness != nullptr && it->second.separates) {
      *witness = it->second.witness;
    }
    return it->second.separates;
  }

  /// Shrinks `start` (which separates, with `witness` as its split) into a
  /// verified minimal separator. Two phases, repeated to fixpoint:
  ///
  ///   1. witness-guided greedy shrink: moving x from the key onto side V
  ///      re-prices the SAME split exactly — the new witness cost is
  ///      I(V1 ∪ x; V2 | S\x) by the chain rule — so each candidate move is
  ///      one conditional-mutual-information query, no search. `push_to_b`
  ///      picks which side absorbs first (close-to-a vs close-to-b seed).
  ///   2. full-oracle minimality verification: phase 1 follows one witness
  ///      family only, and conditioning can create dependence, so a removal
  ///      it priced out may still separate under a *different* split. Every
  ///      single-attribute removal is therefore re-checked with FindWitness
  ///      (candidates batch-warmed through EntropyEngine::EntropyBatch so
  ///      they share cached labels); any survivor restarts phase 1 from
  ///      the new witness.
  ///
  /// Returns false when the deadline expired mid-shrink — the candidate is
  /// then unverified and the caller must not emit it.
  bool Minimize(AttrSet start, Mvd witness, bool push_to_b, AttrSet* result) {
    const InfoCalc& calc = search_->calc();
    const double bound = search_->epsilon() + FullMvdSearch::kJTolerance;
    AttrSet s = start;
    AttrSet v1 = witness.deps()[0];  // a's side of the current split
    AttrSet v2 = witness.deps()[1];  // b's side
    while (true) {
      // Phase 1: greedy witness-guided shrink to a fixpoint.
      bool moved = true;
      while (moved) {
        moved = false;
        for (int x : s.ToVector()) {
          if (DeadlineExpired(deadline_)) return false;
          const AttrSet rest = s.Without(x);
          const double cost_first =
              push_to_b ? calc.CondMutualInfo(v1, v2.Plus(x), rest)
                        : calc.CondMutualInfo(v1.Plus(x), v2, rest);
          if (cost_first <= bound) {
            if (push_to_b) v2.Add(x); else v1.Add(x);
            s = rest;
            moved = true;
            continue;
          }
          const double cost_second =
              push_to_b ? calc.CondMutualInfo(v1.Plus(x), v2, rest)
                        : calc.CondMutualInfo(v1, v2.Plus(x), rest);
          if (cost_second <= bound) {
            if (push_to_b) v1.Add(x); else v2.Add(x);
            s = rest;
            moved = true;
          }
        }
      }
      // Phase 2: per-candidate minimality verification with the full
      // oracle. Batch-warm every removal key first so the verification
      // FindWitness calls start from cached labels.
      WarmRemovalKeys(s);
      bool dropped = false;
      for (int x : s.ToVector()) {
        if (DeadlineExpired(deadline_)) return false;
        Mvd w;
        if (Sep(s.Without(x), &w)) {
          s = s.Without(x);
          v1 = w.deps()[0];
          v2 = w.deps()[1];
          dropped = true;
          break;
        }
      }
      if (!dropped) {
        // A clean pass means every removal was genuinely refuted — unless
        // the clock ran out mid-loop, in which case a refutation may be
        // expiry-induced (Find aborts its DFS and reports "no witness").
        // Such a candidate is unverified and must not be emitted.
        if (DeadlineExpired(deadline_)) return false;
        *result = s;
        return true;
      }
    }
  }

  /// Stages the labels of every single-attribute removal of `s` in one
  /// engine pass (EntropyBatch orders by width so shared prefixes land in
  /// cache before the queries that extend them).
  void WarmRemovalKeys(AttrSet s) {
    if (s.Count() < 2) return;
    std::vector<AttrSet> keys;
    keys.reserve(static_cast<size_t>(s.Count()));
    for (int x : s.ToVector()) keys.push_back(s.Without(x));
    search_->calc().engine()->EntropyBatch(keys);
  }

  /// One expansion node: find (or reuse) a minimal separator avoiding
  /// `excluded` and branch on each of its attributes. Returns false only on
  /// deadline expiry.
  bool ProcessNode(AttrSet excluded) {
    ++out_->stats.expansions;
    // Reuse rule: any already-discovered separator disjoint from the
    // exclusion set carries this node — the branch argument only needs
    // *some* minimal separator avoiding `excluded`, and reusing one costs
    // zero oracle calls.
    for (AttrSet s : out_->separators) {
      if (!s.Intersects(excluded)) {
        EnqueueChildren(excluded, s);
        return true;
      }
    }
    const AttrSet base = pool_.Minus(excluded);
    Mvd witness;
    if (!Sep(base, &witness)) {
      // No separator avoids `excluded` (or the clock ran out mid-check —
      // the caller's deadline poll sorts the two apart).
      return !DeadlineExpired(deadline_);
    }
    AttrSet s;
    if (!Minimize(base, witness, /*push_to_b=*/true, &s)) return false;
    Emit(s);
    EnqueueChildren(excluded, s);
    return true;
  }

  void EnqueueChildren(AttrSet excluded, AttrSet separator) {
    for (int x : separator.ToVector()) {
      const AttrSet child = excluded.Plus(x);
      if (visited_.insert(child).second) queue_.push_back(child);
    }
  }

  /// Dedup by set; true when `s` is new.
  bool Emit(AttrSet s) {
    if (!emitted_.insert(s).second) return false;
    out_->separators.push_back(s);
    return true;
  }

  /// Belt and braces for the no-monotonicity contract: each emitted set is
  /// single-removal minimal, but if separation were non-monotone a deeper
  /// subset discovered later could still reveal an earlier emission as
  /// non-minimal. Keep exactly the inclusion-minimal antichain — the set
  /// the exhaustive sweep emits.
  void FilterAntichain() {
    std::vector<AttrSet> keep;
    keep.reserve(out_->separators.size());
    for (AttrSet s : out_->separators) {
      bool has_proper_subset = false;
      for (AttrSet t : out_->separators) {
        if (t != s && s.ContainsAll(t)) {
          has_proper_subset = true;
          break;
        }
      }
      if (!has_proper_subset) keep.push_back(s);
    }
    out_->separators = std::move(keep);
  }

  void Cut() {
    out_->status = Status::DeadlineExceeded("minimal separator enumeration");
    FilterAntichain();  // the partial result keeps the antichain contract
  }

  FullMvdSearch* search_;
  const AttrSet universe_;
  const int a_;
  const int b_;
  const Deadline* deadline_;
  MinSepsResult* out_;
  const AttrSet pool_;

  std::unordered_map<AttrSet, SepEntry, AttrSetHash> memo_;
  std::unordered_set<AttrSet, AttrSetHash> emitted_;
  std::unordered_set<AttrSet, AttrSetHash> visited_;  // exclusion sets seen
  std::deque<AttrSet> queue_;                         // exclusion sets to expand
};

}  // namespace

MinSepsResult MineMinSeps(FullMvdSearch* search, AttrSet universe, int a,
                          int b, const Deadline* deadline,
                          const MinSepsOptions& options) {
  MinSepsResult out;
  if (options.exhaustive) {
    const std::vector<int> pool = universe.Without(a).Without(b).ToVector();
    const int m = static_cast<int>(pool.size());
    if (m > kMaxSeparatorPoolWidth) {
      out.status = Status::InvalidArgument(
          "separator pool of " + std::to_string(m) +
          " attributes exceeds the " + std::to_string(kMaxSeparatorPoolWidth) +
          "-attribute limit of the 64-bit combination walk");
      return out;
    }
    MineExhaustive(search, universe, a, b, pool, deadline, &out);
    return out;
  }
  CloseSeparatorWalk walk(search, universe, a, b, deadline, &out);
  walk.Run();
  return out;
}

}  // namespace maimon
