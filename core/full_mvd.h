// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// FullMvdSearch: given a key (separator candidate) and a pinned attribute
// pair (a, b), enumerate the full MVDs key ->> V1 | V2 with a in V1, b in
// V2 and J = I(V1;V2|key) <= eps. Two variants, matching the paper's
// App. 12.3 ablation:
//
//   getFullMVDs     — plain branch-and-bound over side assignments, pruned
//                     by the monotonicity I(V1;V2|key) <= I(V1';V2'|key)
//                     for V1 ⊆ V1', V2 ⊆ V2';
//   getFullMVDsOpt  — first contracts the free attributes to pairwise-
//                     consistent super-attributes: x with I(x;b|key) > eps
//                     is forced to b's side (and symmetrically), and pairs
//                     with I(x;y|key) > eps are glued together. The search
//                     then runs over the contracted items, which the paper
//                     credits with "a significant reduction in the search
//                     space".

#ifndef MAIMON_CORE_FULL_MVD_H_
#define MAIMON_CORE_FULL_MVD_H_

#include <cstdint>
#include <vector>

#include "core/mvd.h"
#include "entropy/info_calc.h"
#include "util/stopwatch.h"

namespace maimon {

class FullMvdSearch {
 public:
  /// Absolute slack added to every threshold comparison: H() is a sum of
  /// thousands of log terms, so an exactly-zero J evaluates to ~1e-13 of
  /// cancellation noise. 1e-9 bits is far below any meaningful eps and
  /// keeps eps = 0 mining exact in practice.
  static constexpr double kJTolerance = 1e-9;

  struct SearchStats {
    uint64_t nodes_pushed = 0;   // assignments explored
    uint64_t j_evaluations = 0;  // I(·;·|key) computations issued
  };

  /// `deadline` may be nullptr (no budget) and must outlive the search.
  FullMvdSearch(const InfoCalc& calc, double epsilon, const Deadline* deadline)
      : calc_(&calc), epsilon_(epsilon), deadline_(deadline) {}

  /// The contraction ("agreement") structure of one (key, a, b) query: the
  /// pairwise-consistent super-attributes getFullMVDsOpt searches over.
  /// Exposed as the oracle-level component view of a candidate key —
  /// `a_side`/`b_side` are the clusters glued to the pinned attributes,
  /// `free_clusters` the contracted items still free to pick a side of
  /// the split; an infeasible agreement refutes separation before any
  /// side-assignment search runs. Differential tests pin its verdicts
  /// against Separates.
  struct SideAgreement {
    bool feasible = true;       // false when a and b are forced together
    bool deadline_hit = false;  // contraction cut short; clusters unusable
    AttrSet a_side;             // a plus everything glued to it
    AttrSet b_side;             // b plus everything glued to it
    std::vector<AttrSet> free_clusters;  // remaining contracted items
  };

  /// Enumerates up to `max_results` full MVDs over `universe` with the given
  /// key and pinned pair. Stats are reset per call. On deadline expiry the
  /// partial result collected so far is returned. `max_results` = 0 issues
  /// no query.
  std::vector<Mvd> Find(AttrSet key, AttrSet universe, int a, int b,
                        size_t max_results = SIZE_MAX, bool optimized = true);

  /// True iff `key` separates a and b at the current threshold, i.e. at
  /// least one full MVD exists. Cheaper than Find(...).size() only in that
  /// it stops at the first witness.
  bool Separates(AttrSet key, AttrSet universe, int a, int b);

  /// Separates plus the witness: when `key` separates, writes the first
  /// full MVD found into `*witness` (deps()[0] contains a, deps()[1]
  /// contains b) and returns true. `witness` may be nullptr.
  bool FindWitness(AttrSet key, AttrSet universe, int a, int b, Mvd* witness);

  /// Computes the pairwise-consistency contraction for (key, a, b) without
  /// running the side-assignment search. Unlike Find, stats are NOT reset —
  /// the J evaluations accumulate into the enclosing call's counters.
  SideAgreement AgreementClusters(AttrSet key, AttrSet universe, int a, int b);

  const SearchStats& stats() const { return stats_; }
  double epsilon() const { return epsilon_; }
  const InfoCalc& calc() const { return *calc_; }
  const Deadline* deadline() const { return deadline_; }

 private:
  double MeasureJ(AttrSet v1, AttrSet v2, AttrSet key) {
    ++stats_.j_evaluations;
    return calc_->CondMutualInfo(v1, v2, key);
  }

  void Dfs(const std::vector<AttrSet>& items, size_t next, AttrSet v1,
           AttrSet v2, AttrSet key, size_t max_results,
           std::vector<Mvd>* out);

  const InfoCalc* calc_;
  double epsilon_;
  const Deadline* deadline_;
  SearchStats stats_;
};

}  // namespace maimon

#endif  // MAIMON_CORE_FULL_MVD_H_
