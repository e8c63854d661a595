// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// EntropyEngine: the one-method interface every mining layer talks to.
// H(X) for an attribute set X of the bound relation, in bits. Two
// implementations exist: NaiveEntropyEngine (full-scan group-by per query,
// the correctness oracle) and PliEntropyEngine (row labels folded from
// cached subsets, Sec. 6.3 — the one that makes MVDMiner feasible).

#ifndef MAIMON_ENTROPY_ENTROPY_ENGINE_H_
#define MAIMON_ENTROPY_ENTROPY_ENGINE_H_

#include <cstdint>
#include <vector>

#include "util/attr_set.h"

namespace maimon {

class EntropyEngine {
 public:
  virtual ~EntropyEngine() = default;

  /// Shannon entropy H(X) in bits of the projection onto `attrs`.
  /// H({}) == 0 by convention.
  virtual double Entropy(AttrSet attrs) = 0;

  /// Batch entry point: H(X) for every set in `queries`, returned in input
  /// order. Implementations may schedule the batch so related queries share
  /// work (the PLI engine computes ascending by width, so shared prefix
  /// labels are cached before the queries that extend them ask); the
  /// base implementation is a plain loop. The close-separator walk drives
  /// its candidate verification through this so one expansion round shares
  /// cached labels instead of re-deriving each key's chain.
  virtual std::vector<double> EntropyBatch(const std::vector<AttrSet>& queries) {
    std::vector<double> out;
    out.reserve(queries.size());
    for (AttrSet q : queries) out.push_back(Entropy(q));
    return out;
  }

  /// Total entropy queries answered (cache hits included).
  virtual uint64_t NumQueries() const = 0;
};

}  // namespace maimon

#endif  // MAIMON_ENTROPY_ENTROPY_ENGINE_H_
