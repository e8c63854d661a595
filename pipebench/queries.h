// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The benchmark's query side: the seeded five-class query mix, and the
// reference answers every served answer is checked against.
//
//   point        one projection's attributes + an equality on one of its
//                columns (the service's point-lookup fast path);
//   scan         one attribute, no selection;
//   pair_eq      two attributes + an equality on any attribute;
//   triple_range three attributes + a range over half of one domain;
//   full         every attribute + one equality (no pruning possible).
//
// The classes are drawn in equal shares (kMix): the four-way mix of
// bench/bench_serve_qps plus `full` at the same weight. Half of all
// queries are count-only. Query shapes (class, attributes, selection
// attribute) follow a fixed sequence and the seed draws the selection
// constants, so every seed runs the same mix of cheap and expensive
// shapes.
//
// A QueryPool holds the distinct queries drawn from a seed and the
// sequence of pool indices the closed loop replays: every client claims
// the next position from one shared cursor, so a run executes a prefix of
// the same sequence at any client count. The sequence opens with a warm-up
// prefix of point queries that visits every (projection, column) pair in
// turn, so the lazy point indexes a set-up builds are the same at every
// seed.
//
// A Reference is the full, unpruned YannakakisExecutor join of a store,
// materialized once. Evaluate() filters, projects and deduplicates it
// directly, so it shares no code with the service's planner, pushdown or
// point indexes. Answers compare by distinct row count plus an
// order-independent hash (the sum of per-row hashes) of the rows.

#ifndef PIPEBENCH_QUERIES_H_
#define PIPEBENCH_QUERIES_H_

#include <array>
#include <cstdint>
#include <vector>

#include "decomp/projection_store.h"
#include "serve/planner.h"
#include "serve/service.h"
#include "util/status.h"

namespace pipebench {

enum QueryClass : uint8_t { kPoint, kScan, kPairEq, kTripleRange, kFull };
constexpr int kNumClasses = 5;
const char* ClassName(int cls);

/// Relative draw weights, in QueryClass order (recorded in spec.json).
using MixWeights = std::array<int, kNumClasses>;
constexpr MixWeights kMix = {1, 1, 1, 1, 1};

struct QueryPool {
  std::vector<maimon::serve::Query> queries;  // distinct
  std::vector<uint8_t> classes;               // QueryClass per entry
  std::vector<uint32_t> sequence;             // pool indices, replay order
  size_t warmup = 0;                          // length of the warm-up prefix

  /// The pool entry at loop position `index`. Past the end of the
  /// sequence the loop wraps to the first position after the warm-up.
  size_t At(uint64_t index) const {
    if (index < warmup) return sequence[index];
    return sequence[warmup + (index - warmup) % (sequence.size() - warmup)];
  }
};

/// The sequence is `warmup` point queries (see the file comment), then
/// `draws` queries drawn from kMix over `store`'s attributes and domains,
/// continued by uniform re-draws among those draws up to `sequence_length`
/// positions: with `draws` >= `sequence_length - warmup` every position is
/// drawn fresh, with fewer draws a small set of queries is replayed in the
/// mix's proportions. Duplicates share one pool entry. Deterministic in
/// `seed`, which draws only the selection constants.
QueryPool MakeQueryPool(const maimon::ProjectionStore& store, uint64_t seed,
                        size_t warmup, size_t draws, size_t sequence_length);

struct Answer {
  uint64_t rows = 0;
  uint64_t hash = 0;  // sum of row hashes; 0 for count-only results
};

/// Rows and hash of a served result (tuples are in ascending-attribute
/// order, which is also the reference's projection order).
Answer AnswerOf(const maimon::serve::QueryResult& result);

class Reference {
 public:
  /// Materializes the full join of `store` with a fresh executor.
  static maimon::Status Build(const maimon::ProjectionStore& store,
                              Reference* out);

  /// The distinct projection of the selected join rows.
  Answer Evaluate(const maimon::serve::Query& query) const;

  size_t join_rows() const { return rows_; }

 private:
  std::vector<int> columns_;                  // ascending attributes
  std::vector<std::vector<uint32_t>> data_;   // column-major join rows
  size_t rows_ = 0;
};

}  // namespace pipebench

#endif  // PIPEBENCH_QUERIES_H_
