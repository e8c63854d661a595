// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "queries.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "decomp/yannakakis.h"
#include "util/rng.h"

namespace pipebench {
namespace {

using maimon::AttrSet;
using maimon::serve::Query;
using maimon::serve::Selection;

uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t RowHash(const uint32_t* values, size_t n) {
  uint64_t h = Mix(n);
  for (size_t i = 0; i < n; ++i) h = Mix(h ^ values[i]);
  return h;
}

// Identity of a query for pool deduplication.
std::string KeyOf(const Query& q) {
  std::string key = std::to_string(q.attrs.bits());
  for (const Selection& s : q.selections) {
    key += '|' + std::to_string(s.attr) + ':' + std::to_string(s.lo) + '-' +
           std::to_string(s.hi);
  }
  key += q.count_only ? "|c" : "|m";
  return key;
}

}  // namespace

const char* ClassName(int cls) {
  static const char* const kNames[kNumClasses] = {"point", "scan", "pair_eq",
                                                  "triple_range", "full"};
  return kNames[cls];
}

QueryPool MakeQueryPool(const maimon::ProjectionStore& store, uint64_t seed,
                        size_t warmup, size_t draws, size_t sequence_length) {
  AttrSet universe;
  std::map<int, uint32_t> domain;
  for (const maimon::StoredProjection& p : store.projections()) {
    universe = universe.Union(p.attrs);
    for (size_t i = 0; i < p.columns.size(); ++i) {
      domain[p.columns[i]] = std::max<uint32_t>(1, p.domains[i]);
    }
  }
  const std::vector<int> attrs = universe.ToVector();
  const size_t n = attrs.size();
  int total = 0;
  for (int w : kMix) total += w;

  // A query's shape (class, attributes, selection attribute, count-only)
  // comes from a fixed generator, as bench/bench_serve_qps fixes its whole
  // workload: every seed runs the same shapes in the same order, so the
  // share of cheap and expensive shapes, and with it the pooled median,
  // does not move with the seed. The seed draws every selection constant.
  maimon::Rng shape_rng(0x5eed5);
  maimon::Rng value_rng(seed * 0x9e3779b97f4a7c15ULL + 0x51ed27);
  const auto any_attr = [&] { return attrs[shape_rng.Uniform(n)]; };
  const auto value_of = [&](int a) {
    return static_cast<uint32_t>(value_rng.Uniform(domain[a]));
  };
  // `k` distinct attributes (all of them when the universe is narrower).
  const auto distinct_attrs = [&](size_t k) {
    AttrSet out;
    while (static_cast<size_t>(out.Count()) < std::min(k, n)) {
      out.Add(any_attr());
    }
    return out;
  };

  // Classes with a small shape space are dealt from a shuffle of the whole
  // space, cyclically, with the count-only flag alternating per pass, so
  // they cover it evenly; pair_eq and triple_range draw their shapes.
  std::vector<std::pair<size_t, int>> columns;  // (projection, column)
  for (size_t p = 0; p < store.NumProjections(); ++p) {
    for (int a : store.projections()[p].columns) columns.emplace_back(p, a);
  }
  std::vector<std::pair<size_t, int>> point_deck = columns;
  std::vector<int> attr_deck[2] = {attrs, attrs};  // scan, full
  const auto shuffle = [&](auto* deck) {
    for (size_t i = deck->size(); i > 1; --i) {
      std::swap((*deck)[i - 1], (*deck)[shape_rng.Uniform(i)]);
    }
  };
  shuffle(&point_deck);
  shuffle(&attr_deck[0]);
  shuffle(&attr_deck[1]);

  QueryPool pool;
  pool.warmup = warmup;
  pool.sequence.reserve(sequence_length);
  std::map<std::string, uint32_t> seen;
  const auto intern = [&](Query q, int cls) {
    const auto [it, inserted] =
        seen.emplace(KeyOf(q), static_cast<uint32_t>(pool.queries.size()));
    if (inserted) {
      pool.queries.push_back(std::move(q));
      pool.classes.push_back(static_cast<uint8_t>(cls));
    }
    return it->second;
  };

  // The warm-up prefix walks the (projection, column) pairs in store order.
  for (size_t i = 0; i < warmup; ++i) {
    const auto [p, a] = columns[i % columns.size()];
    Query q;
    q.count_only = i % 2 == 0;
    q.attrs = store.projections()[p].attrs;
    q.selections.push_back(Selection::Eq(a, value_of(a)));
    pool.sequence.push_back(intern(std::move(q), kPoint));
  }

  int credit[kNumClasses] = {};
  uint64_t drawn_of_class[kNumClasses] = {};
  std::vector<uint32_t> drawn;
  drawn.reserve(draws);
  for (size_t i = 0; i < draws; ++i) {
    // Classes follow a smooth weighted round-robin rather than random
    // draws, so every prefix of the draws holds the classes in the mix's
    // proportions.
    int cls = 0;
    for (int c = 0; c < kNumClasses; ++c) {
      credit[c] += kMix[static_cast<size_t>(c)];
      if (credit[c] > credit[cls]) cls = c;
    }
    credit[cls] -= total;
    const uint64_t k = drawn_of_class[cls]++;
    Query q;
    q.count_only = k % 2 == 0;
    const auto deal = [&](const auto& deck) {
      q.count_only = (k % deck.size() + k / deck.size()) % 2 == 0;
      return deck[k % deck.size()];
    };
    switch (cls) {
      case kPoint: {
        const auto [p, a] = deal(point_deck);
        q.attrs = store.projections()[p].attrs;
        q.selections.push_back(Selection::Eq(a, value_of(a)));
        break;
      }
      case kScan:
        q.attrs = AttrSet::Single(deal(attr_deck[0]));
        break;
      case kPairEq: {
        q.attrs = distinct_attrs(2);
        const int a = any_attr();
        q.selections.push_back(Selection::Eq(a, value_of(a)));
        break;
      }
      case kTripleRange: {
        q.attrs = distinct_attrs(3);
        const int a = any_attr();
        const uint32_t half = std::max<uint32_t>(1, domain[a] / 2);
        const uint32_t lo =
            static_cast<uint32_t>(value_rng.Uniform(domain[a] - half + 1));
        q.selections.push_back(Selection::Range(a, lo, lo + half - 1));
        break;
      }
      default: {
        const int a = deal(attr_deck[1]);
        q.attrs = universe;
        q.selections.push_back(Selection::Eq(a, value_of(a)));
        break;
      }
    }
    drawn.push_back(intern(std::move(q), cls));
  }

  // The draws in order, then uniform re-draws among them (not among the
  // distinct entries, which would over-weight classes with many distinct
  // queries), so every stretch of the sequence follows the mix. The
  // re-draws are shapes too: fixed positions at every seed.
  for (size_t i = 0; pool.sequence.size() < sequence_length; ++i) {
    pool.sequence.push_back(
        i < drawn.size() ? drawn[i] : drawn[shape_rng.Uniform(drawn.size())]);
  }
  return pool;
}

Answer AnswerOf(const maimon::serve::QueryResult& result) {
  Answer out;
  out.rows = result.rows;
  for (const std::vector<uint32_t>& row : result.tuples) {
    out.hash += RowHash(row.data(), row.size());
  }
  return out;
}

maimon::Status Reference::Build(const maimon::ProjectionStore& store,
                                Reference* out) {
  maimon::YannakakisExecutor executor(store);
  maimon::YannakakisOptions options;
  options.materialize = true;
  const maimon::JoinResult join = executor.Execute(options);
  if (!join.status.ok()) return join.status;
  out->columns_ = join.columns;
  out->rows_ = join.tuples.size();
  out->data_.assign(join.columns.size(), std::vector<uint32_t>(out->rows_));
  for (size_t r = 0; r < out->rows_; ++r) {
    for (size_t c = 0; c < join.columns.size(); ++c) {
      out->data_[c][r] = join.tuples[r][c];
    }
  }
  return maimon::Status::Ok();
}

Answer Reference::Evaluate(const Query& query) const {
  const auto slot_of = [&](int attr) {
    return static_cast<size_t>(
        std::lower_bound(columns_.begin(), columns_.end(), attr) -
        columns_.begin());
  };
  std::vector<const std::vector<uint32_t>*> projected;
  for (int a : query.attrs.ToVector()) projected.push_back(&data_[slot_of(a)]);
  std::vector<std::pair<const std::vector<uint32_t>*, Selection>> filters;
  for (const Selection& s : query.selections) {
    filters.emplace_back(&data_[slot_of(s.attr)], s);
  }

  std::vector<uint64_t> hashes;
  std::vector<uint32_t> row(projected.size());
  for (size_t r = 0; r < rows_; ++r) {
    bool keep = true;
    for (const auto& [column, sel] : filters) keep &= sel.Matches((*column)[r]);
    if (!keep) continue;
    for (size_t k = 0; k < projected.size(); ++k) row[k] = (*projected[k])[r];
    hashes.push_back(RowHash(row.data(), row.size()));
  }
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());

  Answer out;
  out.rows = hashes.size();
  for (uint64_t h : hashes) out.hash += h;
  return out;
}

}  // namespace pipebench
