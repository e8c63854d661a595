// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Cross-checks for the maximal-independent-set enumeration against brute
// force on small random instances: every emitted set is independent and
// maximal, and the enumeration is complete and duplicate-free.

#include <algorithm>
#include <set>
#include <vector>

#include "graph/mis.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace maimon {
namespace {

// --- maximal independent sets ---------------------------------------------

bool IsIndependent(const Graph& g, uint64_t mask) {
  for (int u = 0; u < g.NumVertices(); ++u) {
    if (!((mask >> u) & 1)) continue;
    for (int v = u + 1; v < g.NumVertices(); ++v) {
      if (((mask >> v) & 1) && g.HasEdge(u, v)) return false;
    }
  }
  return true;
}

std::set<uint64_t> BruteMis(const Graph& g) {
  const int n = g.NumVertices();
  std::vector<uint64_t> independent;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    if (IsIndependent(g, mask)) independent.push_back(mask);
  }
  std::set<uint64_t> maximal;
  for (uint64_t mask : independent) {
    bool is_maximal = true;
    for (uint64_t other : independent) {
      if (other != mask && (other & mask) == mask) {
        is_maximal = false;
        break;
      }
    }
    if (is_maximal) maximal.insert(mask);
  }
  return maximal;
}

TEST_CASE(MisMatchesBruteForce) {
  Rng rng(11);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = 2 + static_cast<int>(rng.Uniform(11));  // 2..12 vertices
    const double density = rng.NextDouble();
    Graph g(n);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (rng.Bernoulli(density)) g.AddEdge(i, j);
      }
    }
    std::set<uint64_t> emitted;
    bool duplicates = false;
    EnumerateMaximalIndependentSets(g, [&](const VertexSet& s) {
      uint64_t mask = 0;
      s.ForEach([&](int v) { mask |= uint64_t{1} << v; });
      duplicates |= !emitted.insert(mask).second;
      return true;
    });
    CHECK(!duplicates);
    CHECK_EQ(emitted, BruteMis(g));
  }
}

TEST_CASE(MisPivotStressOn12VertexGraphs) {
  // graph/mis.h is load-bearing for ASMiner (the conflict-graph pipeline
  // consumes every maximal independent set): cross-check the pivoting
  // enumerator against brute force on fixed-size 12-vertex instances
  // across the full density range, verifying independence and maximality
  // of every emitted set, duplicate-freeness, and completeness.
  Rng rng(17);
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 12;
    const double density = static_cast<double>(trial % 8) / 7.0;
    Graph g(n);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (rng.Bernoulli(density)) g.AddEdge(i, j);
      }
    }
    std::set<uint64_t> emitted;
    bool all_valid = true;
    bool duplicates = false;
    EnumerateMaximalIndependentSets(g, [&](const VertexSet& s) {
      uint64_t mask = 0;
      s.ForEach([&](int v) { mask |= uint64_t{1} << v; });
      if (!IsIndependent(g, mask)) all_valid = false;
      for (int v = 0; v < n; ++v) {  // maximal: no vertex can be added
        if (!((mask >> v) & 1) &&
            IsIndependent(g, mask | (uint64_t{1} << v))) {
          all_valid = false;
        }
      }
      duplicates |= !emitted.insert(mask).second;
      return true;
    });
    CHECK(all_valid);
    CHECK(!duplicates);
    CHECK_EQ(emitted, BruteMis(g));
  }
}

TEST_CASE(MisEarlyStopStreamsValidPrefixes) {
  // Streaming consumption (first-k sets) must still emit only maximal
  // independent sets — the ASMiner pipeline stops mid-enumeration at
  // max_schemas and on deadline expiry.
  Rng rng(19);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 12;
    Graph g(n);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (rng.Bernoulli(0.4)) g.AddEdge(i, j);
      }
    }
    const std::set<uint64_t> reference = BruteMis(g);
    const size_t limit = 3;
    std::set<uint64_t> emitted;
    const bool finished =
        EnumerateMaximalIndependentSets(g, [&](const VertexSet& s) {
          uint64_t mask = 0;
          s.ForEach([&](int v) { mask |= uint64_t{1} << v; });
          emitted.insert(mask);
          return emitted.size() < limit;
        });
    // With exactly `limit` sets the callback still returns false on the
    // last one, so the enumerator reports a stop; `finished` is only true
    // when enumeration ran out of sets before the limit.
    CHECK_EQ(finished, reference.size() < limit);
    CHECK_EQ(emitted.size(), std::min(limit, reference.size()));
    for (uint64_t mask : emitted) CHECK(reference.count(mask) == 1);
  }
}

TEST_CASE(MisEarlyStopIsHonored) {
  Graph g(10);  // empty graph: single MIS = all vertices
  int count = 0;
  const bool finished =
      EnumerateMaximalIndependentSets(g, [&](const VertexSet&) {
        ++count;
        return false;
      });
  CHECK(!finished);
  CHECK_EQ(count, 1);

  Graph clique(6);
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) clique.AddEdge(i, j);
  }
  count = 0;
  EnumerateMaximalIndependentSets(clique, [&](const VertexSet& s) {
    CHECK_EQ(s.Count(), 1);  // every MIS of a clique is one vertex
    ++count;
    return count < 3;
  });
  CHECK_EQ(count, 3);
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
