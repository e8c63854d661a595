// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "graph/mis.h"

#include <utility>

namespace maimon {
namespace {

// Maximal independent sets of G are maximal cliques of the complement.
// Tomita-style Bron–Kerbosch with pivoting over complement adjacency. The
// walker owns the recursion state (current_) and reads the adjacency table.
class Walker {
 public:
  Walker(const std::vector<VertexSet>& comp_adj, int n,
         const std::function<bool(const VertexSet&)>& emit,
         const Deadline* deadline)
      : comp_adj_(&comp_adj), emit_(&emit), deadline_(deadline), current_(n) {}

  // Returns false to propagate an early stop from the callback or the
  // deadline (polled per node: gaps between emissions can be exponential).
  bool Expand(VertexSet p, VertexSet x) {
    if (DeadlineExpired(deadline_)) return false;
    if (p.Empty() && x.Empty()) return (*emit_)(current_);

    // Pivot: vertex of P ∪ X with most complement-neighbors in P.
    int pivot = -1, best = -1;
    for (const VertexSet* side : {&p, &x}) {
      side->ForEach([&](int u) {
        const int score =
            (*comp_adj_)[static_cast<size_t>(u)].CountIntersect(p);
        if (score > best) {
          best = score;
          pivot = u;
        }
      });
    }

    VertexSet candidates = p;
    if (pivot >= 0) {
      candidates.MinusWith((*comp_adj_)[static_cast<size_t>(pivot)]);
    }

    for (int v : candidates.ToVector()) {
      const VertexSet& nv = (*comp_adj_)[static_cast<size_t>(v)];
      VertexSet p2 = p, x2 = x;
      p2.IntersectWith(nv);
      x2.IntersectWith(nv);
      current_.Add(v);
      const bool keep_going = Expand(std::move(p2), std::move(x2));
      current_.Remove(v);
      if (!keep_going) return false;
      p.Remove(v);
      x.Add(v);
    }
    return true;
  }

 private:
  const std::vector<VertexSet>* comp_adj_;
  const std::function<bool(const VertexSet&)>* emit_;
  const Deadline* deadline_;
  VertexSet current_;
};

}  // namespace

bool EnumerateMaximalIndependentSets(
    const Graph& graph, const std::function<bool(const VertexSet&)>& emit,
    const Deadline* deadline) {
  const int n = graph.NumVertices();
  if (n == 0) {
    return emit(VertexSet(0));
  }
  if (DeadlineExpired(deadline)) return false;
  std::vector<VertexSet> comp_adj;
  comp_adj.reserve(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    VertexSet row(n);
    for (int u = 0; u < n; ++u) {
      if (u != v && !graph.HasEdge(u, v)) row.Add(u);
    }
    comp_adj.push_back(std::move(row));
  }
  // One recursion from the root: P = all vertices, X = ∅.
  VertexSet all(n);
  for (int v = 0; v < n; ++v) all.Add(v);
  Walker walker(comp_adj, n, emit, deadline);
  return walker.Expand(std::move(all), VertexSet(n));
}

}  // namespace maimon
