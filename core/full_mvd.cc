// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "core/full_mvd.h"

#include <numeric>
#include <utility>

namespace maimon {
namespace {

// Array-based union-find over attribute indices (n <= 64).
struct UnionFind {
  explicit UnionFind(int n) : parent(static_cast<size_t>(n)) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int Find(int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  }
  void Union(int x, int y) { parent[static_cast<size_t>(Find(x))] = Find(y); }
  std::vector<int> parent;
};

}  // namespace

void FullMvdSearch::Dfs(const std::vector<AttrSet>& items, size_t next,
                        AttrSet v1, AttrSet v2, AttrSet key,
                        size_t max_results, std::vector<Mvd>* out) {
  if (out->size() >= max_results || DeadlineExpired(deadline_)) return;
  if (next == items.size()) {
    // Every attribute is assigned and the last assignment's J check covered
    // the full split, so this is a full MVD.
    out->emplace_back(key, v1, v2);
    return;
  }
  const AttrSet item = items[next];
  for (int side = 0; side < 2; ++side) {
    if (out->size() >= max_results || DeadlineExpired(deadline_)) return;
    ++stats_.nodes_pushed;
    const AttrSet n1 = side == 0 ? v1.Union(item) : v1;
    const AttrSet n2 = side == 0 ? v2 : v2.Union(item);
    // Monotone prune: a partial split already over threshold can only get
    // worse as more attributes join the sides.
    if (MeasureJ(n1, n2, key) <= epsilon_ + kJTolerance) {
      Dfs(items, next + 1, n1, n2, key, max_results, out);
    }
  }
}

FullMvdSearch::SideAgreement FullMvdSearch::AgreementClusters(AttrSet key,
                                                              AttrSet universe,
                                                              int a, int b) {
  // Contract to pairwise-consistent super-attributes. Soundness rests on
  // monotonicity of I: if I(x;y|key) > eps then any split placing x and y
  // on opposite sides has J > eps, so x and y may be glued; if
  // I(x;a|key) > eps then x can never sit opposite a, so x joins a's side.
  SideAgreement out;
  out.a_side = AttrSet::Single(a);
  out.b_side = AttrSet::Single(b);
  if (a == b || key.Contains(a) || key.Contains(b) || !universe.Contains(a) ||
      !universe.Contains(b)) {
    out.feasible = false;
    return out;
  }
  const AttrSet rest = universe.Minus(key).Without(a).Without(b);
  UnionFind uf(AttrSet::kMaxAttrs);
  for (int x : rest.ToVector()) {
    if (DeadlineExpired(deadline_)) {
      out.deadline_hit = true;
      return out;
    }
    // I(x;b|key) > eps means x can never sit opposite b, so x is forced
    // onto b's side; symmetrically for a. Forced onto both: infeasible.
    const bool must_join_b =
        MeasureJ(AttrSet::Single(x), AttrSet::Single(b), key) >
        epsilon_ + kJTolerance;
    const bool must_join_a =
        MeasureJ(AttrSet::Single(x), AttrSet::Single(a), key) >
        epsilon_ + kJTolerance;
    if (must_join_a && must_join_b) {
      out.feasible = false;
      return out;
    }
    if (must_join_a) uf.Union(x, a);
    if (must_join_b) uf.Union(x, b);
  }
  const std::vector<int> free_attrs = rest.ToVector();
  for (size_t i = 0; i < free_attrs.size(); ++i) {
    for (size_t j = i + 1; j < free_attrs.size(); ++j) {
      if (DeadlineExpired(deadline_)) {
        out.deadline_hit = true;
        return out;
      }
      if (uf.Find(free_attrs[i]) == uf.Find(free_attrs[j])) continue;
      if (MeasureJ(AttrSet::Single(free_attrs[i]),
                   AttrSet::Single(free_attrs[j]), key) >
          epsilon_ + kJTolerance) {
        uf.Union(free_attrs[i], free_attrs[j]);
      }
    }
  }
  if (uf.Find(a) == uf.Find(b)) {  // forced together: no MVD can exist
    out.feasible = false;
    return out;
  }
  // Gather clusters: the a- and b-rooted ones seed the sides, the rest
  // stay free to pick a side.
  std::vector<AttrSet> clusters(AttrSet::kMaxAttrs);
  for (int x : rest.ToVector()) clusters[static_cast<size_t>(uf.Find(x))].Add(x);
  out.a_side = out.a_side.Union(clusters[static_cast<size_t>(uf.Find(a))]);
  out.b_side = out.b_side.Union(clusters[static_cast<size_t>(uf.Find(b))]);
  for (int root = 0; root < AttrSet::kMaxAttrs; ++root) {
    if (root == uf.Find(a) || root == uf.Find(b)) continue;
    if (clusters[static_cast<size_t>(root)].Any()) {
      out.free_clusters.push_back(clusters[static_cast<size_t>(root)]);
    }
  }
  return out;
}

std::vector<Mvd> FullMvdSearch::Find(AttrSet key, AttrSet universe, int a,
                                     int b, size_t max_results,
                                     bool optimized) {
  stats_ = SearchStats();
  std::vector<Mvd> out;
  if (max_results == 0) return out;
  if (a == b || key.Contains(a) || key.Contains(b)) return out;
  if (!universe.Contains(a) || !universe.Contains(b)) return out;

  const AttrSet rest = universe.Minus(key).Without(a).Without(b);
  AttrSet seed1 = AttrSet::Single(a);
  AttrSet seed2 = AttrSet::Single(b);
  std::vector<AttrSet> items;

  if (optimized) {
    const SideAgreement agreement = AgreementClusters(key, universe, a, b);
    if (!agreement.feasible || agreement.deadline_hit) return out;
    seed1 = agreement.a_side;
    seed2 = agreement.b_side;
    items = agreement.free_clusters;
  } else {
    for (int x : rest.ToVector()) items.push_back(AttrSet::Single(x));
  }

  // Root feasibility check (also covers the rest-is-empty case).
  ++stats_.nodes_pushed;
  if (MeasureJ(seed1, seed2, key) > epsilon_ + kJTolerance) return out;
  Dfs(items, 0, seed1, seed2, key, max_results, &out);
  return out;
}

bool FullMvdSearch::Separates(AttrSet key, AttrSet universe, int a, int b) {
  return FindWitness(key, universe, a, b, nullptr);
}

bool FullMvdSearch::FindWitness(AttrSet key, AttrSet universe, int a, int b,
                                Mvd* witness) {
  std::vector<Mvd> found =
      Find(key, universe, a, b, /*max_results=*/1, /*optimized=*/true);
  if (found.empty()) return false;
  if (witness != nullptr) *witness = std::move(found.front());
  return true;
}

}  // namespace maimon
