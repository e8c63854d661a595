// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "join/join_tree.h"

#include <utility>

namespace maimon {

JoinTree BuildMaxOverlapJoinTree(const std::vector<AttrSet>& rels) {
  JoinTree tree;
  const size_t m = rels.size();
  tree.parent.assign(m, -1);
  tree.children.resize(m);
  if (m == 0) return tree;

  // Prim over overlap weights, rooted at relation 0. The scan picks the
  // first maximum, so ties resolve to the lowest index deterministically.
  std::vector<bool> in_tree(m, false);
  std::vector<int> best_link(m, 0);
  std::vector<int> best_weight(m, -1);
  in_tree[0] = true;
  for (size_t j = 1; j < m; ++j) {
    best_link[j] = 0;
    best_weight[j] = rels[j].Intersect(rels[0]).Count();
  }
  for (size_t round = 1; round < m; ++round) {
    int pick = -1, w = -1;
    for (size_t j = 0; j < m; ++j) {
      if (!in_tree[j] && best_weight[j] > w) {
        w = best_weight[j];
        pick = static_cast<int>(j);
      }
    }
    in_tree[static_cast<size_t>(pick)] = true;
    tree.parent[static_cast<size_t>(pick)] =
        best_link[static_cast<size_t>(pick)];
    for (size_t j = 0; j < m; ++j) {
      if (!in_tree[j]) {
        const int overlap =
            rels[j].Intersect(rels[static_cast<size_t>(pick)]).Count();
        if (overlap > best_weight[j]) {
          best_weight[j] = overlap;
          best_link[j] = pick;
        }
      }
    }
  }

  for (size_t j = 1; j < m; ++j) {
    tree.children[static_cast<size_t>(tree.parent[j])].push_back(
        static_cast<int>(j));
  }
  tree.preorder.reserve(m);
  std::vector<int> stack = {0};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    tree.preorder.push_back(v);
    for (int c : tree.children[static_cast<size_t>(v)]) stack.push_back(c);
  }
  return tree;
}

bool JoinTreeFromParents(const std::vector<int>& parents, JoinTree* out) {
  const size_t m = parents.size();
  if (m == 0) {
    *out = JoinTree();
    return true;
  }
  if (parents[0] != -1) return false;
  for (size_t v = 1; v < m; ++v) {
    if (parents[v] < 0 || parents[v] >= static_cast<int>(m)) return false;
  }
  // Cycle check by path-walking with a visit stamp: every node must reach
  // the root in at most m steps.
  for (size_t v = 1; v < m; ++v) {
    size_t cursor = v;
    size_t steps = 0;
    while (parents[cursor] != -1) {
      cursor = static_cast<size_t>(parents[cursor]);
      if (++steps > m) return false;
    }
  }
  JoinTree tree;
  tree.parent = parents;
  tree.children.resize(m);
  for (size_t v = 1; v < m; ++v) {
    tree.children[static_cast<size_t>(parents[v])].push_back(
        static_cast<int>(v));
  }
  tree.preorder.reserve(m);
  std::vector<int> stack = {0};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    tree.preorder.push_back(v);
    for (int c : tree.children[static_cast<size_t>(v)]) stack.push_back(c);
  }
  *out = std::move(tree);
  return true;
}

std::vector<int> MinimalCoveringSubtree(const JoinTree& tree,
                                        const std::vector<AttrSet>& rels,
                                        AttrSet touched) {
  const size_t n = rels.size();
  std::vector<char> in(n, 1);
  // Degree within the surviving node set; leaves have degree <= 1.
  std::vector<int> degree(n, 0);
  for (size_t v = 0; v < n; ++v) {
    if (tree.parent[v] >= 0) {
      ++degree[v];
      ++degree[static_cast<size_t>(tree.parent[v])];
    }
  }
  // How many surviving nodes mention each touched attribute. A leaf is
  // removable iff every touched attribute it carries has count >= 2.
  std::vector<int> cover_count(AttrSet::kMaxAttrs, 0);
  for (size_t v = 0; v < n; ++v) {
    for (int a : rels[v].Intersect(touched).ToVector()) ++cover_count[a];
  }
  size_t remaining = n;
  bool changed = true;
  while (changed && remaining > 1) {
    changed = false;
    for (int v = static_cast<int>(n) - 1; v >= 0 && remaining > 1; --v) {
      const size_t sv = static_cast<size_t>(v);
      if (!in[sv] || degree[sv] > 1) continue;
      const std::vector<int> carried = rels[sv].Intersect(touched).ToVector();
      bool removable = true;
      for (int a : carried) {
        if (cover_count[a] <= 1) {
          removable = false;
          break;
        }
      }
      if (!removable) continue;
      in[sv] = 0;
      --remaining;
      changed = true;
      for (int a : carried) --cover_count[a];
      const int p = tree.parent[sv];
      if (p >= 0 && in[static_cast<size_t>(p)]) --degree[static_cast<size_t>(p)];
      for (int c : tree.children[sv]) {
        if (in[static_cast<size_t>(c)]) --degree[static_cast<size_t>(c)];
      }
      degree[sv] = 0;
    }
  }
  std::vector<int> out;
  out.reserve(remaining);
  for (size_t v = 0; v < n; ++v) {
    if (in[v]) out.push_back(static_cast<int>(v));
  }
  return out;
}

JoinTree InducedSubtree(const JoinTree& tree, const std::vector<int>& nodes) {
  std::vector<int> local(tree.NumNodes(), -1);
  for (size_t i = 0; i < nodes.size(); ++i) {
    local[static_cast<size_t>(nodes[i])] = static_cast<int>(i);
  }
  JoinTree sub;
  sub.parent.assign(nodes.size(), -1);
  sub.children.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const size_t v = static_cast<size_t>(nodes[i]);
    if (tree.parent[v] >= 0) {
      sub.parent[i] = local[static_cast<size_t>(tree.parent[v])];
    }
    for (int c : tree.children[v]) {
      if (local[static_cast<size_t>(c)] >= 0) {
        sub.children[i].push_back(local[static_cast<size_t>(c)]);
      }
    }
  }
  sub.preorder.reserve(nodes.size());
  for (int v : tree.preorder) {
    if (local[static_cast<size_t>(v)] >= 0) {
      sub.preorder.push_back(local[static_cast<size_t>(v)]);
    }
  }
  return sub;
}

}  // namespace maimon
