// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Maximal-independent-set enumeration (Theorem 7.3's substrate). VertexSet
// is a dynamic bitset because the conflict graphs ASMiner builds routinely
// exceed 64 vertices (one vertex per mined MVD). Enumeration is one
// Bron–Kerbosch recursion with pivoting on the complement graph, run on the
// calling thread: the emission order depends on the graph alone, and the
// callback returns false to stop early (streaming / first-k consumption),
// so a consumer that stops at its k-th set has done no work past it.

#ifndef MAIMON_GRAPH_MIS_H_
#define MAIMON_GRAPH_MIS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "util/stopwatch.h"

namespace maimon {

class VertexSet {
 public:
  VertexSet() = default;
  explicit VertexSet(int n)
      : n_(n), words_(static_cast<size_t>((n + 63) / 64), 0) {}

  int NumVerticesBound() const { return n_; }
  bool Contains(int v) const {
    return (words_[static_cast<size_t>(v) >> 6] >> (v & 63)) & 1;
  }
  void Add(int v) { words_[static_cast<size_t>(v) >> 6] |= uint64_t{1} << (v & 63); }
  void Remove(int v) {
    words_[static_cast<size_t>(v) >> 6] &= ~(uint64_t{1} << (v & 63));
  }

  int Count() const {
    int c = 0;
    for (uint64_t w : words_) c += __builtin_popcountll(w);
    return c;
  }
  bool Empty() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }
  /// Lowest member, or -1.
  int First() const {
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] != 0) {
        return static_cast<int>(i * 64) + __builtin_ctzll(words_[i]);
      }
    }
    return -1;
  }

  VertexSet& IntersectWith(const VertexSet& o) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
    return *this;
  }
  VertexSet& UnionWith(const VertexSet& o) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
    return *this;
  }
  VertexSet& MinusWith(const VertexSet& o) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
    return *this;
  }
  int CountIntersect(const VertexSet& o) const {
    int c = 0;
    for (size_t i = 0; i < words_.size(); ++i) {
      c += __builtin_popcountll(words_[i] & o.words_[i]);
    }
    return c;
  }

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      for (uint64_t w = words_[i]; w != 0; w &= w - 1) {
        fn(static_cast<int>(i * 64) + __builtin_ctzll(w));
      }
    }
  }

  std::vector<int> ToVector() const {
    std::vector<int> out;
    ForEach([&](int v) { out.push_back(v); });
    return out;
  }

  friend bool operator==(const VertexSet& a, const VertexSet& b) {
    return a.words_ == b.words_;
  }

 private:
  int n_ = 0;
  std::vector<uint64_t> words_;
};

class Graph {
 public:
  explicit Graph(int n) : n_(n), adj_(static_cast<size_t>(n), VertexSet(n)) {}

  int NumVertices() const { return n_; }
  void AddEdge(int u, int v) {
    adj_[static_cast<size_t>(u)].Add(v);
    adj_[static_cast<size_t>(v)].Add(u);
  }
  bool HasEdge(int u, int v) const {
    return adj_[static_cast<size_t>(u)].Contains(v);
  }
  const VertexSet& Neighbors(int v) const {
    return adj_[static_cast<size_t>(v)];
  }

 private:
  int n_;
  std::vector<VertexSet> adj_;
};

/// Calls `emit` once per maximal independent set; stop by returning false.
/// `deadline` (nullable) is polled inside the recursion, so a blown budget
/// stops the search even when the gap between successive maximal sets is
/// exponential. Returns false iff the enumeration was stopped by the
/// callback or the deadline.
bool EnumerateMaximalIndependentSets(
    const Graph& graph, const std::function<bool(const VertexSet&)>& emit,
    const Deadline* deadline = nullptr);

}  // namespace maimon

#endif  // MAIMON_GRAPH_MIS_H_
