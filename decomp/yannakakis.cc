// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "decomp/yannakakis.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>

#include "decomp/tuple_ids.h"
#include "join/join_tree.h"
#include "util/parallel_for.h"

namespace maimon {
namespace {

// Positions (within `columns`) of the attributes in `shared`.
std::vector<size_t> SharedPositions(const std::vector<int>& columns,
                                    AttrSet shared) {
  std::vector<size_t> out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (shared.Contains(columns[i])) out.push_back(i);
  }
  return out;
}

// The id in `table` of every row of `p`'s tuple over the column `positions`.
std::vector<uint32_t> LabelBy(const StoredProjection& p,
                              const std::vector<size_t>& positions,
                              TupleIdTable* table) {
  std::vector<uint32_t> ids(p.NumRows());
  std::vector<uint32_t> tuple(positions.size());
  for (size_t r = 0; r < ids.size(); ++r) {
    for (size_t i = 0; i < positions.size(); ++i) {
      tuple[i] = p.codes[positions[i]][r];
    }
    ids[r] = table->Insert(tuple.data()).first;
  }
  return ids;
}

std::vector<ProjectionRows> EveryRow(const ProjectionStore& store) {
  std::vector<ProjectionRows> inputs(store.NumProjections());
  for (size_t v = 0; v < inputs.size(); ++v) {
    const StoredProjection& p = store.projections()[v];
    inputs[v].projection = &p;
    inputs[v].rows.resize(p.NumRows());
    std::iota(inputs[v].rows.begin(), inputs[v].rows.end(), uint32_t{0});
  }
  return inputs;
}

JoinTree TreeOf(const ProjectionStore& store) {
  std::vector<AttrSet> rels;
  rels.reserve(store.NumProjections());
  for (const StoredProjection& p : store.projections()) rels.push_back(p.attrs);
  return BuildMaxOverlapJoinTree(rels);
}

// One node of Execute's enumeration, in preorder: its live rows grouped by
// the separator id of its parent edge (the rows of id k are rows[offsets[k]
// .. offsets[k + 1]), in live order; the root is one group, id 0), and the
// output columns it writes, as (code array, output slot).
struct Step {
  const std::vector<uint32_t>* parent_ids = nullptr;  // null at the root
  size_t parent_step = 0;
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> rows;
  std::vector<std::pair<const std::vector<uint32_t>*, size_t>> writes;
};

struct Walk {
  std::vector<Step> steps;
  std::vector<uint32_t> chosen;  // the current row of each step
  std::vector<uint32_t> out;
  const Deadline* deadline = nullptr;
  bool materialize = false;
  TupleIdTable* seen = nullptr;  // the dedup table, when rows may repeat
  JoinResult* result = nullptr;
  uint64_t polls = 0;
};

// Depth-first extension over preorder position `depth`: each row of the
// step's group for the parent's current row, then everything below it.
// Returns false on deadline expiry, polled every 1024 rows visited.
bool Extend(Walk* w, size_t depth) {
  if (depth == w->steps.size()) {
    ++w->result->enumerated;
    if (w->seen != nullptr && !w->seen->Insert(w->out.data()).second) {
      return true;
    }
    ++w->result->rows;
    if (w->materialize) w->result->tuples.push_back(w->out);
    return true;
  }
  const Step& step = w->steps[depth];
  const uint32_t id = step.parent_ids == nullptr
                          ? 0
                          : (*step.parent_ids)[w->chosen[step.parent_step]];
  for (uint32_t k = step.offsets[id]; k < step.offsets[id + 1]; ++k) {
    const uint32_t r = step.rows[k];
    w->chosen[depth] = r;
    for (const auto& [codes, slot] : step.writes) w->out[slot] = (*codes)[r];
    if (!Extend(w, depth + 1)) return false;
    if ((++w->polls & 1023) == 0 && DeadlineExpired(w->deadline)) {
      return false;
    }
  }
  return true;
}

// A cut key of up to this many bits is marked in a bitmap even when the
// node has few live rows; above it, the bitmap may take at most 64 bits
// per live row, and a wider key goes through a TupleIdTable.
constexpr uint64_t kMinBitmapBits = 4096;

}  // namespace

EdgeIds LabelEdge(const StoredProjection& child,
                  const StoredProjection& parent) {
  const AttrSet sep = child.attrs.Intersect(parent.attrs);
  TupleIdTable table(static_cast<size_t>(sep.Count()));
  EdgeIds ids;
  ids.child = LabelBy(child, SharedPositions(child.columns, sep), &table);
  ids.parent = LabelBy(parent, SharedPositions(parent.columns, sep), &table);
  ids.num_ids = static_cast<uint32_t>(table.size());
  return ids;
}

// Every row of every projection, along the store's own join tree; the
// edges are labeled here, once both endpoints are in place.
YannakakisExecutor::YannakakisExecutor(const ProjectionStore& store)
    : YannakakisExecutor(EveryRow(store), TreeOf(store), {}) {
  owned_edges_.resize(nodes_.size());
  for (size_t v = 0; v < nodes_.size(); ++v) {
    const int parent = tree_.parent[v];
    if (parent < 0) continue;
    owned_edges_[v] = LabelEdge(*nodes_[v].projection,
                                *nodes_[static_cast<size_t>(parent)].projection);
    nodes_[v].up = &owned_edges_[v];
  }
}

YannakakisExecutor::YannakakisExecutor(std::vector<ProjectionRows> inputs,
                                       JoinTree tree,
                                       const std::vector<const EdgeIds*>& edges)
    : tree_(std::move(tree)), nodes_(inputs.size()) {
  for (size_t v = 0; v < inputs.size(); ++v) {
    nodes_[v].projection = inputs[v].projection;
    nodes_[v].live = std::move(inputs[v].rows);
    if (v < edges.size()) nodes_[v].up = edges[v];
    universe_ = universe_.Union(nodes_[v].projection->attrs);
  }
}

std::vector<int> YannakakisExecutor::OutputColumns(AttrSet output) const {
  return (output.Empty() ? universe_ : universe_.Intersect(output)).ToVector();
}

Status YannakakisExecutor::Reduce(const Deadline* deadline, int num_threads,
                                  obs::Sink* sink) {
  if (reduced_) return Status::Ok();
  obs::Span span(sink, "yk.reduce");
  const uint64_t dropped_before = semijoin_dropped_;
  const uint64_t passes_before = semijoin_passes_;
  const Status status = ReduceImpl(deadline, num_threads, sink);
  const uint64_t dropped = semijoin_dropped_ - dropped_before;
  const uint64_t passes = semijoin_passes_ - passes_before;
  span.Arg("dropped", dropped);
  span.Arg("passes", passes);
  obs::Count(sink, "yk.semijoin_dropped", dropped);
  obs::Count(sink, "yk.semijoin_passes", passes);
  return status;
}

Status YannakakisExecutor::ReduceImpl(const Deadline* deadline,
                                      int num_threads, obs::Sink* sink) {
  // Depth levels (parent precedes child in preorder, so one sweep fills
  // them; a level keeps preorder order). Nodes of one level have disjoint
  // state and only read levels already final, which is what makes the
  // result independent of how a level's nodes are scheduled.
  std::vector<size_t> depth(nodes_.size(), 0);
  std::vector<std::vector<size_t>> levels;
  for (int pv : tree_.preorder) {
    const size_t v = static_cast<size_t>(pv);
    if (tree_.parent[v] >= 0) {
      depth[v] = depth[static_cast<size_t>(tree_.parent[v])] + 1;
    }
    if (depth[v] == levels.size()) levels.emplace_back();
    levels[depth[v]].push_back(v);
  }
  const size_t threads = static_cast<size_t>(ResolveNumThreads(num_threads));

  std::vector<uint64_t> dropped(nodes_.size(), 0);
  std::vector<uint64_t> passes(nodes_.size(), 0);
  // Semijoins node `target` with node `source` across the edge whose ids
  // are `target_ids` / `source_ids` (num_ids of them): marks the source's
  // ids, then keeps the target's live rows whose id is marked, in order,
  // so the reduced lists are scheduling-independent. The deadline is
  // polled every 1024 rows of either loop — a single huge node must not
  // overrun a per-query budget by a whole level. Returns false on expiry:
  // a partial mark set is never semijoined against (it would drop rows
  // that do have partners), and the target's unexamined tail is kept
  // unfiltered, so the node stays a valid (merely under-reduced)
  // projection.
  const auto semijoin = [&](size_t target,
                            const std::vector<uint32_t>& target_ids,
                            size_t source,
                            const std::vector<uint32_t>& source_ids,
                            uint32_t num_ids) {
    const std::vector<uint32_t>& from = nodes_[source].live;
    std::vector<uint8_t> marked(num_ids, 0);
    for (size_t i = 0; i < from.size(); ++i) {
      if (((i + 1) & 1023) == 0 && DeadlineExpired(deadline)) return false;
      marked[source_ids[from[i]]] = 1;
    }
    ++passes[target];
    std::vector<uint32_t>& live = nodes_[target].live;
    size_t kept = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      if (((i + 1) & 1023) == 0 && DeadlineExpired(deadline)) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(kept),
                   live.begin() + static_cast<std::ptrdiff_t>(i));
        return false;
      }
      if (marked[target_ids[live[i]]] != 0) {
        live[kept++] = live[i];
      } else {
        ++dropped[target];
      }
    }
    live.resize(kept);
    return true;
  };

  std::atomic<bool> expired{false};
  // Runs `edge(v, child)` for every node v of `level` and each of its
  // children in order; a false return (deadline expiry) stops the sweep. A
  // level of one node runs inline, in preorder order; a wider one starts
  // its own threads, at most one per node.
  const auto run_level = [&](const std::vector<size_t>& level,
                             const auto& edge) {
    const ParallelForResult run = ParallelFor(
        static_cast<int>(std::min(threads, level.size())), level.size(),
        deadline,
        [&](int, size_t i) {
          const size_t v = level[i];
          for (int c : tree_.children[v]) {
            if (DeadlineExpired(deadline) ||
                !edge(v, static_cast<size_t>(c))) {
              expired.store(true, std::memory_order_relaxed);
              return;
            }
          }
        },
        sink);
    if (!run.completed) expired.store(true, std::memory_order_relaxed);
  };

  // Leaf-to-root, deepest level first: each node is filtered against each
  // of its children, whose deeper level is already final.
  const char* phase = "semijoin reducer (leaf-to-root)";
  for (size_t d = levels.size(); d-- > 0 && !expired.load();) {
    run_level(levels[d], [&](size_t v, size_t c) {
      const EdgeIds& e = *nodes_[c].up;
      return semijoin(v, e.parent, c, e.child, e.num_ids);
    });
  }
  // Root-to-leaf: each child is filtered against its (now fully reduced)
  // parent; afterwards no row anywhere is dangling.
  if (!expired.load()) phase = "semijoin reducer (root-to-leaf)";
  for (size_t d = 0; d + 1 < levels.size() && !expired.load(); ++d) {
    run_level(levels[d], [&](size_t v, size_t c) {
      const EdgeIds& e = *nodes_[c].up;
      return semijoin(c, e.child, v, e.parent, e.num_ids);
    });
  }
  for (uint64_t d : dropped) semijoin_dropped_ += d;
  for (uint64_t p : passes) semijoin_passes_ += p;
  if (expired.load()) return Status::DeadlineExceeded(phase);
  reduced_ = true;
  return Status::Ok();
}

bool YannakakisExecutor::Prepare(const YannakakisOptions& options,
                                 JoinResult* result, bool* dedup) {
  result->columns = OutputColumns(options.output);
  if (cut_) {
    result->status =
        Status::InvalidArgument("executor already cut by a distinct call");
    return false;
  }
  cut_ = options.distinct;
  result->status = Reduce(options.deadline, options.num_threads, options.sink);
  if (result->status.ok() && options.distinct) {
    result->status = Cut(options, dedup);
  }
  return result->status.ok();
}

size_t YannakakisExecutor::DropUnneeded(AttrSet output) {
  // Only a leaf whose output attributes another node also holds can leave;
  // when none can, MinimalCoveringSubtree would keep every node, so the
  // common case allocates nothing.
  const size_t n = nodes_.size();
  bool can_leave = false;
  for (size_t v = 0; n > 1 && v < n && !can_leave; ++v) {
    if (tree_.children[v].size() + (tree_.parent[v] >= 0 ? 1 : 0) > 1) {
      continue;
    }
    AttrSet others;
    for (size_t u = 0; u < n; ++u) {
      if (u != v) others = others.Union(nodes_[u].projection->attrs);
    }
    can_leave =
        others.ContainsAll(nodes_[v].projection->attrs.Intersect(output));
  }
  if (!can_leave) return 0;
  std::vector<AttrSet> rels(n);
  for (size_t v = 0; v < n; ++v) rels[v] = nodes_[v].projection->attrs;
  const std::vector<int> keep = MinimalCoveringSubtree(tree_, rels, output);
  tree_ = InducedSubtree(tree_, keep);
  // keep ascends, so node keep[i] moves down to i (or stays).
  for (size_t i = 0; i < keep.size(); ++i) {
    const size_t v = static_cast<size_t>(keep[i]);
    if (v != i) nodes_[i] = std::move(nodes_[v]);
  }
  nodes_.resize(keep.size());
  return n - keep.size();
}

Status YannakakisExecutor::Cut(const YannakakisOptions& options,
                               bool* dedup) {
  const AttrSet out = options.output.Empty()
                          ? universe_
                          : universe_.Intersect(options.output);
  *dedup = false;
  // Every attribute kept: the join of distinct projections is distinct.
  if (out == universe_) return Status::Ok();
  obs::Span span(options.sink, "yk.cut");
  uint64_t rows_in = 0;
  for (const Node& node : nodes_) rows_in += node.live.size();
  // After the full reduction the join of any connected subtree is the
  // projection of the whole join, so the minimal subtree covering the
  // output answers alone.
  const size_t dropped = DropUnneeded(out);

  // Each node keeps its first live row of every distinct key: its output
  // codes, then the ids of its kept edges whose separator the output does
  // not hold (an edge inside the output is fixed by the codes). The key is
  // a mixed-radix integer over the fields' ranges (codes[c] < domains[c],
  // ids < num_ids), marked in a bitmap when its range is small enough.
  std::vector<std::pair<const std::vector<uint32_t>*, uint64_t>> fields;
  std::vector<uint32_t> tuple;
  uint64_t rows_out = 0;
  uint64_t hashed = 0;
  uint64_t polls = 0;
  for (size_t v = 0; v < nodes_.size(); ++v) {
    Node& node = nodes_[v];
    const StoredProjection& p = *node.projection;
    fields.clear();
    for (size_t c = 0; c < p.columns.size(); ++c) {
      if (out.Contains(p.columns[c])) {
        fields.emplace_back(&p.codes[c], p.domains[c]);
      }
    }
    // A kept separator outside the output leaves the cut join over more
    // than the output columns, so its rows may repeat an output row.
    const auto add_edge = [&](const std::vector<uint32_t>& ids,
                              uint32_t num_ids, AttrSet neighbor) {
      if (out.ContainsAll(p.attrs.Intersect(neighbor))) return;
      *dedup = true;
      fields.emplace_back(&ids, num_ids);
    };
    const int parent = tree_.parent[v];
    if (parent >= 0) {
      add_edge(node.up->child, node.up->num_ids,
               nodes_[static_cast<size_t>(parent)].projection->attrs);
    }
    for (int c : tree_.children[v]) {
      const Node& child = nodes_[static_cast<size_t>(c)];
      add_edge(child.up->parent, child.up->num_ids, child.projection->attrs);
    }

    std::vector<uint32_t>& live = node.live;
    uint64_t bits = 1;
    bool bitmap = true;
    for (const auto& field : fields) {
      bitmap = bitmap && !__builtin_mul_overflow(bits, field.second, &bits);
    }
    bitmap = bitmap &&
             bits <= std::max(kMinBitmapBits,
                              64 * static_cast<uint64_t>(live.size()));
    std::vector<uint64_t> marked(bitmap ? (bits + 63) / 64 : 0, 0);
    TupleIdTable table(bitmap ? 0 : fields.size());
    tuple.resize(fields.size());
    if (!bitmap) ++hashed;
    size_t kept = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      if ((++polls & 1023) == 0 && DeadlineExpired(options.deadline)) {
        return Status::DeadlineExceeded("join cut");
      }
      const uint32_t r = live[i];
      bool fresh = false;
      if (bitmap) {
        uint64_t key = 0;
        bool in_range = true;
        for (size_t f = fields.size(); f-- > 0;) {
          const uint32_t digit = (*fields[f].first)[r];
          in_range = in_range && digit < fields[f].second;
          key = key * fields[f].second + digit;
        }
        // A code past its domain breaks the projection's contract; it
        // must not index past the bitmap or alias another key.
        if (!in_range) {
          return Status::InvalidArgument("join cut: code outside its domain");
        }
        uint64_t& word = marked[key >> 6];
        const uint64_t bit = uint64_t{1} << (key & 63);
        fresh = (word & bit) == 0;
        word |= bit;
      } else {
        for (size_t f = 0; f < fields.size(); ++f) {
          tuple[f] = (*fields[f].first)[r];
        }
        fresh = table.Insert(tuple.data()).second;
      }
      if (fresh) live[kept++] = r;
    }
    live.resize(kept);
    rows_out += kept;
  }
  if (span.active()) {
    span.Arg("rows_in", rows_in);
    span.Arg("rows_out", rows_out);
    span.Arg("nodes_dropped", static_cast<uint64_t>(dropped));
    span.Arg("hashed", hashed);
  }
  return Status::Ok();
}

JoinResult YannakakisExecutor::Execute(const YannakakisOptions& options) {
  JoinResult result;
  bool dedup = false;
  if (Prepare(options, &result, &dedup)) {
    Enumerate(options.deadline, options.sink, options.materialize, dedup,
              &result);
  }
  return result;
}

void YannakakisExecutor::Enumerate(const Deadline* deadline, obs::Sink* sink,
                                   bool materialize, bool dedup,
                                   JoinResult* result) const {
  obs::Span span(sink, "yk.join");
  std::vector<size_t> slot_of(static_cast<size_t>(AttrSet::kMaxAttrs),
                              result->columns.size());
  for (size_t i = 0; i < result->columns.size(); ++i) {
    slot_of[static_cast<size_t>(result->columns[i])] = i;
  }

  // One step per node in preorder. A child's live rows are grouped by id
  // with a counting sort: offsets[k] first counts the rows of id k, then
  // holds where id k ends, and placing the rows back to front leaves it at
  // where id k starts, with every group in live order. Each output column
  // is written by the first node in preorder that carries it.
  Walk walk;
  walk.steps.resize(nodes_.size());
  std::vector<size_t> step_of(nodes_.size(), 0);
  AttrSet written;
  for (size_t d = 0; d < tree_.preorder.size(); ++d) {
    const size_t v = static_cast<size_t>(tree_.preorder[d]);
    const Node& node = nodes_[v];
    Step& step = walk.steps[d];
    step_of[v] = d;
    if (tree_.parent[v] < 0) {
      step.offsets = {0, static_cast<uint32_t>(node.live.size())};
      step.rows = node.live;
    } else {
      const std::vector<uint32_t>& ids = node.up->child;
      step.parent_ids = &node.up->parent;
      step.parent_step = step_of[static_cast<size_t>(tree_.parent[v])];
      step.offsets.assign(static_cast<size_t>(node.up->num_ids) + 1, 0);
      for (uint32_t r : node.live) ++step.offsets[ids[r]];
      std::partial_sum(step.offsets.begin(), step.offsets.end(),
                       step.offsets.begin());
      step.rows.resize(node.live.size());
      for (size_t i = node.live.size(); i-- > 0;) {
        const uint32_t r = node.live[i];
        step.rows[--step.offsets[ids[r]]] = r;
      }
    }
    const std::vector<int>& columns = node.projection->columns;
    for (size_t c = 0; c < columns.size(); ++c) {
      const size_t slot = slot_of[static_cast<size_t>(columns[c])];
      if (slot == result->columns.size() || written.Contains(columns[c])) {
        continue;
      }
      written.Add(columns[c]);
      step.writes.emplace_back(&node.projection->codes[c], slot);
    }
  }
  TupleIdTable seen(result->columns.size());
  walk.chosen.assign(nodes_.size(), 0);
  walk.out.assign(result->columns.size(), 0);
  walk.deadline = deadline;
  walk.materialize = materialize;
  walk.seen = dedup ? &seen : nullptr;
  walk.result = result;
  if (!walk.steps.empty() && !Extend(&walk, 0)) {
    result->status = Status::DeadlineExceeded("join enumeration");
  }
  span.Arg("rows", result->rows);
  obs::Count(sink, "yk.join_rows", result->enumerated);
}

JoinResult YannakakisExecutor::Count(const YannakakisOptions& options) {
  JoinResult result;
  bool dedup = false;
  if (!Prepare(options, &result, &dedup)) return result;
  if (dedup) {
    // The cut join repeats output rows: count the distinct ones it holds.
    Enumerate(options.deadline, options.sink, /*materialize=*/false,
              /*dedup=*/true, &result);
    if (!result.status.ok()) result.rows = 0;
    return result;
  }
  obs::Span span(options.sink, "yk.count");
  uint64_t total = 0;
  result.status = SumProduct(options.deadline, &total);
  if (result.status.ok()) result.rows = total;
  span.Arg("rows", result.rows);
  return result;
}

Status YannakakisExecutor::SumProduct(const Deadline* deadline,
                                      uint64_t* total) const {
  // Leaf to root, each live row's weight is the number of join rows of its
  // subtree that extend it: the product, over its children, of the
  // child's message at the row's separator id, where a child's message is
  // its weights summed per id. The root's weights sum to the join's rows.
  // After the full reduction every row extends to a join row, so every
  // partial product is at most the total: an overflow anywhere means the
  // count does not fit in 64 bits.
  const Status overflow =
      Status::ResourceExhausted("join row count exceeds 2^64 - 1");
  std::vector<std::vector<uint64_t>> messages(nodes_.size());
  std::vector<uint64_t> root_sum(1, 0);
  uint64_t polls = 0;
  for (size_t d = tree_.preorder.size(); d-- > 0;) {
    const size_t v = static_cast<size_t>(tree_.preorder[d]);
    const std::vector<uint32_t>& live = nodes_[v].live;
    std::vector<uint64_t> weight(live.size(), 1);
    for (int c : tree_.children[v]) {
      const std::vector<uint32_t>& ids =
          nodes_[static_cast<size_t>(c)].up->parent;
      const std::vector<uint64_t>& message = messages[static_cast<size_t>(c)];
      for (size_t i = 0; i < live.size(); ++i) {
        if ((++polls & 1023) == 0 && DeadlineExpired(deadline)) {
          return Status::DeadlineExceeded("join count");
        }
        if (__builtin_mul_overflow(weight[i], message[ids[live[i]]],
                                   &weight[i])) {
          return overflow;
        }
      }
      std::vector<uint64_t>().swap(messages[static_cast<size_t>(c)]);
    }
    const EdgeIds* up = tree_.parent[v] < 0 ? nullptr : nodes_[v].up;
    std::vector<uint64_t>& sums = up == nullptr ? root_sum : messages[v];
    if (up != nullptr) sums.assign(up->num_ids, 0);
    for (size_t i = 0; i < live.size(); ++i) {
      if ((++polls & 1023) == 0 && DeadlineExpired(deadline)) {
        return Status::DeadlineExceeded("join count");
      }
      uint64_t& sum = sums[up == nullptr ? 0 : up->child[live[i]]];
      if (__builtin_add_overflow(sum, weight[i], &sum)) return overflow;
    }
  }
  *total = root_sum[0];
  return Status::Ok();
}

std::vector<StoredProjection> YannakakisExecutor::ReducedProjections() const {
  std::vector<StoredProjection> out(nodes_.size());
  for (size_t v = 0; v < nodes_.size(); ++v) {
    const StoredProjection& src = *nodes_[v].projection;
    out[v].attrs = src.attrs;
    out[v].columns = src.columns;
    out[v].domains = src.domains;
    out[v].codes.resize(src.codes.size());
    for (size_t c = 0; c < src.codes.size(); ++c) {
      out[v].codes[c].reserve(nodes_[v].live.size());
      for (uint32_t r : nodes_[v].live) {
        out[v].codes[c].push_back(src.codes[c][r]);
      }
    }
  }
  return out;
}

}  // namespace maimon
