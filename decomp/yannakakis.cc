// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "decomp/yannakakis.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "util/parallel_for.h"

namespace maimon {
namespace {

// Positions (within `columns`) of the attributes in `shared`.
std::vector<int> SharedPositions(const std::vector<int>& columns,
                                 AttrSet shared) {
  std::vector<int> out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (shared.Contains(columns[i])) out.push_back(static_cast<int>(i));
  }
  return out;
}

// Byte-packed key of row `r` of `p` over the column `positions`: the same
// bytes PackTupleKey packs from the row as a row-major tuple.
std::string RowKey(const StoredProjection& p, const std::vector<int>& positions,
                   uint32_t r) {
  std::string key(positions.size() * sizeof(uint32_t), '\0');
  for (size_t i = 0; i < positions.size(); ++i) {
    std::memcpy(&key[i * sizeof(uint32_t)],
                &p.codes[static_cast<size_t>(positions[i])][r],
                sizeof(uint32_t));
  }
  return key;
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

}  // namespace

YannakakisExecutor::YannakakisExecutor(const ProjectionStore& store)
    : YannakakisExecutor(EveryRow(store)) {}

YannakakisExecutor::YannakakisExecutor(std::vector<ProjectionRows> inputs) {
  std::vector<AttrSet> rels;
  rels.reserve(inputs.size());
  AttrSet universe;
  for (const ProjectionRows& in : inputs) {
    rels.push_back(in.projection->attrs);
    universe = universe.Union(in.projection->attrs);
  }
  tree_ = BuildMaxOverlapJoinTree(rels);

  out_columns_ = universe.ToVector();
  std::vector<size_t> slot_of(static_cast<size_t>(AttrSet::kMaxAttrs), 0);
  for (size_t i = 0; i < out_columns_.size(); ++i) {
    slot_of[static_cast<size_t>(out_columns_[i])] = i;
  }
  nodes_.resize(inputs.size());
  out_positions_.resize(inputs.size());
  for (size_t v = 0; v < inputs.size(); ++v) {
    Node& node = nodes_[v];
    node.projection = inputs[v].projection;
    node.live = std::move(inputs[v].rows);
    for (int c : node.projection->columns) {
      out_positions_[v].push_back(slot_of[static_cast<size_t>(c)]);
    }
    const int parent = tree_.parent[v];
    if (parent < 0) continue;
    const StoredProjection& up =
        *inputs[static_cast<size_t>(parent)].projection;
    const AttrSet sep = rels[v].Intersect(up.attrs);
    node.sep_positions = SharedPositions(node.projection->columns, sep);
    node.parent_positions = SharedPositions(up.columns, sep);
    for (int p : node.sep_positions) {
      node.sep_slots.push_back(
          static_cast<int>(out_positions_[v][static_cast<size_t>(p)]));
    }
  }
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
  // Semijoins node `target` with node `source` on their separator (at
  // `target_pos` / `source_pos`): keeps the target's live rows whose key
  // appears among the source's, in order, so the reduced lists are
  // scheduling-independent. The deadline is polled every 1024 rows of
  // either loop — a single huge node must not overrun a per-query budget
  // by a whole level. Returns false on expiry: a partial key set is never
  // semijoined against (it would drop rows that do have partners), and the
  // target's unexamined tail is kept unfiltered, so the node stays a valid
  // (merely under-reduced) projection.
  const auto semijoin = [&](size_t target, const std::vector<int>& target_pos,
                            size_t source, const std::vector<int>& source_pos) {
    const Node& from = nodes_[source];
    std::unordered_set<std::string> keys;
    keys.reserve(from.live.size());
    for (size_t i = 0; i < from.live.size(); ++i) {
      if (((i + 1) & 1023) == 0 && DeadlineExpired(deadline)) return false;
      keys.insert(RowKey(*from.projection, source_pos, from.live[i]));
    }
    ++passes[target];
    const StoredProjection& to = *nodes_[target].projection;
    std::vector<uint32_t>& live = nodes_[target].live;
    size_t kept = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      if (((i + 1) & 1023) == 0 && DeadlineExpired(deadline)) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(kept),
                   live.begin() + static_cast<std::ptrdiff_t>(i));
        return false;
      }
      if (keys.count(RowKey(to, target_pos, live[i])) > 0) {
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
      return semijoin(v, nodes_[c].parent_positions, c,
                      nodes_[c].sep_positions);
    });
  }
  // Root-to-leaf: each child is filtered against its (now fully reduced)
  // parent; afterwards no row anywhere is dangling.
  if (!expired.load()) phase = "semijoin reducer (root-to-leaf)";
  for (size_t d = 0; d + 1 < levels.size() && !expired.load(); ++d) {
    run_level(levels[d], [&](size_t v, size_t c) {
      return semijoin(c, nodes_[c].sep_positions, v,
                      nodes_[c].parent_positions);
    });
  }
  for (uint64_t d : dropped) semijoin_dropped_ += d;
  for (uint64_t p : passes) semijoin_passes_ += p;
  if (expired.load()) return Status::DeadlineExceeded(phase);
  reduced_ = true;
  return Status::Ok();
}

JoinResult YannakakisExecutor::Execute(const YannakakisOptions& options) {
  JoinResult result;
  result.columns = out_columns_;
  result.status = Reduce(options.deadline, options.num_threads, options.sink);
  if (!result.status.ok()) return result;

  obs::Span span(options.sink, "yk.join");

  // Per-node hash index on the parent separator.
  for (size_t v = 0; v < nodes_.size(); ++v) {
    if (tree_.parent[v] < 0) continue;
    Node& node = nodes_[v];
    node.index.clear();
    node.index.reserve(node.live.size());
    for (uint32_t r : node.live) {
      node.index[RowKey(*node.projection, node.sep_positions, r)].push_back(r);
    }
  }

  std::vector<uint32_t> out(out_columns_.size(), 0);
  uint64_t poll_counter = 0;
  if (!Extend(0, &out, &result, options, &poll_counter)) {
    result.status = Status::DeadlineExceeded("join enumeration");
  }
  span.Arg("rows", result.rows);
  obs::Count(options.sink, "yk.join_rows", result.rows);
  return result;
}

bool YannakakisExecutor::Extend(size_t depth, std::vector<uint32_t>* out,
                                JoinResult* result,
                                const YannakakisOptions& options,
                                uint64_t* poll_counter) {
  if (depth == tree_.preorder.size()) {
    ++result->rows;
    if (options.on_row) options.on_row(*out);
    if (options.materialize) result->tuples.push_back(*out);
    // Poll every 1024 rows: cheap enough to vanish in the join cost, tight
    // enough that a blown budget stops within microseconds.
    if ((++*poll_counter & 1023) == 0 && DeadlineExpired(options.deadline)) {
      return false;
    }
    return true;
  }

  const size_t v = static_cast<size_t>(tree_.preorder[depth]);
  const Node& node = nodes_[v];
  const std::vector<std::vector<uint32_t>>& codes = node.projection->codes;
  const std::vector<size_t>& slots = out_positions_[v];

  const auto emit_row = [&](uint32_t r) {
    for (size_t i = 0; i < slots.size(); ++i) (*out)[slots[i]] = codes[i][r];
    return Extend(depth + 1, out, result, options, poll_counter);
  };

  if (tree_.parent[v] < 0) {
    for (uint32_t r : node.live) {
      if (!emit_row(r)) return false;
      if ((++*poll_counter & 1023) == 0 && DeadlineExpired(options.deadline)) {
        return false;
      }
    }
    return true;
  }

  // The parent is already placed (preorder), so the separator values are
  // bound in `out`; look the child rows up by that key.
  const auto it = node.index.find(PackTupleKey(*out, node.sep_slots));
  if (it == node.index.end()) return true;  // no extension below v
  for (uint32_t r : it->second) {
    if (!emit_row(r)) return false;
  }
  return true;
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
