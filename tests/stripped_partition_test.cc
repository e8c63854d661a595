// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// StrippedPartition invariants: group refinement, singleton stripping, and
// row-count conservation, cross-checked against a brute-force group-by.

#include "entropy/stripped_partition.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "tests/test_util.h"
#include "util/rng.h"

namespace maimon {
namespace {

std::vector<uint32_t> RandomColumn(size_t rows, uint32_t domain, Rng* rng) {
  std::vector<uint32_t> col(rows);
  for (auto& v : col) v = static_cast<uint32_t>(rng->Uniform(domain));
  return col;
}

// Brute-force stripped group sizes of a multi-column group-by, sorted.
std::vector<size_t> BruteGroupSizes(
    const std::vector<const std::vector<uint32_t>*>& cols, size_t rows) {
  std::map<std::vector<uint32_t>, size_t> groups;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<uint32_t> key;
    key.reserve(cols.size());
    for (const auto* c : cols) key.push_back((*c)[r]);
    ++groups[key];
  }
  std::vector<size_t> sizes;
  for (const auto& [key, count] : groups) {
    if (count >= 2) sizes.push_back(count);
  }
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

std::vector<size_t> PartitionGroupSizes(const StrippedPartition& p) {
  std::vector<size_t> sizes;
  for (size_t g = 0; g < p.NumGroups(); ++g) sizes.push_back(p.GroupSize(g));
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

TEST_CASE(FromColumnMatchesBruteForce) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t rows = 1 + rng.Uniform(500);
    const uint32_t domain = 1 + static_cast<uint32_t>(rng.Uniform(40));
    const auto col = RandomColumn(rows, domain, &rng);
    const StrippedPartition p = StrippedPartition::FromColumn(col, domain);

    CHECK_EQ(p.NumRows(), rows);
    CHECK_EQ(PartitionGroupSizes(p), BruteGroupSizes({&col}, rows));
    // Row-count conservation: stripped rows + singletons == all rows.
    CHECK_EQ(p.SumGroupSizes() + p.NumSingletons(), rows);
    // Singleton stripping: no group of size < 2 survives.
    for (size_t g = 0; g < p.NumGroups(); ++g) CHECK(p.GroupSize(g) >= 2);
  }

  // Sparse codes: an imported CSV keeps its codes verbatim, so the domain
  // can reach 2^32 - 1 over a handful of rows. The partition must be the
  // one the dense relabeling (rank of each distinct code) builds, without
  // domain-sized arrays.
  const std::vector<uint32_t> sparse = {
      4294967294u, 7u, 4294967294u, 2147483648u, 7u, 0u, 7u, 2147483648u,
      123456789u,  4294967294u};
  std::map<uint32_t, uint32_t> rank;
  for (uint32_t code : sparse) rank.emplace(code, 0);
  uint32_t next = 0;
  for (auto& [code, r] : rank) r = next++;
  std::vector<uint32_t> dense;
  for (uint32_t code : sparse) dense.push_back(rank[code]);
  const StrippedPartition p =
      StrippedPartition::FromColumn(sparse, 4294967295u);
  const StrippedPartition q = StrippedPartition::FromColumn(dense, next);
  CHECK_EQ(PartitionGroupSizes(p), BruteGroupSizes({&sparse}, sparse.size()));
  CHECK_EQ(PartitionGroupSizes(p), (std::vector<size_t>{2, 3, 3}));
  CHECK_EQ(p.NumGroups(), q.NumGroups());
  for (size_t g = 0; g < p.NumGroups(); ++g) {
    CHECK(std::equal(p.GroupBegin(g), p.GroupEnd(g), q.GroupBegin(g),
                     q.GroupEnd(g)));
  }
  CHECK_EQ(p.Entropy(), q.Entropy());  // bit-identical
  CHECK_EQ(p.MemoryBytes(), q.MemoryBytes());
}

TEST_CASE(IntersectMatchesBruteForceAndRefines) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t rows = 2 + rng.Uniform(600);
    const uint32_t d1 = 1 + static_cast<uint32_t>(rng.Uniform(24));
    const uint32_t d2 = 1 + static_cast<uint32_t>(rng.Uniform(24));
    const auto c1 = RandomColumn(rows, d1, &rng);
    const auto c2 = RandomColumn(rows, d2, &rng);
    const StrippedPartition p1 = StrippedPartition::FromColumn(c1, d1);
    const StrippedPartition p2 = StrippedPartition::FromColumn(c2, d2);

    IntersectScratch scratch;
    const StrippedPartition p = p1.Intersect(p2, &scratch);

    CHECK_EQ(p.NumRows(), rows);
    CHECK_EQ(PartitionGroupSizes(p), BruteGroupSizes({&c1, &c2}, rows));
    CHECK_EQ(p.SumGroupSizes() + p.NumSingletons(), rows);

    // Refinement: every product group lies inside one group of each parent
    // (its rows agree on both columns).
    for (size_t g = 0; g < p.NumGroups(); ++g) {
      const int32_t first = *p.GroupBegin(g);
      for (const int32_t* r = p.GroupBegin(g); r != p.GroupEnd(g); ++r) {
        CHECK_EQ(c1[static_cast<size_t>(*r)], c1[static_cast<size_t>(first)]);
        CHECK_EQ(c2[static_cast<size_t>(*r)], c2[static_cast<size_t>(first)]);
      }
    }
  }
}

TEST_CASE(IntersectAssociativeOnChains) {
  Rng rng(3);
  const size_t rows = 400;
  const uint32_t domain = 6;
  const auto c1 = RandomColumn(rows, domain, &rng);
  const auto c2 = RandomColumn(rows, domain, &rng);
  const auto c3 = RandomColumn(rows, domain, &rng);
  const auto p1 = StrippedPartition::FromColumn(c1, domain);
  const auto p2 = StrippedPartition::FromColumn(c2, domain);
  const auto p3 = StrippedPartition::FromColumn(c3, domain);

  IntersectScratch scratch;
  const auto left = p1.Intersect(p2, &scratch).Intersect(p3, &scratch);
  const auto right = p1.Intersect(p3, &scratch).Intersect(p2, &scratch);
  CHECK_EQ(PartitionGroupSizes(left), PartitionGroupSizes(right));
  CHECK_EQ(PartitionGroupSizes(left), BruteGroupSizes({&c1, &c2, &c3}, rows));
  CHECK_NEAR(left.Entropy(), right.Entropy(), 1e-12);
}

TEST_CASE(SharedScratchStaysCorrectAcrossRelationSizes) {
  Rng rng(11);
  IntersectScratch scratch;
  for (int trial = 0; trial < 20; ++trial) {
    const size_t rows = 2 + rng.Uniform(600);
    const uint32_t d1 = 1 + static_cast<uint32_t>(rng.Uniform(24));
    const uint32_t d2 = 1 + static_cast<uint32_t>(rng.Uniform(24));
    const auto c1 = RandomColumn(rows, d1, &rng);
    const auto c2 = RandomColumn(rows, d2, &rng);
    const StrippedPartition p1 = StrippedPartition::FromColumn(c1, d1);
    const StrippedPartition p2 = StrippedPartition::FromColumn(c2, d2);

    // One scratch across all trials (the row counts differ every time):
    // every call must invalidate the previous trial's tags via the epoch
    // bump alone.
    const StrippedPartition p = p1.Intersect(p2, &scratch);

    CHECK_EQ(p.NumRows(), rows);
    CHECK_EQ(PartitionGroupSizes(p), BruteGroupSizes({&c1, &c2}, rows));
  }
}

TEST_CASE(FusedEntropyOutIsBitIdenticalToRescan) {
  Rng rng(12);
  IntersectScratch scratch;
  StrippedPartition out;
  for (int trial = 0; trial < 20; ++trial) {
    const size_t rows = 2 + rng.Uniform(500);
    const uint32_t d1 = 1 + static_cast<uint32_t>(rng.Uniform(16));
    const uint32_t d2 = 1 + static_cast<uint32_t>(rng.Uniform(16));
    const auto c1 = RandomColumn(rows, d1, &rng);
    const auto c2 = RandomColumn(rows, d2, &rng);
    const auto p1 = StrippedPartition::FromColumn(c1, d1);
    const auto p2 = StrippedPartition::FromColumn(c2, d2);

    // `out` is reused across trials: IntersectInto must fully reset it.
    double h = -1.0;
    p1.IntersectInto(p2, &scratch, &out, &h);
    CHECK_EQ(h, out.Entropy());

    // Without an entropy request the product is the same partition.
    StrippedPartition out2;
    p1.IntersectInto(p2, &scratch, &out2);
    CHECK_EQ(PartitionGroupSizes(out), PartitionGroupSizes(out2));
  }
}

TEST_CASE(ChainReusesBuffersAndStaysCorrect) {
  Rng rng(13);
  const size_t rows = 400;
  const uint32_t domain = 6;
  const auto c1 = RandomColumn(rows, domain, &rng);
  const auto c2 = RandomColumn(rows, domain, &rng);
  const auto c3 = RandomColumn(rows, domain, &rng);
  const auto p1 = StrippedPartition::FromColumn(c1, domain);
  const auto p2 = StrippedPartition::FromColumn(c2, domain);
  const auto p3 = StrippedPartition::FromColumn(c3, domain);

  // Ping-pong two buffers down the chain, the engine's fold pattern.
  IntersectScratch scratch;
  StrippedPartition bufs[2];
  p1.IntersectInto(p2, &scratch, &bufs[0]);
  double h = -1.0;
  bufs[0].IntersectInto(p3, &scratch, &bufs[1], &h);
  CHECK_EQ(PartitionGroupSizes(bufs[1]), BruteGroupSizes({&c1, &c2, &c3}, rows));
  CHECK_EQ(h, bufs[1].Entropy());
}

TEST_CASE(EpochScratchSurvivesWraparound) {
  Rng rng(14);
  const size_t rows = 300;
  const uint32_t domain = 5;
  const auto c1 = RandomColumn(rows, domain, &rng);
  const auto c2 = RandomColumn(rows, domain, &rng);
  const auto p1 = StrippedPartition::FromColumn(c1, domain);
  const auto p2 = StrippedPartition::FromColumn(c2, domain);
  const auto expected = BruteGroupSizes({&c1, &c2}, rows);

  IntersectScratch scratch;
  // Stamp real tags first so the wrap has stale state to invalidate.
  CHECK_EQ(PartitionGroupSizes(p1.Intersect(p2, &scratch)), expected);
  CHECK_EQ(scratch.epoch(), 1u);

  // Jump to the edge: the next calls walk epoch through UINT32_MAX and
  // around. The wrap path must zero-fill and restart at 1, never 0 —
  // slot value 0 parses as epoch 0 and must never read as current.
  scratch.SetEpochForTest(UINT32_MAX - 2);
  for (int i = 0; i < 6; ++i) {
    CHECK_EQ(PartitionGroupSizes(p1.Intersect(p2, &scratch)), expected);
    CHECK(scratch.epoch() != 0u);
  }
  CHECK_EQ(scratch.epoch(), 4u);  // MAX-1, MAX, wrap->1, 2, 3, 4
}

TEST_CASE(IdentityIsNeutralElement) {
  Rng rng(4);
  const size_t rows = 257;
  const uint32_t domain = 9;
  const auto c1 = RandomColumn(rows, domain, &rng);
  const auto p1 = StrippedPartition::FromColumn(c1, domain);
  const auto id = StrippedPartition::Identity(rows);

  IntersectScratch scratch;
  CHECK_EQ(PartitionGroupSizes(id.Intersect(p1, &scratch)),
           PartitionGroupSizes(p1));
  CHECK_EQ(PartitionGroupSizes(p1.Intersect(id, &scratch)),
           PartitionGroupSizes(p1));
  CHECK_NEAR(id.Entropy(), 0.0, 1e-12);
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
