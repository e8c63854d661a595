// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The exactness contract of the Sec. 6.3 engine: PLI-based entropies agree
// with the naive full-scan oracle to 1e-9 on 50 random planted relations,
// across every attribute subset (up to 2^10 per relation). Exercised at
// several block sizes L so the staging path is covered, not just the memo.

#include <cstdint>
#include <cstring>

#include "data/planted.h"
#include "entropy/naive_engine.h"
#include "entropy/pli_engine.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace maimon {
namespace {

TEST_CASE(PliAgreesWithNaiveOnAllSubsets) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    PlantedSpec spec;
    spec.num_attrs = 3 + static_cast<int>(rng.Uniform(8));  // 3..10 columns
    spec.num_bags = 1 + static_cast<int>(rng.Uniform(3));
    spec.root_rows = 16 + rng.Uniform(200);
    spec.max_rows = spec.root_rows * (1 + rng.Uniform(4));
    spec.noise_fraction = rng.NextDouble() * 0.2;
    spec.domain_size = 2 + static_cast<uint32_t>(rng.Uniform(12));
    spec.seed = rng.Next64();
    const Relation r = GeneratePlanted(spec).relation;

    NaiveEntropyEngine naive(r);
    PliEngineOptions opt;
    opt.block_size = 1 + static_cast<int>(rng.Uniform(10));
    PliEntropyEngine pli(r, opt);

    const uint64_t subsets = uint64_t{1} << r.NumCols();
    std::vector<double> expected(subsets);
    for (uint64_t mask = 0; mask < subsets; ++mask) {
      const AttrSet q(mask);
      expected[mask] = naive.Entropy(q);
      CHECK_NEAR(pli.Entropy(q), expected[mask], 1e-9);
    }
    // Second sweep hits the value memo and must stay identical.
    for (uint64_t mask = 0; mask < subsets; ++mask) {
      CHECK_NEAR(pli.Entropy(AttrSet(mask)), expected[mask], 1e-9);
    }
  }
}

// Path-independence gate: H must be a pure function of the attribute set,
// whatever intersection route produced the partition. Two engines with
// different block sizes (hence different caching/staging decisions, hence
// different chain starting points) must return BIT-IDENTICAL values — not
// merely close — which pins the canonical ascending-size accumulation
// order in FinishEntropy. (This check descends from the fused-vs-legacy
// differential oracle; the legacy three-pass kernel is gone, and
// NaiveEntropyEngine above remains the exactness oracle.)
TEST_CASE(EntropyIsBitIdenticalAcrossCachePaths) {
  Rng rng(77);
  for (int trial = 0; trial < 12; ++trial) {
    PlantedSpec spec;
    spec.num_attrs = 3 + static_cast<int>(rng.Uniform(8));  // 3..10 columns
    spec.num_bags = 1 + static_cast<int>(rng.Uniform(3));
    spec.root_rows = 16 + rng.Uniform(200);
    spec.max_rows = spec.root_rows * (1 + rng.Uniform(4));
    spec.noise_fraction = rng.NextDouble() * 0.2;
    spec.domain_size = 2 + static_cast<uint32_t>(rng.Uniform(12));
    spec.seed = rng.Next64();
    const Relation r = GeneratePlanted(spec).relation;

    PliEngineOptions opt;
    opt.block_size = 1;  // nothing staged beyond singles: depth-first chains
    PliEntropyEngine shallow(r, opt);
    opt.block_size = 10;  // everything stageable: chains start from prefixes
    PliEntropyEngine staged(r, opt);

    const uint64_t subsets = uint64_t{1} << r.NumCols();
    for (uint64_t mask = 0; mask < subsets; ++mask) {
      const AttrSet q(mask);
      CHECK_EQ(shallow.Entropy(q), staged.Entropy(q));
    }
    // Both engines actually ran the kernels (not a silent fallback), and
    // the staged engine's probes found cached prefixes.
    const auto ss = staged.stats();
    CHECK(ss.subset_probes > 0);
    CHECK(ss.fused_entropies > 0);
    CHECK(shallow.stats().fused_entropies > 0);
  }
}

TEST_CASE(EntropyBasicProperties) {
  PlantedSpec spec;
  spec.num_attrs = 6;
  spec.num_bags = 2;
  spec.root_rows = 128;
  spec.max_rows = 512;
  spec.noise_fraction = 0.1;
  spec.domain_size = 8;
  spec.seed = 7;
  const Relation r = GeneratePlanted(spec).relation;
  PliEntropyEngine pli(r);

  CHECK_NEAR(pli.Entropy(AttrSet()), 0.0, 1e-12);
  // Monotone: H(X) <= H(X ∪ Y), chained up the full attribute set.
  double prev = 0.0;
  AttrSet acc;
  for (int c = 0; c < r.NumCols(); ++c) {
    acc.Add(c);
    const double h = pli.Entropy(acc);
    CHECK(h >= prev - 1e-12);
    prev = h;
  }
  // Bounded by log2(rows).
  CHECK(prev <= std::log2(static_cast<double>(r.NumRows())) + 1e-9);

  // Engine counters move: multi-attribute first computations are partition
  // cache misses, repeats are value-memo hits that never reach the shared
  // partition cache.
  const auto cold = pli.stats();
  CHECK(cold.cache.misses > 0);
  CHECK(cold.intersections > 0);
  pli.Entropy(acc);
  const auto warm = pli.stats();
  CHECK_EQ(warm.value_hits, cold.value_hits + 1);
  CHECK_EQ(warm.cache.hits, cold.cache.hits);
  CHECK_EQ(warm.cache.misses, cold.cache.misses);
  CHECK_EQ(warm.subset_probes, cold.subset_probes);
}

TEST_CASE(EntropyMemoKeepsExactValuesWithinItsBound) {
  const auto value = [](uint64_t k) { return static_cast<double>(k) / 3.0; };
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  EntropyMemo memo;
  double h = 0.0;

  // Mask 0 marks a free slot: the empty set is never stored.
  memo.Insert(AttrSet(), 1.0);
  CHECK_EQ(memo.size(), 0u);
  CHECK(!memo.Find(AttrSet(), &h));

  // Fill to half of the bound, through every doubling from the initial
  // table: each rehash must carry every stored value over bit-exactly.
  const uint64_t limit = EntropyMemo::kMaxSlots / 2;
  for (uint64_t k = 1; k <= limit; ++k) memo.Insert(AttrSet(k), value(k));
  CHECK_EQ(memo.size(), limit);
  CHECK_EQ(memo.slots(), EntropyMemo::kMaxSlots);
  bool exact = true;
  for (uint64_t k = 1; k <= limit; ++k) {
    exact = exact && memo.Find(AttrSet(k), &h) && same_bits(h, value(k));
  }
  CHECK(exact);
  CHECK(!memo.Find(AttrSet(limit + 1), &h));

  // Overwriting a stored key is not a new key: no restart.
  memo.Insert(AttrSet(1), value(1));
  CHECK_EQ(memo.size(), limit);

  // One more key would pass half load at the bound: the table restarts
  // empty at the same size instead of growing.
  memo.Insert(AttrSet(limit + 1), value(limit + 1));
  CHECK_EQ(memo.slots(), EntropyMemo::kMaxSlots);
  CHECK_EQ(memo.size(), 1u);
  CHECK(!memo.Find(AttrSet(1), &h));
  CHECK(memo.Find(AttrSet(limit + 1), &h));
  CHECK(same_bits(h, value(limit + 1)));
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
