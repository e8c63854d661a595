// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Row labels, the one projection representation: LabelRows and FoldLabels
// against a brute-force first-occurrence group-by, on FoldLabels' dense
// table, its open-addressing table and its key stop; sparse codes; and H
// against the naive engine, bit-identical across both tables.

#include "entropy/row_labels.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "entropy/naive_engine.h"
#include "entropy/pli_engine.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace maimon {
namespace {

std::vector<uint32_t> RandomColumn(size_t rows, uint32_t domain, Rng* rng) {
  std::vector<uint32_t> col(rows);
  for (auto& v : col) v = static_cast<uint32_t>(rng->Uniform(domain));
  return col;
}

Relation RandomRelation(size_t rows, const std::vector<uint32_t>& domains,
                        Rng* rng) {
  std::vector<std::vector<uint32_t>> cols;
  for (uint32_t d : domains) cols.push_back(RandomColumn(rows, d, rng));
  return Relation(std::move(cols), domains);
}

// Brute-force labels of `attrs`: ids in first-occurrence order, from an
// ordered map of the projected tuples.
struct Brute {
  std::vector<uint32_t> labels;
  std::vector<uint32_t> first_rows;
  std::vector<size_t> sizes;  // rows per id, sorted
};

Brute BruteLabels(const Relation& r, AttrSet attrs) {
  Brute out;
  std::map<std::vector<uint32_t>, uint32_t> ids;
  std::vector<size_t> counts;
  for (size_t row = 0; row < r.NumRows(); ++row) {
    std::vector<uint32_t> key;
    for (int c : attrs.ToVector()) key.push_back(r.Value(row, c));
    const auto [it, fresh] =
        ids.emplace(std::move(key), static_cast<uint32_t>(ids.size()));
    if (fresh) {
      out.first_rows.push_back(static_cast<uint32_t>(row));
      counts.push_back(0);
    }
    out.labels.push_back(it->second);
    ++counts[it->second];
  }
  out.sizes = counts;
  std::sort(out.sizes.begin(), out.sizes.end());
  return out;
}

std::vector<size_t> SortedSizes(const RowLabels& labels) {
  std::vector<size_t> counts(labels.num_distinct, 0);
  for (uint32_t id : labels.labels) ++counts[id];
  std::sort(counts.begin(), counts.end());
  return counts;
}

// Folds the labels of `x` by column c and checks the result, id for id,
// against the brute force and LabelRows of X ∪ {c}, with H bit-identical
// to LabelEntropy of those labels and within 1e-12 of the naive engine.
// Callers share one scratch across relations of different sizes, so every
// fold also checks that the previous one left its tables clean.
void CheckFold(const Relation& r, AttrSet x, int c, FoldScratch* scratch) {
  const AttrSet xc = x.Union(AttrSet::Single(c));
  RowLabels out;
  out.labels.assign(3, 7);  // stale contents the fold must overwrite
  const double h = FoldLabels(LabelRows(r, x), LabelRows(r, AttrSet::Single(c)),
                              scratch, &out);

  const Brute brute = BruteLabels(r, xc);
  CHECK(out.labels == brute.labels);
  CHECK_EQ(out.num_distinct, brute.first_rows.size());
  CHECK(SortedSizes(out) == brute.sizes);
  const RowLabels direct = LabelRows(r, xc);
  CHECK(out.labels == direct.labels);
  CHECK_EQ(h, LabelEntropy(direct));
  NaiveEntropyEngine naive(r);
  CHECK_NEAR(h, naive.Entropy(xc), 1e-12);
}

TEST_CASE(LabelRowsMatchesBruteForce) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t rows = 1 + rng.Uniform(500);
    const Relation r = RandomRelation(
        rows, {1 + static_cast<uint32_t>(rng.Uniform(8)),
               1 + static_cast<uint32_t>(rng.Uniform(40)), 3},
        &rng);
    const AttrSet attrs(1 + rng.Uniform(7));
    std::vector<uint32_t> first_rows;
    const RowLabels labels = LabelRows(r, attrs, &first_rows);
    const Brute brute = BruteLabels(r, attrs);
    CHECK(labels.labels == brute.labels);
    CHECK(first_rows == brute.first_rows);
    CHECK_EQ(labels.num_distinct, brute.first_rows.size());
  }
  // The empty set labels every row 0.
  const Relation r = RandomRelation(50, {4}, &rng);
  const RowLabels empty = LabelRows(r, AttrSet());
  CHECK(empty.labels == std::vector<uint32_t>(50, 0));
  CHECK_EQ(empty.num_distinct, 1u);
  CHECK_EQ(LabelEntropy(empty), 0.0);
}

TEST_CASE(DenseFoldMatchesBruteForce) {
  Rng rng(2);
  FoldScratch scratch;
  for (int trial = 0; trial < 30; ++trial) {
    const size_t rows = 2 + rng.Uniform(600);
    const Relation r = RandomRelation(
        rows, {1 + static_cast<uint32_t>(rng.Uniform(24)),
               1 + static_cast<uint32_t>(rng.Uniform(24)),
               1 + static_cast<uint32_t>(rng.Uniform(6))},
        &rng);
    const RowLabels x = LabelRows(r, AttrSet(0b011));
    CHECK(x.num_distinct * LabelRows(r, AttrSet::Single(2)).num_distinct <=
          kDenseFoldSlots);
    CheckFold(r, AttrSet::Single(0), 1, &scratch);
    CheckFold(r, AttrSet(0b011), 2, &scratch);
    CheckFold(r, AttrSet(0b110), 0, &scratch);
  }
}

TEST_CASE(HashFoldMatchesBruteForce) {
  // The naive engine adds one term per id, so its own rounding grows with
  // the id count: a few thousand rows keep it inside CheckFold's 1e-12.
  Rng rng(3);
  FoldScratch scratch;
  for (int trial = 0; trial < 6; ++trial) {
    const size_t rows = 2000 + rng.Uniform(1000);
    const Relation r = RandomRelation(rows, {1500, 1500, 5}, &rng);
    // The product of the distinct counts passes the dense bound.
    CHECK(LabelRows(r, AttrSet::Single(0)).num_distinct *
              LabelRows(r, AttrSet::Single(1)).num_distinct >
          kDenseFoldSlots);
    CheckFold(r, AttrSet::Single(0), 1, &scratch);
    CheckFold(r, AttrSet(0b011), 2, &scratch);  // dense: ~rows x 5 pairs
    CheckFold(r, AttrSet(0b101), 1, &scratch);
  }
}

TEST_CASE(DenseAndHashFoldsAgreeBitForBit) {
  // One partition reached both ways: A by B on the open-addressing table,
  // and the labels of AB by a constant column on the dense table. Both
  // must give the same ids and bit-identical H.
  Rng rng(4);
  FoldScratch scratch;
  for (int trial = 0; trial < 6; ++trial) {
    const size_t rows = 4000 + rng.Uniform(2000);
    const Relation r = RandomRelation(rows, {1500, 1500, 1}, &rng);
    const RowLabels a = LabelRows(r, AttrSet::Single(0));
    const RowLabels b = LabelRows(r, AttrSet::Single(1));
    const RowLabels ab = LabelRows(r, AttrSet(0b011));
    const RowLabels constant = LabelRows(r, AttrSet::Single(2));
    CHECK(a.num_distinct * b.num_distinct > kDenseFoldSlots);
    CHECK(ab.num_distinct * constant.num_distinct <= kDenseFoldSlots);
    RowLabels hashed, dense;
    const double h_hashed = FoldLabels(a, b, &scratch, &hashed);
    const double h_dense = FoldLabels(ab, constant, &scratch, &dense);
    CHECK(hashed.labels == dense.labels);
    CHECK_EQ(hashed.num_distinct, dense.num_distinct);
    CHECK_EQ(h_hashed, h_dense);
  }
}

TEST_CASE(KeyStopGivesRowIdsAndLog2N) {
  Rng rng(5);
  const size_t rows = 777;
  std::vector<uint32_t> key(rows);
  for (size_t r = 0; r < rows; ++r) key[r] = static_cast<uint32_t>(r);
  for (size_t r = rows; r-- > 1;) {
    std::swap(key[r], key[static_cast<size_t>(rng.Uniform(r + 1))]);
  }
  const Relation rel({key, RandomColumn(rows, 9, &rng)},
                     {static_cast<uint32_t>(rows), 9});
  std::vector<uint32_t> ids(rows);
  for (size_t r = 0; r < rows; ++r) ids[r] = static_cast<uint32_t>(r);
  NaiveEntropyEngine naive(rel);
  FoldScratch scratch;
  // A key on either side of the fold: the result is rows 0..n-1.
  for (int c : {0, 1}) {
    RowLabels out;
    const double h = FoldLabels(LabelRows(rel, AttrSet::Single(1 - c)),
                                LabelRows(rel, AttrSet::Single(c)), &scratch,
                                &out);
    CHECK(out.labels == ids);
    CHECK_EQ(out.num_distinct, rows);
    CHECK_EQ(h, std::log2(static_cast<double>(rows)));
    CHECK_EQ(h, LabelEntropy(LabelRows(rel, AttrSet(0b11))));
    CHECK_NEAR(h, naive.Entropy(AttrSet(0b11)), 1e-12);
  }
  // The empty relation folds to nothing.
  RowLabels out;
  CHECK_EQ(FoldLabels(RowLabels(), RowLabels(), &scratch, &out), 0.0);
  CHECK(out.labels.empty());
  CHECK_EQ(out.num_distinct, 0u);
}

TEST_CASE(FoldChainsEqualLabelRowsAndTheNaiveEngine) {
  // The engine's pattern: a chain of single-column folds, the output
  // buffer reused, must land on LabelRows' ids for every prefix.
  Rng rng(6);
  FoldScratch scratch;
  for (int trial = 0; trial < 10; ++trial) {
    const size_t rows = 50 + rng.Uniform(2000);
    const Relation r = RandomRelation(rows, {7, 3, 40, 2, 900}, &rng);
    NaiveEntropyEngine naive(r);
    RowLabels bufs[2];
    RowLabels cur = LabelRows(r, AttrSet::Single(0));
    AttrSet have = AttrSet::Single(0);
    for (int c = 1; c < r.NumCols(); ++c) {
      RowLabels& out = bufs[c % 2];
      const double h =
          FoldLabels(cur, LabelRows(r, AttrSet::Single(c)), &scratch, &out);
      have.Add(c);
      const RowLabels direct = LabelRows(r, have);
      CHECK(out.labels == direct.labels);
      CHECK_EQ(out.num_distinct, direct.num_distinct);
      CHECK_EQ(h, LabelEntropy(direct));
      CHECK_NEAR(h, naive.Entropy(have), 1e-12);
      cur = out;
    }
  }
}

TEST_CASE(SparseCodesLabelLikeTheirDenseRanks) {
  // An imported CSV keeps its codes verbatim, so one column's domain can
  // reach 2^32 - 1 over a handful of rows. Its labels (and the engine's
  // single-column H) must be those of the dense relabeling, built with no
  // array sized by the domain.
  const std::vector<uint32_t> sparse = {
      4294967294u, 7u, 4294967294u, 2147483648u, 7u, 0u, 7u, 2147483648u,
      123456789u,  4294967294u};
  std::map<uint32_t, uint32_t> rank;
  for (uint32_t code : sparse) rank.emplace(code, 0);
  uint32_t next = 0;
  for (auto& [code, r] : rank) r = next++;
  std::vector<uint32_t> dense;
  for (uint32_t code : sparse) dense.push_back(rank[code]);
  const Relation wide({sparse, dense}, {4294967295u, next});

  const RowLabels p = LabelRows(wide, AttrSet::Single(0));
  const RowLabels q = LabelRows(wide, AttrSet::Single(1));
  CHECK(p.labels ==
        (std::vector<uint32_t>{0, 1, 0, 2, 1, 3, 1, 2, 4, 0}));
  CHECK(p.labels == q.labels);
  CHECK_EQ(p.num_distinct, 5u);
  CHECK(SortedSizes(p) == (std::vector<size_t>{1, 1, 2, 3, 3}));
  CHECK_EQ(LabelEntropy(p), LabelEntropy(q));  // bit-identical
  CHECK_EQ(p.MemoryBytes(), q.MemoryBytes());

  PliEntropyEngine engine(wide);
  CHECK_EQ(engine.Entropy(AttrSet::Single(0)),
           engine.Entropy(AttrSet::Single(1)));
  NaiveEntropyEngine naive(wide);
  CHECK_NEAR(engine.Entropy(AttrSet::Single(0)),
             naive.Entropy(AttrSet::Single(0)), 1e-12);
  CHECK_EQ(engine.Entropy(AttrSet(0b11)), LabelEntropy(p));
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
