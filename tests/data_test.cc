// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Data layer checks: Relation transforms, generator determinism, the shape
// registry, and the structural facts the bench comments promise (Nursery's
// 12,960 x 9 product with a determined class column).

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "data/metanome_shapes.h"
#include "data/nursery.h"
#include "data/planted.h"
#include "data/relation_io.h"
#include "entropy/pli_engine.h"
#include "tests/test_util.h"

namespace maimon {
namespace {

TEST_CASE(PlantedGeneratorIsDeterministicAndShaped) {
  PlantedSpec spec;
  spec.num_attrs = 9;
  spec.num_bags = 3;
  spec.root_rows = 100;
  spec.max_rows = 400;
  spec.domain_size = 12;
  spec.seed = 77;
  const PlantedDataset a = GeneratePlanted(spec);
  const PlantedDataset b = GeneratePlanted(spec);

  CHECK_EQ(a.relation.NumCols(), 9);
  CHECK(a.relation.NumRows() <= 400);
  CHECK(a.relation.NumRows() >= 100);
  CHECK_EQ(a.relation.NumRows(), b.relation.NumRows());
  for (int c = 0; c < a.relation.NumCols(); ++c) {
    CHECK_EQ(a.relation.Column(c), b.relation.Column(c));
  }
  CHECK_EQ(a.schema.Support().size(), size_t{2});  // one per chain separator
  CHECK_EQ(a.schema.Bags().size(), size_t{3});
  // Support MVDs partition the universe.
  for (const Mvd& phi : a.schema.Support()) {
    CHECK_EQ(phi.Attrs(), a.relation.Universe());
    CHECK(!phi.deps()[0].Intersects(phi.deps()[1]));
  }
}

TEST_CASE(RelationTransforms) {
  PlantedSpec spec;
  spec.num_attrs = 6;
  spec.root_rows = 64;
  spec.max_rows = 256;
  spec.seed = 5;
  const Relation r = GeneratePlanted(spec).relation;

  const Relation half = r.SampleRows(0.5, 3);
  CHECK(half.NumRows() > 0);
  CHECK(half.NumRows() < r.NumRows());
  CHECK_EQ(half.NumCols(), r.NumCols());
  // Deterministic in the seed.
  CHECK_EQ(r.SampleRows(0.5, 3).NumRows(), half.NumRows());

  const Relation narrow = r.ProjectWithDuplicates(AttrSet(0b1011));
  CHECK_EQ(narrow.NumCols(), 3);
  CHECK_EQ(narrow.NumRows(), r.NumRows());
  CHECK_EQ(narrow.Column(0), r.Column(0));
  CHECK_EQ(narrow.Column(1), r.Column(1));
  CHECK_EQ(narrow.Column(2), r.Column(3));
}

TEST_CASE(ShapeRegistryCoversBenchDatasets) {
  CHECK_EQ(Table2Shapes().size(), size_t{20});
  for (const char* name :
       {"Image", "Four Square (Spots)", "Ditag Feature", "Entity Source",
        "Voter State", "Census", "Abalone", "Adult", "Breast-Cancer",
        "Bridges", "Echocardiogram", "FD_Reduced_15", "Hepatitis",
        "Classification", "Nursery"}) {
    CHECK(FindShape(name).ok());
  }
  CHECK(!FindShape("No Such Dataset").ok());

  const auto shape = FindShape("Bridges");
  const PlantedDataset d = GenerateShaped(*shape, 1.0);
  CHECK_EQ(d.relation.NumCols(), shape->columns);
  CHECK_EQ(d.relation.NumRows(), shape->paper_rows);

  // Scaling caps rows, never columns.
  const PlantedDataset scaled = GenerateShaped(*FindShape("Adult"), 0.01);
  CHECK_EQ(scaled.relation.NumCols(), 14);
  CHECK(scaled.relation.NumRows() <= 489);
}

TEST_CASE(CsvRoundTripsExactly) {
  PlantedSpec spec;
  spec.num_attrs = 5;
  spec.root_rows = 32;
  spec.max_rows = 128;
  spec.noise_fraction = 0.1;
  spec.seed = 19;
  const Relation r = GeneratePlanted(spec).relation;

  const std::string path = "data_test_roundtrip.csv";
  CHECK(ExportCsv(r, path).ok());
  Relation back;
  std::vector<std::string> header;
  CHECK(ImportCsv(path, &back, &header).ok());
  std::remove(path.c_str());

  // Codes are preserved verbatim: column-identical data, default header.
  CHECK_EQ(header, DefaultColumnNames(r.NumCols()));
  CHECK_EQ(back.NumRows(), r.NumRows());
  CHECK_EQ(back.NumCols(), r.NumCols());
  for (int c = 0; c < r.NumCols(); ++c) {
    CHECK_EQ(back.Column(c), r.Column(c));
    // Imported domains tighten to the observed maximum but stay valid.
    CHECK(back.DomainSize(c) <= r.DomainSize(c));
  }

  // Custom header names survive the round trip too.
  CHECK(ExportCsv(r, path, {"v", "w", "x", "y", "z"}).ok());
  CHECK(ImportCsv(path, &back, &header).ok());
  std::remove(path.c_str());
  CHECK_EQ(header, (std::vector<std::string>{"v", "w", "x", "y", "z"}));

  // Malformed inputs are rejected, not mangled.
  CHECK(!ExportCsv(r, path, {"only-one-name"}).ok());
  CHECK(!ImportCsv("no_such_file.csv", &back).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("A,B\n1,2\n3\n", f);  // ragged row
    std::fclose(f);
  }
  CHECK(!ImportCsv(path, &back).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("A,B\n1,oops\n", f);  // non-integer cell
    std::fclose(f);
  }
  CHECK(!ImportCsv(path, &back).ok());
  std::remove(path.c_str());
}

TEST_CASE(CsvImportRejectsWhatAttrSetCannotAddress) {
  // One header row of `cols` names, then one data row repeating `cell`.
  const std::string path = "data_test_limits.csv";
  const auto write_csv = [&](int cols, const std::string& cell) {
    std::string text;
    const std::vector<std::string> names = DefaultColumnNames(cols);
    for (int c = 0; c < cols; ++c) text += (c > 0 ? "," : "") + names[c];
    text += "\n";
    for (int c = 0; c < cols; ++c) text += (c > 0 ? "," : "") + cell;
    text += "\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(text.c_str(), f);
    std::fclose(f);
  };

  // 64 columns is the widest relation AttrSet addresses: imported whole.
  Relation r;
  write_csv(AttrSet::kMaxAttrs, "3");
  CHECK(ImportCsv(path, &r).ok());
  CHECK_EQ(r.NumCols(), AttrSet::kMaxAttrs);
  CHECK_EQ(r.Universe().Count(), AttrSet::kMaxAttrs);
  CHECK_EQ(r.DomainSize(AttrSet::kMaxAttrs - 1), 4u);

  // A 65th column would be silently left out of Universe(): rejected.
  write_csv(AttrSet::kMaxAttrs + 1, "3");
  CHECK(ImportCsv(path, &r).code() == Status::Code::kInvalidArgument);

  // 4294967295 would wrap its domain size (max code + 1) to 0: rejected.
  // One less is the largest code a u32 domain can hold.
  write_csv(2, "4294967295");
  CHECK(ImportCsv(path, &r).code() == Status::Code::kInvalidArgument);
  write_csv(2, "4294967294");
  CHECK(ImportCsv(path, &r).ok());
  CHECK_EQ(r.DomainSize(0), 4294967295u);
  std::remove(path.c_str());
}

TEST_CASE(AttrSetMembershipIsTotalOutsideTheMask) {
  // No set holds an attribute outside [0, 64): Contains is false and
  // Without returns the set unchanged, never shifting past the mask width.
  const AttrSet full = AttrSet::Universe(AttrSet::kMaxAttrs);
  const AttrSet some(0b1011);
  for (int attr : {-1, AttrSet::kMaxAttrs, AttrSet::kMaxAttrs + 1, 1 << 20,
                   std::numeric_limits<int>::min(),
                   std::numeric_limits<int>::max()}) {
    CHECK(!full.Contains(attr));
    CHECK(!AttrSet(1).Contains(attr));
    CHECK_EQ(full.Without(attr), full);
    CHECK_EQ(some.Without(attr), some);
  }
  // In range, the top bit included, membership is the mask's.
  CHECK(full.Contains(AttrSet::kMaxAttrs - 1));
  CHECK(!full.Without(AttrSet::kMaxAttrs - 1)
             .Contains(AttrSet::kMaxAttrs - 1));
  CHECK(some.Contains(3));
  CHECK(!some.Contains(2));
  CHECK_EQ(some.Without(1), AttrSet(0b1001));
}

TEST_CASE(NurseryMatchesThePaperShape) {
  const Relation nursery = NurseryDataset();
  CHECK_EQ(nursery.NumRows(), size_t{12960});
  CHECK_EQ(nursery.NumCols(), 9);
  CHECK_EQ(nursery.CellCount(), size_t{116640});

  // Full product of the inputs: H(inputs) = sum of single-column H, and the
  // class column is determined: H(all) == H(inputs).
  PliEntropyEngine engine(nursery);
  const AttrSet inputs((uint64_t{1} << 8) - 1);
  double sum_singles = 0;
  for (int c = 0; c < 8; ++c) sum_singles += engine.Entropy(AttrSet::Single(c));
  CHECK_NEAR(engine.Entropy(inputs), sum_singles, 1e-9);
  CHECK_NEAR(engine.Entropy(nursery.Universe()), engine.Entropy(inputs),
             1e-9);
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
