// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The decomposition runtime's contracts (decomp/):
//
//   * planted bag chains at eps = 0 reconstruct the original relation
//     exactly — zero spurious tuples, join == r under set semantics;
//   * on every <= 12-attribute fixture (clean bag chains, noisy variants,
//     a Nursery sample) and every mined scheme the ranker scored, the
//     materialized Yannakakis |join| equals SchemaReport::join_rows from
//     the analytic counting DP exactly — the two counts come from
//     independent code paths, so this differential is the system's
//     strongest correctness oracle;
//   * join ⊇ r holds at any eps (hard invariant);
//   * the projection store's accounting reproduces the analytic savings S;
//   * deadline expiry mid-join returns a partial audit with
//     kDeadlineExceeded; cyclic schemas are rejected up front;
//   * the executor's sum-product Count equals its enumerated row count on
//     every store here, empty separators and dangling rows included, and
//     an output-only enumeration is the full one projected, row by row;
//   * with `distinct`, Execute and Count over random outputs equal the set
//     projection of the full materialized join on every store here;
//   * TupleIdTable numbers tuples densely in first-occurrence order.

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "core/maimon.h"
#include "data/nursery.h"
#include "data/planted.h"
#include "decomp/projection_store.h"
#include "decomp/tuple_ids.h"
#include "decomp/yannakakis.h"
#include "join/join_tree.h"
#include "scheme/assembler.h"
#include "scheme/ranker.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace maimon {
namespace {

PlantedDataset MakePlanted(int attrs, int bags, uint64_t seed,
                           double noise = 0.0) {
  PlantedSpec spec;
  spec.num_attrs = attrs;
  spec.num_bags = bags;
  spec.root_rows = 128;
  spec.max_rows = 512;
  spec.noise_fraction = noise;
  spec.domain_size = 8;
  spec.seed = seed;
  return GeneratePlanted(spec);
}

// Audits `schema` directly against `relation` (fresh engine + oracle).
DecompositionAudit AuditSchema(const Relation& relation, const Schema& schema,
                               const DecompAuditOptions& options =
                                   DecompAuditOptions()) {
  PliEntropyEngine engine(relation);
  InfoCalc oracle(&engine);
  return DecomposeAndAudit(relation, schema, oracle, options);
}

// The planted ground truth as an acyclic scheme: the support MVDs applied
// as join-tree splits. (The bags alone are a disjoint attribute partition —
// only the chain separators turn them into a connected schema.)
Schema PlantedScheme(const PlantedDataset& d, const InfoCalc& oracle) {
  SchemeAssembler assembler(&oracle, d.relation.Universe());
  std::vector<const Mvd*> mvds;
  for (const Mvd& m : d.schema.Support()) mvds.push_back(&m);
  Schema out;
  assembler.Assemble(mvds, /*emit_intermediates=*/false, nullptr,
                     [&](AssembledScheme&& s) {
                       out = s.schema;
                       return true;
                     });
  return out;
}

TEST_CASE(PlantedBagChainAtEpsZeroReconstructsExactly) {
  for (uint64_t seed : {1u, 9u, 23u}) {
    const PlantedDataset d = MakePlanted(9, 3, seed);
    PliEntropyEngine engine(d.relation);
    InfoCalc oracle(&engine);
    // At zero noise the planted scheme's join must reproduce the relation
    // with nothing spurious.
    const Schema schema = PlantedScheme(d, oracle);
    CHECK_EQ(schema.NumRelations(), 3);
    CHECK(schema.IsAcyclic());
    const DecompositionAudit audit =
        DecomposeAndAudit(d.relation, schema, oracle);
    CHECK(audit.status.ok());
    CHECK(audit.contains_original);
    CHECK(audit.exact);
    CHECK_EQ(audit.spurious, uint64_t{0});
    CHECK_EQ(audit.join_rows, audit.original_distinct);
    CHECK(audit.matches_analytic);
    // J == 0 on the noise-free instance, and the audit agrees: exact.
    CHECK_NEAR(audit.analytic.j_measure, 0.0, 1e-9);
    // Store accounting reproduces the analytic savings bit-for-bit (both
    // compute 100 * (1 - cells/cells) from the same distinct counts).
    CHECK_NEAR(audit.savings_pct, audit.analytic.savings_pct, 1e-12);
    CHECK_EQ(audit.projections.size(), static_cast<size_t>(schema.NumRelations()));
  }
}

TEST_CASE(EveryMinedTopKSchemeMatchesTheCountingDp) {
  // The acceptance differential: <= 12-attribute fixtures — clean bag
  // chains, noisy variants, and a Nursery sample — mined end to end; every
  // scheme the ranker scored (k = all of them) must have a materialized
  // |join| equal to the analytic DP count exactly, and join ⊇ r must hold
  // at every eps. The audit's join and distinct sweep share no code with
  // join/metrics.cc, so this is the DP's oracle; the 4-bag 12-attribute
  // fixture adds schemes whose join tree branches, where a node multiplies
  // the messages of two or more children.
  struct Fixture {
    Relation relation;
    double eps;
  };
  std::vector<Fixture> fixtures;
  fixtures.push_back({MakePlanted(8, 3, 5).relation, 0.0});
  fixtures.push_back({MakePlanted(10, 3, 7).relation, 0.0});
  fixtures.push_back({MakePlanted(8, 3, 11, /*noise=*/0.02).relation, 0.1});
  fixtures.push_back({MakePlanted(9, 2, 13, /*noise=*/0.1).relation, 0.2});
  fixtures.push_back({NurseryDataset().SampleRows(0.05, 3), 0.3});
  fixtures.push_back({MakePlanted(12, 4, 17, /*noise=*/0.02).relation, 0.1});

  size_t branching = 0;  // audited schemes with a node of >= 2 children
  for (const Fixture& fixture : fixtures) {
    MaimonConfig config;
    config.epsilon = fixture.eps;
    config.mvd_budget_seconds = 10.0;
    config.schema_budget_seconds = 10.0;
    config.schemas.max_schemas = 32;
    config.mvd.max_full_mvds_per_separator = 3;
    Maimon maimon(fixture.relation, config);
    const AsMinerResult schemas = maimon.MineSchemas();
    CHECK(!schemas.schemas.empty());

    RankerOptions rank;
    rank.top_k = schemas.schemas.size();
    const RankResult ranked = RankSchemes(fixture.relation, schemas.schemas,
                                          maimon.oracle(), rank);
    CHECK(ranked.status.ok());
    CHECK_EQ(ranked.ranked.size(), schemas.schemas.size());
    for (const RankedScheme& s : ranked.ranked) {
      const JoinTree tree = BuildMaxOverlapJoinTree(s.schema.Relations());
      const auto branches = [](const std::vector<int>& c) {
        return c.size() >= 2;
      };
      if (std::any_of(tree.children.begin(), tree.children.end(), branches)) {
        ++branching;
      }
      const MinedSchema mined{s.schema, s.report.j_measure};
      const DecompositionAudit audit = maimon.DecomposeAndAudit(mined);
      CHECK(audit.status.ok());
      CHECK(audit.matches_analytic);  // |join| == counting DP, exactly
      CHECK(audit.contains_original);  // join ⊇ r at any eps
      // The audit's analytic side is the same DP the ranker scored with.
      CHECK_EQ(audit.analytic.join_rows, s.report.join_rows);
      CHECK_NEAR(audit.savings_pct, s.report.savings_pct, 1e-12);
      // E consistency: spurious count and rate describe the same join.
      if (audit.join_rows > 0) {
        const double e_emp = 100.0 * static_cast<double>(audit.spurious) /
                             static_cast<double>(audit.join_rows);
        CHECK_NEAR(e_emp, audit.analytic.spurious_pct, 1e-9);
      }
    }
  }
  CHECK(branching > 0);
}

TEST_CASE(MaterializedJoinIsTheStreamedCountAndASupersetOfR) {
  // Hand-computed star schema [AB][AC][AD]: for A=0 the projections hold
  // B in {0,1}, C in {0}, D in {0,1} — the join is the 4-row product, the
  // original has 3 of those rows, so exactly 1 tuple is spurious.
  const std::vector<std::vector<uint32_t>> rows = {
      {0, 0, 0, 0}, {0, 1, 0, 1}, {0, 0, 0, 1}};
  const Relation r = Relation::FromRows(rows, 4);
  const Schema schema({AttrSet(0b0011), AttrSet(0b0101), AttrSet(0b1001)});
  CHECK(schema.IsAcyclic());

  DecompAuditOptions options;
  options.materialize = true;
  const DecompositionAudit audit = AuditSchema(r, schema, options);
  CHECK(audit.status.ok());
  CHECK_EQ(audit.join_rows, uint64_t{4});
  CHECK_EQ(audit.spurious, uint64_t{1});
  CHECK(audit.contains_original);
  CHECK(!audit.exact);
  CHECK(audit.matches_analytic);
  CHECK_EQ(audit.semijoin_dropped, uint64_t{0});

  // The materialized tuples agree with the streamed count and contain
  // every original row; columns come back in ascending original order.
  CHECK_EQ(audit.join.tuples.size(), static_cast<size_t>(audit.join_rows));
  CHECK_EQ(audit.join.columns, (std::vector<int>{0, 1, 2, 3}));
  std::set<std::vector<uint32_t>> joined(audit.join.tuples.begin(),
                                         audit.join.tuples.end());
  CHECK_EQ(joined.size(), size_t{4});
  for (const auto& row : rows) CHECK(joined.count(row) == 1);
  CHECK(joined.count({0, 1, 0, 0}) == 1);  // the one spurious tuple
}

TEST_CASE(SemijoinReducerDropsDanglingImportedTuples) {
  // Projections built from one relation are always globally consistent, so
  // the reducer only earns its keep on foreign (imported) stores: here
  // [AB] carries a B value absent from [BC], which must be dropped before
  // the join and never surface in a result row.
  StoredProjection ab;
  ab.attrs = AttrSet(0b011);
  ab.columns = {0, 1};
  ab.codes = {{0, 1}, {0, 7}};  // rows (0,0) and (1,7)
  ab.domains = {2, 8};
  StoredProjection bc;
  bc.attrs = AttrSet(0b110);
  bc.columns = {1, 2};
  bc.codes = {{0}, {2}};  // row (0,2)
  bc.domains = {8, 3};
  const ProjectionStore store({ab, bc}, /*original_cells=*/0);

  YannakakisExecutor executor(store);
  YannakakisOptions join_options;
  join_options.materialize = true;
  const JoinResult join = executor.Execute(join_options);
  CHECK(join.status.ok());
  CHECK_EQ(join.rows, uint64_t{1});
  CHECK_EQ(join.tuples.size(), size_t{1});
  CHECK_EQ(join.tuples[0], (std::vector<uint32_t>{0, 0, 2}));
  CHECK_EQ(executor.semijoin_dropped(), uint64_t{1});
}

TEST_CASE(ReducerPollsTheDeadlineInsideASingleSemijoinLevel) {
  // Regression: the reducer used to poll only between per-edge semijoins,
  // so ONE huge level could overrun a per-query deadline by the full cost
  // of that semijoin. The per-tuple (every 1024) polls inside sep_keys and
  // the filter loop must abort a blown budget mid-level.
  const uint32_t n = 1 << 18;
  StoredProjection ab, bc;
  ab.attrs = AttrSet(0b011);
  ab.columns = {0, 1};
  ab.domains = {n, n};
  bc.attrs = AttrSet(0b110);
  bc.columns = {1, 2};
  bc.domains = {n, n};
  std::vector<uint32_t> ids(n);
  for (uint32_t i = 0; i < n; ++i) ids[i] = i;
  ab.codes = {ids, ids};  // rows (i, i)
  bc.codes = {ids, ids};
  const ProjectionStore store({std::move(ab), std::move(bc)},
                              /*original_cells=*/0);

  YannakakisExecutor full(store);
  Stopwatch full_watch;
  CHECK(full.Reduce(nullptr).ok());
  const double t_full = full_watch.ElapsedSeconds();

  // A budget of ~2% of the full reduction expires during the very first
  // edge's key build; the abort must land well before the edge completes.
  // The margin (t_full / 4 plus scheduler slack) is generous on purpose —
  // pre-fix the elapsed time was ~t_full / 2 (the whole first semijoin).
  YannakakisExecutor bounded(store);
  const Deadline deadline = Deadline::After(t_full / 50);
  Stopwatch bounded_watch;
  const Status status = bounded.Reduce(&deadline);
  const double t_bounded = bounded_watch.ElapsedSeconds();
  CHECK(status.IsDeadlineExceeded());
  CHECK(t_bounded < t_full / 4 + 0.02);

  // The mid-level abort leaves every tuple list valid: a fresh unbounded
  // Reduce (via Execute) still enumerates all n join rows.
  const JoinResult join = bounded.Execute(YannakakisOptions());
  CHECK(join.status.ok());
  CHECK_EQ(join.rows, static_cast<uint64_t>(n));
}

TEST_CASE(DeadlineExpiryMidJoinReturnsPartialAudit) {
  const PlantedDataset d = MakePlanted(9, 3, 31, /*noise=*/0.1);
  PliEntropyEngine engine(d.relation);
  InfoCalc oracle(&engine);
  const Schema schema = PlantedScheme(d, oracle);
  DecompAuditOptions options;
  options.budget_seconds = 1e-9;  // expires before the first reducer pass
  const DecompositionAudit audit =
      DecomposeAndAudit(d.relation, schema, oracle, options);
  CHECK(audit.status.IsDeadlineExceeded());
  // Partial audits never claim a verdict...
  CHECK(!audit.exact);
  CHECK(!audit.matches_analytic);
  CHECK(!audit.contains_original);
  // ...but the analytic side and the store accounting are complete.
  CHECK(audit.analytic.join_rows > 0.0);
  CHECK_EQ(audit.projections.size(), static_cast<size_t>(schema.NumRelations()));
}

TEST_CASE(CyclicAndEmptySchemasAreRejected) {
  const Relation r = Relation::FromRows({{0, 0, 0}, {1, 1, 1}}, 3);
  // [AB][BC][CA] is the canonical cyclic triangle: GYO finds no ear.
  const Schema cyclic({AttrSet(0b011), AttrSet(0b110), AttrSet(0b101)});
  CHECK(!cyclic.IsAcyclic());
  CHECK_EQ(AuditSchema(r, cyclic).status.code(),
           Status::Code::kInvalidArgument);
  CHECK_EQ(AuditSchema(r, Schema()).status.code(),
           Status::Code::kInvalidArgument);
}

TEST_CASE(ProjectionStoreAccountingAndLayout) {
  const PlantedDataset d = MakePlanted(8, 2, 41);
  const Schema schema(d.schema.Bags());
  const ProjectionStore store(d.relation, schema);
  CHECK_EQ(store.NumProjections(), static_cast<size_t>(schema.NumRelations()));

  size_t rows = 0, cells = 0, bytes = 0;
  for (const StoredProjection& p : store.projections()) {
    CHECK(p.NumRows() > 0);
    CHECK(p.NumRows() <= d.relation.NumRows());
    CHECK_EQ(p.Cells(), p.NumRows() * p.columns.size());
    CHECK_EQ(p.Bytes(), p.Cells() * sizeof(uint32_t));
    rows += p.NumRows();
    cells += p.Cells();
    bytes += p.Bytes();

    // One code array per column, each NumRows() long, every code inside
    // its column's domain.
    CHECK_EQ(p.codes.size(), p.columns.size());
    for (size_t c = 0; c < p.columns.size(); ++c) {
      CHECK_EQ(p.codes[c].size(), p.NumRows());
      CHECK_EQ(p.domains[c], d.relation.DomainSize(p.columns[c]));
      for (uint32_t code : p.codes[c]) CHECK(code < p.domains[c]);
    }
  }
  CHECK_EQ(store.TotalRows(), rows);
  CHECK_EQ(store.TotalCells(), cells);
  CHECK_EQ(store.TotalBytes(), bytes);

  // A single-relation schema stores exactly the distinct original rows.
  const ProjectionStore whole(d.relation, Schema(d.relation.Universe()));
  CHECK_EQ(whole.NumProjections(), size_t{1});
  CHECK(whole.projections()[0].NumRows() <= d.relation.NumRows());
}

TEST_CASE(SingleRelationSchemaJoinsToItself) {
  const PlantedDataset d = MakePlanted(6, 2, 47, /*noise=*/0.05);
  const DecompositionAudit audit =
      AuditSchema(d.relation, Schema(d.relation.Universe()));
  CHECK(audit.status.ok());
  CHECK(audit.exact);
  CHECK_EQ(audit.spurious, uint64_t{0});
  CHECK(audit.matches_analytic);
  CHECK_EQ(audit.join_rows, audit.original_distinct);
}

TEST_CASE(TupleIdTableNumbersTuplesInFirstOccurrenceOrder) {
  // Width 3 over a small domain, far more inserts than distinct tuples,
  // through many growths; the last column's codes reach 0xFFFFFFFF, so no
  // code value is special.
  TupleIdTable table(3);
  std::map<std::vector<uint32_t>, uint32_t> reference;
  uint64_t state = 12345;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t bits = static_cast<uint32_t>(state >> 33);
    const std::vector<uint32_t> tuple = {bits % 17, (bits >> 5) % 13,
                                         0xFFFFFFFFu - (bits >> 9) % 11};
    const auto [id, inserted] = table.Insert(tuple.data());
    const auto it = reference.find(tuple);
    if (it == reference.end()) {
      // A new tuple takes the next id: first-occurrence order.
      CHECK(inserted);
      CHECK_EQ(id, static_cast<uint32_t>(reference.size()));
      reference.emplace(tuple, id);
    } else {
      // A repeated tuple gets its old id back, and only it has that id.
      CHECK(!inserted);
      CHECK_EQ(id, it->second);
    }
    CHECK_EQ(table.size(), reference.size());
  }
  CHECK(reference.size() > 1000);  // grew well past its first slots
  for (const auto& [tuple, id] : reference) {
    CHECK(std::equal(tuple.begin(), tuple.end(), table.Tuple(id)));
  }

  // Width 0: the one empty tuple is id 0, new only the first time.
  TupleIdTable empty(0);
  CHECK_EQ(empty.size(), size_t{0});
  for (int i = 0; i < 3; ++i) {
    const auto [id, inserted] = empty.Insert(nullptr);
    CHECK_EQ(id, uint32_t{0});
    CHECK_EQ(inserted, i == 0);
    CHECK_EQ(empty.size(), size_t{1});
  }
}

// Count() on a fresh executor must read the rows Execute() enumerates on
// another, after the same reduction; an Execute() that keeps only the
// first projection's columns must enumerate the full join's rows,
// projected, in the same order.
void CheckCountMatchesEnumeration(const ProjectionStore& store) {
  YannakakisOptions full;
  full.materialize = true;
  YannakakisExecutor enumerated(store);
  const JoinResult join = enumerated.Execute(full);
  YannakakisExecutor counted(store);
  const JoinResult count = counted.Count(YannakakisOptions());
  CHECK(join.status.ok());
  CHECK(count.status.ok());
  CHECK_EQ(count.rows, join.rows);
  CHECK_EQ(counted.semijoin_passes(), enumerated.semijoin_passes());
  CHECK_EQ(counted.semijoin_dropped(), enumerated.semijoin_dropped());

  YannakakisOptions narrow = full;
  narrow.output = store.projections()[0].attrs;
  YannakakisExecutor projected(store);
  const JoinResult part = projected.Execute(narrow);
  CHECK(part.status.ok());
  CHECK_EQ(part.columns, narrow.output.ToVector());
  CHECK_EQ(part.rows, join.rows);
  CHECK_EQ(part.tuples.size(), join.tuples.size());
  std::vector<size_t> slots;
  for (size_t i = 0; i < join.columns.size(); ++i) {
    if (narrow.output.Contains(join.columns[i])) slots.push_back(i);
  }
  bool same = part.tuples.size() == join.tuples.size();
  for (size_t r = 0; same && r < join.tuples.size(); ++r) {
    for (size_t i = 0; i < slots.size(); ++i) {
      same = same && part.tuples[r][i] == join.tuples[r][slots[i]];
    }
  }
  CHECK(same);
}

TEST_CASE(CountEqualsTheEnumeratedRowsOnEveryStore) {
  std::vector<ProjectionStore> stores;
  // The planted chains, clean and noisy, under their planted schemes.
  for (const auto& [attrs, seed, noise] :
       std::vector<std::tuple<int, uint64_t, double>>{
           {9, 1, 0.0}, {9, 9, 0.0}, {9, 23, 0.0}, {9, 31, 0.1}}) {
    const PlantedDataset d = MakePlanted(attrs, 3, seed, noise);
    PliEntropyEngine engine(d.relation);
    InfoCalc oracle(&engine);
    stores.emplace_back(d.relation, PlantedScheme(d, oracle));
  }
  // Every scheme mined and ranked from the counting-DP fixtures.
  struct Mined {
    Relation relation;
    double eps;
  };
  std::vector<Mined> mined;
  mined.push_back({MakePlanted(8, 3, 5).relation, 0.0});
  mined.push_back({MakePlanted(10, 3, 7).relation, 0.0});
  mined.push_back({MakePlanted(8, 3, 11, /*noise=*/0.02).relation, 0.1});
  mined.push_back({MakePlanted(9, 2, 13, /*noise=*/0.1).relation, 0.2});
  mined.push_back({NurseryDataset().SampleRows(0.05, 3), 0.3});
  mined.push_back({MakePlanted(12, 4, 17, /*noise=*/0.02).relation, 0.1});
  for (const Mined& m : mined) {
    MaimonConfig config;
    config.epsilon = m.eps;
    config.mvd_budget_seconds = 10.0;
    config.schema_budget_seconds = 10.0;
    config.schemas.max_schemas = 32;
    config.mvd.max_full_mvds_per_separator = 3;
    Maimon maimon(m.relation, config);
    const AsMinerResult schemas = maimon.MineSchemas();
    CHECK(!schemas.schemas.empty());
    for (const MinedSchema& s : schemas.schemas) {
      stores.emplace_back(m.relation, s.schema);
    }
  }
  // The hand-built star, one relation alone, and the disjoint bags: a
  // store whose every separator is empty (a cross product).
  stores.emplace_back(
      Relation::FromRows({{0, 0, 0, 0}, {0, 1, 0, 1}, {0, 0, 0, 1}}, 4),
      Schema({AttrSet(0b0011), AttrSet(0b0101), AttrSet(0b1001)}));
  const PlantedDataset single = MakePlanted(6, 2, 47, /*noise=*/0.05);
  stores.emplace_back(single.relation, Schema(single.relation.Universe()));
  const PlantedDataset bags = MakePlanted(8, 2, 41);
  const Schema disjoint(bags.schema.Bags());
  CHECK(disjoint.NumRelations() >= 2);
  CHECK(disjoint.Relations()[0].Intersect(disjoint.Relations()[1]).Empty());
  stores.emplace_back(bags.relation, disjoint);
  // The imported store with a dangling row, and the 2^18-row chain.
  StoredProjection ab;
  ab.attrs = AttrSet(0b011);
  ab.columns = {0, 1};
  ab.codes = {{0, 1}, {0, 7}};
  ab.domains = {2, 8};
  StoredProjection bc;
  bc.attrs = AttrSet(0b110);
  bc.columns = {1, 2};
  bc.codes = {{0}, {2}};
  bc.domains = {8, 3};
  stores.emplace_back(std::vector<StoredProjection>{ab, bc},
                      /*original_cells=*/0);
  const uint32_t n = 1 << 18;
  std::vector<uint32_t> ids(n);
  for (uint32_t i = 0; i < n; ++i) ids[i] = i;
  StoredProjection wide_ab = ab, wide_bc = bc;
  wide_ab.codes = {ids, ids};
  wide_ab.domains = {n, n};
  wide_bc.codes = {ids, ids};
  wide_bc.domains = {n, n};
  stores.emplace_back(
      std::vector<StoredProjection>{std::move(wide_ab), std::move(wide_bc)},
      /*original_cells=*/0);

  for (const ProjectionStore& store : stores) {
    CheckCountMatchesEnumeration(store);
  }
}

// Every store this file builds: the planted chains under their planted
// schemes, each scheme mined from the counting-DP fixtures, the star, one
// relation alone, the disjoint bags (every separator empty), the imported
// store with a dangling row and the 2^18-row chain.
std::vector<ProjectionStore> EveryStore() {
  std::vector<ProjectionStore> stores;
  for (const auto& [seed, noise] : std::vector<std::pair<uint64_t, double>>{
           {1, 0.0}, {9, 0.0}, {23, 0.0}, {31, 0.1}}) {
    const PlantedDataset d = MakePlanted(9, 3, seed, noise);
    PliEntropyEngine engine(d.relation);
    InfoCalc oracle(&engine);
    stores.emplace_back(d.relation, PlantedScheme(d, oracle));
  }
  for (const auto& [relation, eps] :
       std::vector<std::pair<Relation, double>>{
           {MakePlanted(8, 3, 5).relation, 0.0},
           {MakePlanted(10, 3, 7).relation, 0.0},
           {MakePlanted(8, 3, 11, /*noise=*/0.02).relation, 0.1},
           {MakePlanted(9, 2, 13, /*noise=*/0.1).relation, 0.2},
           {NurseryDataset().SampleRows(0.05, 3), 0.3},
           {MakePlanted(12, 4, 17, /*noise=*/0.02).relation, 0.1}}) {
    MaimonConfig config;
    config.epsilon = eps;
    config.mvd_budget_seconds = 10.0;
    config.schema_budget_seconds = 10.0;
    config.schemas.max_schemas = 32;
    config.mvd.max_full_mvds_per_separator = 3;
    Maimon maimon(relation, config);
    for (const MinedSchema& s : maimon.MineSchemas().schemas) {
      stores.emplace_back(relation, s.schema);
    }
  }
  stores.emplace_back(
      Relation::FromRows({{0, 0, 0, 0}, {0, 1, 0, 1}, {0, 0, 0, 1}}, 4),
      Schema({AttrSet(0b0011), AttrSet(0b0101), AttrSet(0b1001)}));
  const PlantedDataset single = MakePlanted(6, 2, 47, /*noise=*/0.05);
  stores.emplace_back(single.relation, Schema(single.relation.Universe()));
  const PlantedDataset bags = MakePlanted(8, 2, 41);
  stores.emplace_back(bags.relation, Schema(bags.schema.Bags()));
  StoredProjection ab;
  ab.attrs = AttrSet(0b011);
  ab.columns = {0, 1};
  ab.codes = {{0, 1}, {0, 7}};
  ab.domains = {2, 8};
  StoredProjection bc;
  bc.attrs = AttrSet(0b110);
  bc.columns = {1, 2};
  bc.codes = {{0}, {2}};
  bc.domains = {8, 3};
  stores.emplace_back(std::vector<StoredProjection>{ab, bc},
                      /*original_cells=*/0);
  const uint32_t n = 1 << 18;
  std::vector<uint32_t> ids(n);
  for (uint32_t i = 0; i < n; ++i) ids[i] = i;
  ab.codes = {ids, ids};
  ab.domains = {n, n};
  bc.codes = {ids, ids};
  bc.domains = {n, n};
  stores.emplace_back(std::vector<StoredProjection>{ab, bc},
                      /*original_cells=*/0);
  return stores;
}

TEST_CASE(DistinctEqualsTheSetProjectionOfTheJoinOnEveryStore) {
  Rng rng(7);
  size_t deduplicated = 0;  // outputs whose cut join repeated output rows
  for (const ProjectionStore& store : EveryStore()) {
    YannakakisOptions full;
    full.materialize = true;
    YannakakisExecutor reference(store);
    const JoinResult join = reference.Execute(full);
    CHECK(join.status.ok());
    for (int trial = 0; trial < 4; ++trial) {
      YannakakisOptions options;
      options.distinct = true;
      options.materialize = true;
      for (int a : join.columns) {
        if (rng.Uniform(2) == 0) options.output.Add(a);
      }
      if (options.output.Empty()) {
        options.output.Add(join.columns[rng.Uniform(join.columns.size())]);
      }
      std::set<std::vector<uint32_t>> expect;
      for (const std::vector<uint32_t>& row : join.tuples) {
        std::vector<uint32_t> projected;
        for (size_t i = 0; i < join.columns.size(); ++i) {
          if (options.output.Contains(join.columns[i])) {
            projected.push_back(row[i]);
          }
        }
        expect.insert(std::move(projected));
      }

      YannakakisExecutor executed(store);
      const JoinResult rows = executed.Execute(options);
      CHECK(rows.status.ok());
      CHECK_EQ(rows.columns, options.output.ToVector());
      CHECK_EQ(rows.rows, static_cast<uint64_t>(expect.size()));
      CHECK_EQ(rows.tuples.size(), expect.size());
      CHECK(std::set<std::vector<uint32_t>>(rows.tuples.begin(),
                                            rows.tuples.end()) == expect);
      CHECK(rows.enumerated >= rows.rows);
      CHECK(rows.enumerated <= join.rows);
      if (rows.enumerated > rows.rows) ++deduplicated;
      // The full reduction ran as it does without the cut.
      CHECK_EQ(executed.semijoin_passes(), reference.semijoin_passes());
      // The cut is in place, so the executor answers nothing more.
      CHECK_EQ(executed.Execute(YannakakisOptions()).status.code(),
               Status::Code::kInvalidArgument);

      YannakakisExecutor counted(store);
      const JoinResult count = counted.Count(options);
      CHECK(count.status.ok());
      CHECK_EQ(count.rows, static_cast<uint64_t>(expect.size()));
      CHECK(count.tuples.empty());
    }
  }
  CHECK(deduplicated > 0);
}

TEST_CASE(DistinctRejectsACodeOutsideItsDomain) {
  // [AB][BC] where one A code is past A's declared domain: the cut must
  // report the broken contract, never index past its bitmap.
  StoredProjection ab;
  ab.attrs = AttrSet(0b011);
  ab.columns = {0, 1};
  ab.codes = {{0, 9}, {0, 1}};
  ab.domains = {2, 2};
  StoredProjection bc;
  bc.attrs = AttrSet(0b110);
  bc.columns = {1, 2};
  bc.codes = {{0, 1}, {0, 0}};
  bc.domains = {2, 1};
  const ProjectionStore store({ab, bc}, /*original_cells=*/0);
  YannakakisOptions options;
  options.distinct = true;
  options.output = AttrSet(0b001);
  YannakakisExecutor executed(store);
  CHECK_EQ(executed.Execute(options).status.code(),
           Status::Code::kInvalidArgument);
  YannakakisExecutor counted(store);
  CHECK_EQ(counted.Count(options).status.code(),
           Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
