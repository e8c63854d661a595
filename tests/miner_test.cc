// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// End-to-end miner checks on planted data: full-MVD search recovers the
// planted separators exactly at eps = 0 (plain and optimized variants
// agree), minimal-separator mining returns minimal sets, and the Maimon
// facade mines schemas whose evaluation is lossless on exact structure.

#include <unordered_set>

#include "core/maimon.h"
#include "core/min_seps.h"
#include "data/planted.h"
#include "join/metrics.h"
#include "tests/test_util.h"

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

TEST_CASE(PlantedMvdsAreExactAtEpsZero) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const PlantedDataset d = MakePlanted(8, 3, seed);
    PliEntropyEngine engine(d.relation);
    InfoCalc calc(&engine);
    CHECK(!d.schema.Support().empty());
    for (const Mvd& phi : d.schema.Support()) {
      // The planted split has J = 0 on the noise-free join expansion.
      CHECK_NEAR(
          calc.MvdMeasure(phi.key(), phi.deps()[0], phi.deps()[1]), 0.0,
          1e-9);
    }
  }
}

TEST_CASE(PlainAndOptimizedSearchAgree) {
  const PlantedDataset d = MakePlanted(7, 2, 5, /*noise=*/0.05);
  PliEntropyEngine engine(d.relation);
  InfoCalc calc(&engine);
  for (double eps : {0.0, 0.05, 0.2}) {
    FullMvdSearch search(calc, eps, nullptr);
    const AttrSet universe = d.relation.Universe();
    for (const Mvd& phi : d.schema.Support()) {
      const int a = phi.deps()[0].First();
      const int b = phi.deps()[1].First();
      auto plain = search.Find(phi.key(), universe, a, b, SIZE_MAX, false);
      const uint64_t plain_nodes = search.stats().nodes_pushed;
      auto opt = search.Find(phi.key(), universe, a, b, SIZE_MAX, true);
      const uint64_t opt_nodes = search.stats().nodes_pushed;

      std::unordered_set<Mvd, MvdHash> plain_set(plain.begin(), plain.end());
      std::unordered_set<Mvd, MvdHash> opt_set(opt.begin(), opt.end());
      CHECK_EQ(plain_set, opt_set);
      // The contraction must never expand the search space.
      CHECK(opt_nodes <= plain_nodes);
    }
  }
}

TEST_CASE(FindOfZeroResultsIssuesNoQuery) {
  // K = 0 full MVDs per separator mines separators only (fig13/fig14): a
  // Find asked for no result runs neither the contraction nor the root J
  // check, so it leaves the engine's query count where it was.
  const PlantedDataset d = MakePlanted(7, 2, 5);
  PliEntropyEngine engine(d.relation);
  InfoCalc calc(&engine);
  FullMvdSearch search(calc, 0.0, nullptr);
  const AttrSet universe = d.relation.Universe();
  for (const Mvd& phi : d.schema.Support()) {
    const int a = phi.deps()[0].First();
    const int b = phi.deps()[1].First();
    const uint64_t before = engine.NumQueries();
    for (bool optimized : {true, false}) {
      CHECK(search.Find(phi.key(), universe, a, b, /*max_results=*/0,
                        optimized)
                .empty());
      CHECK_EQ(search.stats().j_evaluations, uint64_t{0});
    }
    CHECK_EQ(engine.NumQueries(), before);
    // The planted key does separate a and b: one result costs queries.
    CHECK(!search.Find(phi.key(), universe, a, b, /*max_results=*/1).empty());
    CHECK(engine.NumQueries() > before);
  }
}

TEST_CASE(MineMinSepsReturnsMinimalSeparators) {
  const PlantedDataset d = MakePlanted(7, 3, 9);
  PliEntropyEngine engine(d.relation);
  InfoCalc calc(&engine);
  FullMvdSearch search(calc, 0.0, nullptr);
  const AttrSet universe = d.relation.Universe();

  // Use a pinned pair from a planted MVD: its key must separate it.
  const Mvd& phi = d.schema.Support().front();
  const int a = phi.deps()[0].First();
  const int b = phi.deps()[1].First();
  MinSepsResult result = MineMinSeps(&search, universe, a, b, nullptr);
  CHECK(result.status.ok());
  CHECK(!result.separators.empty());
  for (AttrSet s : result.separators) {
    CHECK(search.Separates(s, universe, a, b));
    CHECK(!s.Contains(a));
    CHECK(!s.Contains(b));
    // Local minimality: removing any one attribute breaks separation.
    for (int x : s.ToVector()) {
      CHECK(!search.Separates(s.Without(x), universe, a, b));
    }
  }
  // The planted key itself (or a subset of it) must be found.
  bool found_planted = false;
  for (AttrSet s : result.separators) {
    if (phi.key().ContainsAll(s)) found_planted = true;
  }
  CHECK(found_planted);
}

TEST_CASE(MaimonMinesSchemasOnPlantedData) {
  const PlantedDataset d = MakePlanted(8, 3, 21);
  MaimonConfig config;
  config.epsilon = 0.0;
  config.mvd_budget_seconds = 20.0;
  config.schema_budget_seconds = 10.0;
  config.schemas.max_schemas = 64;
  Maimon maimon(d.relation, config);

  const MvdMinerResult mvds = maimon.MineMvds();
  CHECK(mvds.NumSeparators() > 0);
  CHECK(mvds.NumMvds() > 0);

  const AsMinerResult schemas = maimon.MineSchemas();
  CHECK(!schemas.schemas.empty());
  bool some_schema_saves = false;
  for (const MinedSchema& s : schemas.schemas) {
    CHECK(s.schema.NumRelations() >= 2);
    CHECK(s.schema.IsAcyclic());
    CHECK_EQ(s.schema.UniverseAttrs(), d.relation.Universe());
    const SchemaReport report =
        EvaluateSchema(d.relation, s.schema, maimon.oracle());
    // eps = 0 schemas are lossless: no spurious tuples, J = 0.
    CHECK_NEAR(report.spurious_pct, 0.0, 1e-9);
    CHECK_NEAR(report.j_measure, 0.0, 1e-6);
    // Savings can go negative for deep schemes (key columns repeat across
    // relations), but the planted join redundancy must make some scheme
    // profitable.
    some_schema_saves |= report.savings_pct > 0.0;
  }
  CHECK(some_schema_saves);
}

TEST_CASE(ExhaustiveSweepSurvivesTheWidestSupportedPool) {
  // The widest pool reachable through the 64-bit AttrSet: a 64-attribute
  // universe with a degenerate pinned pair (a == b) leaves m = 63 free
  // attributes, the exact boundary of the uint64 combination masks in the
  // exhaustive lattice sweep (kMaxSeparatorPoolWidth). Every shift in the
  // sweep must stay defined; the 2^63-candidate space itself is cut off by
  // a short deadline. A degenerate pair never separates, so no separator
  // may be reported.
  std::vector<std::vector<uint32_t>> rows;
  for (uint32_t r = 0; r < 4; ++r) {
    rows.push_back(std::vector<uint32_t>(64, r));
  }
  const Relation wide = Relation::FromRows(rows, 64);
  PliEntropyEngine engine(wide);
  InfoCalc calc(&engine);
  Deadline deadline = Deadline::After(0.05);
  FullMvdSearch search(calc, 0.0, &deadline);
  MinSepsOptions options;
  options.exhaustive = true;
  const MinSepsResult result =
      MineMinSeps(&search, wide.Universe(), 0, 0, &deadline, options);
  CHECK(result.status.IsDeadlineExceeded());
  CHECK(result.separators.empty());
}

TEST_CASE(CloseWalkHandlesTheWidestPoolWithoutAGuard) {
  // The close-separator walk carries no mask arithmetic, so the same
  // 63-attribute pool that forces the exhaustive sweep against its uint64
  // boundary is just a single root oracle call here: the degenerate pair
  // never separates, so the walk ends immediately — inside the deadline,
  // with a clean OK status.
  std::vector<std::vector<uint32_t>> rows;
  for (uint32_t r = 0; r < 4; ++r) {
    rows.push_back(std::vector<uint32_t>(64, r));
  }
  const Relation wide = Relation::FromRows(rows, 64);
  PliEntropyEngine engine(wide);
  InfoCalc calc(&engine);
  Deadline deadline = Deadline::After(5.0);
  FullMvdSearch search(calc, 0.0, &deadline);
  const MinSepsResult result =
      MineMinSeps(&search, wide.Universe(), 0, 0, &deadline);
  CHECK(result.status.ok());
  CHECK(result.separators.empty());
  CHECK_EQ(result.stats.oracle_calls, uint64_t{1});
}

TEST_CASE(ExhaustiveSweepRejectsPoolsBeyondTheComboWidth) {
  // Pools of >= 64 attributes would shift a uint64 by its full width — UB.
  // Such a pool is unreachable while AttrSet is a 64-bit mask (removing
  // the pinned attributes always leaves <= 63), so the guard is exercised
  // at its contract level: the widest representable pool must sit exactly
  // at the supported limit, and the limit must match what the sweep's
  // masks can hold.
  const AttrSet universe = AttrSet::Universe(64);
  CHECK_EQ(universe.Without(0).Count(), kMaxSeparatorPoolWidth);
  CHECK_EQ(kMaxSeparatorPoolWidth, 63);
}

TEST_CASE(BudgetExpiryReportsDeadline) {
  // A wide noisy relation with a zero-second budget must come back quickly
  // with DeadlineExceeded rather than hanging.
  const PlantedDataset d = MakePlanted(12, 3, 33, /*noise=*/0.1);
  MaimonConfig config;
  config.epsilon = 0.1;
  config.mvd_budget_seconds = 1e-4;
  Maimon maimon(d.relation, config);
  const MvdMinerResult result = maimon.MineMvds();
  CHECK(result.status.IsDeadlineExceeded());
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
