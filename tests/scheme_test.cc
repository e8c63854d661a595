// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The scheme/ subsystem on a hand-computable 5-attribute fixture. The
// relation makes A, B, C, D mutually independent given a hub attribute E
// (for each E = e, the rows enumerate the full product {e, e+1}^4), so at
// eps = 0 the mined full MVDs are exactly the seven bipartition MVDs with
// key E:
//
//   E ->> A|BCD   E ->> B|ACD   E ->> C|ABD   E ->> D|ABC   (trivial)
//   E ->> AB|CD   E ->> AC|BD   E ->> AD|BC                 (crossing)
//
// The three crossing splits pairwise conflict (splits of a 4-element set
// nest only when one side is a singleton or they agree), every other pair
// is compatible: the conflict graph is a triangle plus four isolated
// vertices, with exactly 3 maximal independent sets. All three assemble
// (through the same intermediate chain) into [AE][BE][CE][DE], so the
// full expected scheme set is enumerable by hand.

#include <string>
#include <unordered_set>
#include <vector>

#include "core/maimon.h"
#include "scheme/assembler.h"
#include "scheme/conflict_graph.h"
#include "scheme/ranker.h"
#include "tests/test_util.h"

namespace maimon {
namespace {

constexpr int kA = 0, kB = 1, kC = 2, kD = 3, kE = 4;

AttrSet S(std::initializer_list<int> attrs) {
  AttrSet s;
  for (int a : attrs) s.Add(a);
  return s;
}

Relation HubFixture() {
  std::vector<std::vector<uint32_t>> rows;
  for (uint32_t e = 0; e < 2; ++e) {
    for (uint32_t a = 0; a < 2; ++a) {
      for (uint32_t b = 0; b < 2; ++b) {
        for (uint32_t c = 0; c < 2; ++c) {
          for (uint32_t d = 0; d < 2; ++d) {
            rows.push_back({e + a, e + b, e + c, e + d, e});
          }
        }
      }
    }
  }
  return Relation::FromRows(rows, 5);
}

std::vector<Mvd> ExpectedMvds() {
  const AttrSet key = S({kE});
  return {
      Mvd(key, S({kA}), S({kB, kC, kD})), Mvd(key, S({kB}), S({kA, kC, kD})),
      Mvd(key, S({kC}), S({kA, kB, kD})), Mvd(key, S({kD}), S({kA, kB, kC})),
      Mvd(key, S({kA, kB}), S({kC, kD})), Mvd(key, S({kA, kC}), S({kB, kD})),
      Mvd(key, S({kA, kD}), S({kB, kC})),
  };
}

TEST_CASE(CompatibilityIsSplitAgreement) {
  // Chain edges of one join tree over ABCDE nest: compatible.
  const Mvd chain1(S({kB}), S({kA}), S({kC, kD, kE}));
  const Mvd chain2(S({kD}), S({kA, kB, kC}), S({kE}));
  CHECK(MvdsCompatible(chain1, chain2));
  CHECK(MvdsCompatible(chain2, chain1));

  // A key straddling the other MVD's split: B ->> A | CD vs CD ->> A | B
  // over ABCD cannot be edges of one tree.
  const Mvd straddle1(S({kB}), S({kA}), S({kC, kD}));
  const Mvd straddle2(S({kC, kD}), S({kA}), S({kB}));
  CHECK(!MvdsCompatible(straddle1, straddle2));
  CHECK(!MvdsCompatible(straddle2, straddle1));

  // Crossing side assignments with a shared key conflict; nesting ones
  // (one side a singleton) are fine.
  const Mvd cross1(S({kE}), S({kA, kB}), S({kC, kD}));
  const Mvd cross2(S({kE}), S({kA, kC}), S({kB, kD}));
  const Mvd nested(S({kE}), S({kA}), S({kB, kC, kD}));
  CHECK(!MvdsCompatible(cross1, cross2));
  CHECK(MvdsCompatible(cross1, nested));
  CHECK(MvdsCompatible(cross2, nested));
  // Self-compatibility (a degenerate but well-defined corner).
  CHECK(MvdsCompatible(cross1, cross1));
}

TEST_CASE(ConflictGraphIsTrianglePlusIsolatedVertices) {
  const std::vector<Mvd> mvds = ExpectedMvds();
  size_t edges = 0;
  const Graph graph = BuildConflictGraph(mvds, &edges);
  CHECK_EQ(graph.NumVertices(), 7);
  CHECK_EQ(edges, size_t{3});
  // The triangle sits on the three crossing splits (indices 4, 5, 6).
  for (int i : {4, 5, 6}) {
    for (int j : {4, 5, 6}) {
      if (i != j) CHECK(graph.HasEdge(i, j));
    }
  }
  for (int i = 0; i < 4; ++i) CHECK(graph.Neighbors(i).Empty());
}

TEST_CASE(MinerRecoversTheSevenHubMvds) {
  const Relation r = HubFixture();
  MaimonConfig config;
  config.epsilon = 0.0;
  Maimon maimon(r, config);
  const MvdMinerResult mined = maimon.MineMvds();
  CHECK(mined.status.ok());
  CHECK_EQ(mined.separators, std::vector<AttrSet>{S({kE})});

  const std::vector<Mvd> expected = ExpectedMvds();
  std::unordered_set<Mvd, MvdHash> mined_set(mined.mvds.begin(),
                                             mined.mvds.end());
  std::unordered_set<Mvd, MvdHash> expected_set(expected.begin(),
                                                expected.end());
  CHECK_EQ(mined_set.size(), mined.mvds.size());  // miner dedups
  CHECK_EQ(mined_set, expected_set);
}

TEST_CASE(MineSchemasEnumeratesTheExactHandComputedSet) {
  const Relation r = HubFixture();
  MaimonConfig config;
  config.epsilon = 0.0;
  Maimon maimon(r, config);
  const AsMinerResult result = maimon.MineSchemas();
  CHECK(result.status.ok());
  CHECK(!result.truncated);
  CHECK_EQ(result.conflict_vertices, size_t{7});
  CHECK_EQ(result.conflict_edges, size_t{3});
  CHECK_EQ(result.independent_sets, uint64_t{3});

  // All three maximal independent sets walk the same canonical split chain
  // (the crossing split is implied once the singletons are carved off), so
  // dedup leaves exactly the chain's three schemes.
  const std::unordered_set<std::string> expected = {
      "[AE][BCDE]", "[AE][BE][CDE]", "[AE][BE][CE][DE]"};
  std::unordered_set<std::string> emitted;
  for (const MinedSchema& s : result.schemas) {
    CHECK(s.schema.IsAcyclic());
    CHECK_EQ(s.schema.UniverseAttrs(), r.Universe());
    CHECK_NEAR(s.j_measure, 0.0, 1e-9);  // eps = 0: lossless derivations
    CHECK(emitted.insert(s.schema.ToString()).second);  // dedup guarantee
  }
  CHECK_EQ(emitted, expected);
}

TEST_CASE(FinalOnlyModeDedupsTheThreeIndependentSets) {
  const Relation r = HubFixture();
  MaimonConfig config;
  config.epsilon = 0.0;
  config.schemas.emit_intermediate_schemes = false;
  Maimon maimon(r, config);
  const AsMinerResult result = maimon.MineSchemas();
  CHECK(result.status.ok());
  CHECK_EQ(result.independent_sets, uint64_t{3});
  // Three maximal sets, one schema: canonical-form dedup collapses them.
  CHECK_EQ(result.schemas.size(), size_t{1});
  CHECK_EQ(result.schemas.front().schema.ToString(),
           std::string("[AE][BE][CE][DE]"));
}

TEST_CASE(AssemblerBuildsTheJoinTreeAndSkipsImpliedSplits) {
  const Relation r = HubFixture();
  PliEngineOptions pli;
  PliEntropyEngine engine(r, pli);
  InfoCalc calc(&engine);
  SchemeAssembler assembler(&calc, r.Universe());

  const Mvd m1(S({kE}), S({kA}), S({kB, kC, kD}));
  const Mvd m2(S({kE}), S({kB}), S({kA, kC, kD}));
  const Mvd cross(S({kE}), S({kA, kB}), S({kC, kD}));
  std::vector<std::string> emitted;
  const bool finished = assembler.Assemble(
      {&cross, &m2, &m1}, /*emit_intermediates=*/true, /*deadline=*/nullptr,
      [&](AssembledScheme&& s) {
        emitted.push_back(s.schema.ToString());
        return true;
      });
  CHECK(finished);
  // Canonical order applies m1 before m2 before the crossing split, which
  // by then is implied (degenerate on every node) and contributes no edge.
  CHECK_EQ(emitted.size(), size_t{2});
  CHECK_EQ(emitted[0], std::string("[AE][BCDE]"));
  CHECK_EQ(emitted[1], std::string("[AE][BE][CDE]"));
  CHECK_EQ(assembler.degenerate_splits(), uint64_t{1});

  // The maintained join tree: AE - BE - CDE with separator E on each edge.
  CHECK_EQ(assembler.nodes().size(), size_t{3});
  CHECK_EQ(assembler.edges().size(), size_t{2});
  for (const JoinTreeEdge& e : assembler.edges()) {
    CHECK_EQ(e.separator, S({kE}));
    CHECK_EQ(assembler.nodes()[static_cast<size_t>(e.node_a)].Intersect(
                 assembler.nodes()[static_cast<size_t>(e.node_b)]),
             S({kE}));
  }
}

TEST_CASE(SchemaDeadlineYieldsPartialResultWithStatus) {
  const Relation r = HubFixture();
  MaimonConfig config;
  config.epsilon = 0.0;
  config.schema_budget_seconds = 1e-9;  // expires before the first set
  Maimon maimon(r, config);
  const AsMinerResult result = maimon.MineSchemas();
  CHECK(result.status.IsDeadlineExceeded());
  CHECK(!result.truncated);
  CHECK(result.schemas.empty());
  // The quadratic graph build is skipped outright on a blown budget.
  CHECK_EQ(result.conflict_vertices, size_t{0});
}

TEST_CASE(MaxSchemasTruncatesWithOkStatus) {
  const Relation r = HubFixture();
  MaimonConfig config;
  config.epsilon = 0.0;
  config.schemas.max_schemas = 1;
  Maimon maimon(r, config);
  const AsMinerResult result = maimon.MineSchemas();
  CHECK(result.status.ok());
  CHECK(result.truncated);
  CHECK_EQ(result.schemas.size(), size_t{1});

  // Landing exactly on the cap is not truncation: nothing was left behind.
  MaimonConfig exact_config;
  exact_config.epsilon = 0.0;
  exact_config.schemas.max_schemas = 3;  // the fixture has exactly 3 schemes
  Maimon exact(r, exact_config);
  const AsMinerResult full = exact.MineSchemas();
  CHECK(full.status.ok());
  CHECK(!full.truncated);
  CHECK_EQ(full.schemas.size(), size_t{3});
}

TEST_CASE(ConflictMvdCapIsReportedNotSilent) {
  const Relation r = HubFixture();
  MaimonConfig config;
  config.epsilon = 0.0;
  config.schemas.max_conflict_mvds = 0;  // mine and admit everything
  Maimon uncapped(r, config);
  const std::vector<Mvd>& all = uncapped.MineMvds().mvds;
  CHECK_EQ(all.size(), size_t{7});

  // Mining stops one MVD past the cap, so the drop count is only a lower
  // bound, but it must not read 0: something was left out. The admitted
  // vertices are exactly the first 4 of the uncapped mine.
  config.schemas.max_conflict_mvds = 4;  // admit only the first 4 of 7
  Maimon maimon(r, config);
  const AsMinerResult result = maimon.MineSchemas();
  CHECK(result.status.ok());
  CHECK_EQ(result.conflict_vertices, size_t{4});
  CHECK(result.mvds_dropped > 0);
  const std::vector<Mvd>& mined = maimon.MineMvds().mvds;
  CHECK(mined.size() > 4);
  for (size_t i = 0; i < 4 && i < mined.size(); ++i) {
    CHECK_EQ(mined[i].ToString(), all[i].ToString());
  }
}

TEST_CASE(RankerOrdersByQualityAndHonorsBudget) {
  const Relation r = HubFixture();
  MaimonConfig config;
  config.epsilon = 0.0;
  Maimon maimon(r, config);
  const AsMinerResult mined = maimon.MineSchemas();
  CHECK_EQ(mined.schemas.size(), size_t{3});

  RankerOptions options;
  options.top_k = 2;
  options.primary = RankKey::kSavings;
  const RankResult ranked =
      RankSchemes(r, mined.schemas, maimon.oracle(), options);
  CHECK(ranked.status.ok());
  CHECK_EQ(ranked.evaluated, size_t{3});
  CHECK_EQ(ranked.ranked.size(), size_t{2});
  // Finest schema stores 32 of the original 160 cells: S = 80%, the best.
  CHECK_EQ(ranked.ranked.front().schema.ToString(),
           std::string("[AE][BE][CE][DE]"));
  CHECK_NEAR(ranked.ranked.front().report.savings_pct, 80.0, 1e-9);
  for (const RankedScheme& s : ranked.ranked) {
    CHECK_NEAR(s.report.spurious_pct, 0.0, 1e-9);  // all lossless at eps 0
    CHECK_NEAR(s.report.j_measure, 0.0, 1e-9);
  }

  RankerOptions strangled = options;
  strangled.budget_seconds = 1e-9;
  const RankResult partial =
      RankSchemes(r, mined.schemas, maimon.oracle(), strangled);
  CHECK(partial.status.IsDeadlineExceeded());
  CHECK(partial.evaluated < mined.schemas.size());
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
