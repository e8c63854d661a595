// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Differential coverage for the close-separator walk (core/min_seps.cc):
//
//   * on every <= 10-attribute fixture — planted bag chains, noisy
//     variants, several seeds, eps in {0, 0.01, 0.1} — the walk emits
//     exactly the separator set of the exhaustive size-ascending lattice
//     sweep (MinSepsOptions::exhaustive), for every attribute pair;
//   * planted bag-chain keys are recovered through the walk;
//   * deadline expiry returns a partial result whose every separator still
//     verifiably separates, with DeadlineExceeded;
//   * the walk's per-pair stats (seeds / expansions / oracle calls) are
//     reported, and its oracle-call count stays below the sweep's;
//   * MvdMinerOptions::min_seps plumbs through the Maimon facade, and at
//     K = 0 the facade reports exactly the per-pair walk.

#include <cstdio>
#include <set>

#include "core/maimon.h"
#include "core/min_seps.h"
#include "data/planted.h"
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

std::set<AttrSet> ToSet(const std::vector<AttrSet>& seps) {
  return std::set<AttrSet>(seps.begin(), seps.end());
}

/// Runs both walks over every attribute pair of `relation` at `eps` and
/// checks the emitted separator sets are identical. Returns the summed
/// oracle calls of each mode so callers can assert on the reduction.
void CheckDifferential(const Relation& relation, double eps,
                       uint64_t* close_calls = nullptr,
                       uint64_t* exhaustive_calls = nullptr) {
  PliEntropyEngine engine(relation);
  InfoCalc calc(&engine);
  FullMvdSearch search(calc, eps, nullptr);
  const AttrSet universe = relation.Universe();
  MinSepsOptions exhaustive;
  exhaustive.exhaustive = true;
  for (int a = 0; a < relation.NumCols(); ++a) {
    for (int b = a + 1; b < relation.NumCols(); ++b) {
      const MinSepsResult close =
          MineMinSeps(&search, universe, a, b, nullptr);
      const MinSepsResult sweep =
          MineMinSeps(&search, universe, a, b, nullptr, exhaustive);
      CHECK(close.status.ok());
      CHECK(sweep.status.ok());
      const std::set<AttrSet> close_set = ToSet(close.separators);
      const std::set<AttrSet> sweep_set = ToSet(sweep.separators);
      CHECK_EQ(close_set, sweep_set);
      if (close_set != sweep_set) {
        std::printf("  pair (%d,%d) eps=%g: close walk emitted %zu, "
                    "exhaustive %zu separators\n",
                    a, b, eps, close_set.size(), sweep_set.size());
        for (AttrSet s : sweep_set) {
          if (close_set.count(s) == 0) {
            std::printf("    missing from close walk: %s\n",
                        s.ToString().c_str());
          }
        }
        for (AttrSet s : close_set) {
          if (sweep_set.count(s) == 0) {
            std::printf("    extra in close walk: %s\n", s.ToString().c_str());
          }
        }
      }
      if (close_calls != nullptr) *close_calls += close.stats.oracle_calls;
      if (exhaustive_calls != nullptr) {
        *exhaustive_calls += sweep.stats.oracle_calls;
      }
    }
  }
}

TEST_CASE(CloseWalkMatchesExhaustiveOnSmallFixtures) {
  for (double eps : {0.0, 0.01, 0.1}) {
    CheckDifferential(MakePlanted(7, 2, 5, /*noise=*/0.05).relation, eps);
    CheckDifferential(MakePlanted(7, 3, 9).relation, eps);
    CheckDifferential(MakePlanted(8, 3, 21).relation, eps);
    CheckDifferential(MakePlanted(8, 2, 4, /*noise=*/0.15).relation, eps);
  }
}

TEST_CASE(CloseWalkMatchesExhaustiveOnTenAttributeChains) {
  // The widest differential fixtures: 10-attribute bag chains, exact and
  // noisy — 45 pairs x 256 exhaustive candidates each.
  for (double eps : {0.0, 0.1}) {
    CheckDifferential(MakePlanted(10, 4, 17).relation, eps);
    CheckDifferential(MakePlanted(10, 3, 29, /*noise=*/0.1).relation, eps);
  }
}

TEST_CASE(CloseWalkRecoversPlantedBagChainSeparators) {
  const PlantedDataset d = MakePlanted(8, 3, 21);
  PliEntropyEngine engine(d.relation);
  InfoCalc calc(&engine);
  FullMvdSearch search(calc, 0.0, nullptr);
  const AttrSet universe = d.relation.Universe();
  CHECK(!d.schema.Support().empty());
  for (const Mvd& phi : d.schema.Support()) {
    const int a = phi.deps()[0].First();
    const int b = phi.deps()[1].First();
    const MinSepsResult result = MineMinSeps(&search, universe, a, b, nullptr);
    CHECK(result.status.ok());
    CHECK(!result.separators.empty());
    CHECK(result.stats.seeds >= 1);
    CHECK(result.stats.oracle_calls >= 1);
    // The planted key (or a subset of it) must be among the emitted
    // minimal separators, and every emitted set must verifiably separate
    // and be single-removal minimal.
    bool found_planted = false;
    for (AttrSet s : result.separators) {
      if (phi.key().ContainsAll(s)) found_planted = true;
      CHECK(search.Separates(s, universe, a, b));
      for (int x : s.ToVector()) {
        CHECK(!search.Separates(s.Without(x), universe, a, b));
      }
    }
    CHECK(found_planted);
  }
}

TEST_CASE(CloseWalkDeadlineExpiryReturnsVerifiedPartialResult) {
  // A wide noisy relation under a sub-millisecond budget: the walk must
  // come back promptly with DeadlineExceeded, and whatever separators made
  // it out must still be genuine (re-verified with an unbounded oracle).
  PlantedSpec spec;
  spec.num_attrs = 12;
  spec.num_bags = 3;
  spec.root_rows = 512;
  spec.max_rows = 4096;
  spec.noise_fraction = 0.1;
  spec.domain_size = 8;
  spec.seed = 33;
  const PlantedDataset d = GeneratePlanted(spec);
  PliEntropyEngine engine(d.relation);
  InfoCalc calc(&engine);
  Deadline deadline = Deadline::After(5e-4);
  FullMvdSearch search(calc, 0.1, &deadline);
  const MinSepsResult result =
      MineMinSeps(&search, d.relation.Universe(), 0, d.relation.NumCols() - 1,
                  &deadline);
  CHECK(result.status.IsDeadlineExceeded());
  FullMvdSearch unbounded(calc, 0.1, nullptr);
  for (AttrSet s : result.separators) {
    CHECK(unbounded.Separates(s, d.relation.Universe(), 0,
                              d.relation.NumCols() - 1));
  }
}

TEST_CASE(CloseWalkNeedsFarFewerOracleCallsThanTheSweep) {
  // Aggregate over every pair of the widest small fixture: the whole point
  // of the walk is to retire the 2^m candidate sweep, so its total
  // verification count must come in well under the sweep's even at 8
  // attributes (the gap widens exponentially with the pool).
  uint64_t close_calls = 0;
  uint64_t exhaustive_calls = 0;
  CheckDifferential(MakePlanted(8, 3, 21).relation, 0.0, &close_calls,
                    &exhaustive_calls);
  CHECK(close_calls > 0);
  CHECK(close_calls * 2 <= exhaustive_calls);
  std::printf("  oracle calls over the pair grid: close walk %llu vs "
              "exhaustive %llu\n",
              static_cast<unsigned long long>(close_calls),
              static_cast<unsigned long long>(exhaustive_calls));
}

TEST_CASE(AgreementClustersAgreeWithTheSeparationOracle) {
  // The exposed component/agreement query is the oracle-level view of a
  // candidate key: an infeasible agreement must refute separation outright,
  // and a separating key's witness split must respect the contraction —
  // the glued a/b clusters sit on their own sides and every free
  // super-attribute lands whole on one side.
  const PlantedDataset d = MakePlanted(8, 3, 21);
  PliEntropyEngine engine(d.relation);
  InfoCalc calc(&engine);
  FullMvdSearch search(calc, 0.0, nullptr);
  const AttrSet universe = d.relation.Universe();
  for (int a = 0; a < d.relation.NumCols(); ++a) {
    for (int b = a + 1; b < d.relation.NumCols(); ++b) {
      const MinSepsResult mined =
          MineMinSeps(&search, universe, a, b, nullptr);
      for (AttrSet key : mined.separators) {
        const FullMvdSearch::SideAgreement agreement =
            search.AgreementClusters(key, universe, a, b);
        CHECK(agreement.feasible);  // the key separates, so it must be
        CHECK(agreement.a_side.Contains(a));
        CHECK(agreement.b_side.Contains(b));
        Mvd witness;
        CHECK(search.FindWitness(key, universe, a, b, &witness));
        CHECK(witness.deps()[0].ContainsAll(agreement.a_side));
        CHECK(witness.deps()[1].ContainsAll(agreement.b_side));
        for (AttrSet cluster : agreement.free_clusters) {
          CHECK(witness.deps()[0].ContainsAll(cluster) ||
                witness.deps()[1].ContainsAll(cluster));
        }
      }
      // And on an arbitrary non-emitted key: infeasible => non-separating.
      const AttrSet probe = universe.Without(a).Without(b);
      const FullMvdSearch::SideAgreement agreement =
          search.AgreementClusters(probe, universe, a, b);
      if (!agreement.feasible) {
        CHECK(!search.Separates(probe, universe, a, b));
      }
    }
  }
}

TEST_CASE(ExhaustiveOptionPlumbsThroughTheMaimonFacade) {
  const PlantedDataset d = MakePlanted(7, 2, 5, /*noise=*/0.05);
  MaimonConfig close_config;
  close_config.epsilon = 0.01;
  MaimonConfig sweep_config = close_config;
  sweep_config.mvd.min_seps.exhaustive = true;

  Maimon close_miner(d.relation, close_config);
  Maimon sweep_miner(d.relation, sweep_config);
  const MvdMinerResult& close = close_miner.MineMvds();
  const MvdMinerResult& sweep = sweep_miner.MineMvds();
  CHECK(close.status.ok());
  CHECK(sweep.status.ok());
  CHECK_EQ(ToSet(close.separators), ToSet(sweep.separators));
  CHECK_EQ(close.NumMvds(), sweep.NumMvds());
  // Walk accounting is aggregated across the pair grid into the facade's
  // metrics registry (Maimon::min_sep_stats is the thin view); the sweep
  // mode reports no seeds/expansions by contract.
  const MinSepsStats close_stats = close_miner.min_sep_stats();
  const MinSepsStats sweep_stats = sweep_miner.min_sep_stats();
  CHECK(close_stats.seeds >= 1);
  CHECK(close_stats.oracle_calls >= 1);
  CHECK_EQ(sweep_stats.seeds, uint64_t{0});
  CHECK_EQ(sweep_stats.expansions, uint64_t{0});
  CHECK(close_stats.oracle_calls < sweep_stats.oracle_calls);
}

TEST_CASE(SeparatorOnlyMiningIsThePerPairWalk) {
  // fig13/fig14 time Maimon::MineMvds at K = 0 full MVDs per separator and
  // no conflict-MVD cap. That must report exactly the per-pair walk over a
  // fresh engine: its separators, its accounting and its entropy queries,
  // no MVD and not one query more, at every thread count.
  const PlantedDataset d = MakePlanted(7, 2, 5, /*noise=*/0.05);
  const double eps = 0.01;
  PliEntropyEngine engine(d.relation);
  InfoCalc calc(&engine);
  FullMvdSearch search(calc, eps, nullptr);
  const AttrSet universe = d.relation.Universe();
  std::set<AttrSet> walked;
  MinSepsStats walk_stats;
  for (int a = 0; a < d.relation.NumCols(); ++a) {
    for (int b = a + 1; b < d.relation.NumCols(); ++b) {
      const MinSepsResult pair = MineMinSeps(&search, universe, a, b, nullptr);
      CHECK(pair.status.ok());
      walked.insert(pair.separators.begin(), pair.separators.end());
      walk_stats.Accumulate(pair.stats);
    }
  }
  CHECK(!walked.empty());

  for (int threads : {1, 2}) {
    MaimonConfig config;
    config.epsilon = eps;
    config.mvd.max_full_mvds_per_separator = 0;
    config.schemas.max_conflict_mvds = 0;
    config.num_threads = threads;
    Maimon maimon(d.relation, config);
    const MvdMinerResult& mined = maimon.MineMvds();
    CHECK(mined.status.ok());
    CHECK_EQ(mined.NumMvds(), size_t{0});
    CHECK_EQ(mined.NumSeparators(), walked.size());
    CHECK_EQ(ToSet(mined.separators), walked);
    const MinSepsStats stats = maimon.min_sep_stats();
    CHECK_EQ(stats.seeds, walk_stats.seeds);
    CHECK_EQ(stats.expansions, walk_stats.expansions);
    CHECK_EQ(stats.oracle_calls, walk_stats.oracle_calls);
    CHECK_EQ(maimon.engine().NumQueries(), engine.NumQueries());
  }
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
