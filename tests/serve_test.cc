// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The query service's contracts (serve/):
//
//   * the planner's covering subtree is connected in the store's join tree
//     and inclusion-minimal, on every <= 10-attribute fixture (planted bag
//     chains, noisy variants, a mined Nursery sample);
//   * partial reconstruction is exact: at eps = 0 a query's result is
//     byte-identical to pi_attrs(sigma(r)) computed directly on the
//     relation, and on noisy stores — planted schemes and schemes mined
//     at eps 0.1 and 0.3 — it equals the full-plan join filtered and
//     projected after the fact (selection pushdown changes cost, never
//     results);
//   * the pruning is observable: a k-attribute query runs strictly fewer
//     semijoin passes than the full plan (obs yk.semijoin_passes);
//   * the point-lookup fast path returns what the general path would;
//   * per-query deadlines expire as kDeadlineExceeded; invalid queries are
//     rejected up front; Swap() publishes a new snapshot atomically while
//     concurrent readers keep the old one alive (8-thread stress, run
//     under TSan in the tsan lane);
//   * a seeded random sweep (universe and whole-node projections, random
//     subsets, Eq/Range selections, invalid shapes) answers like the
//     oracles above, so the executor's sum-product Count and its no-dedup
//     enumeration are both exercised;
//   * a count past 2^64 - 1 is kResourceExhausted, never a wrapped number;
//   * the serve.query span carries rows_in, and Count opens yk.count;
//   * a dedup plan is cut before its join: a middle node without output
//     attributes is cut to its separator keys, a leaf kept only for its
//     selection leaves, a sparse-code store takes the hashed cut, and the
//     join enumerates fewer rows than the uncut one (on Nursery's
//     [C][ABDEFGHI], exactly the answer's rows);
//   * under tiny budgets the random sweep expires or answers exactly.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/maimon.h"
#include "data/nursery.h"
#include "data/planted.h"
#include "decomp/projection_store.h"
#include "decomp/yannakakis.h"
#include "obs/trace.h"
#include "scheme/assembler.h"
#include "scheme/ranker.h"
#include "serve/planner.h"
#include "serve/service.h"
#include "store/writer.h"
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

// The planted ground truth as an acyclic scheme (support MVDs applied as
// join-tree splits) — same construction decomp_test uses.
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

struct Fixture {
  PlantedDataset data;
  Schema schema;
};

Fixture MakeChainFixture(int attrs, int bags, uint64_t seed,
                         double noise = 0.0) {
  Fixture f{MakePlanted(attrs, bags, seed, noise), Schema()};
  PliEntropyEngine engine(f.data.relation);
  InfoCalc oracle(&engine);
  f.schema = PlantedScheme(f.data, oracle);
  return f;
}

// pi_attrs(sigma(r)) computed directly on the relation — the external
// oracle every eps = 0 serving result must match byte-for-byte.
std::set<std::vector<uint32_t>> DirectAnswer(const Relation& r,
                                             const serve::Query& q) {
  std::set<std::vector<uint32_t>> out;
  const std::vector<int> cols = q.attrs.ToVector();
  for (size_t row = 0; row < r.NumRows(); ++row) {
    bool keep = true;
    for (const serve::Selection& sel : q.selections) {
      if (!sel.Matches(r.Value(row, sel.attr))) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    std::vector<uint32_t> t(cols.size());
    for (size_t i = 0; i < cols.size(); ++i) t[i] = r.Value(row, cols[i]);
    out.insert(std::move(t));
  }
  return out;
}

// Filter-after-join oracle: materialize the FULL plan's join, then apply
// the selections and project. Valid at any eps for relation-built stores
// (they are globally consistent by construction), so this is the internal
// referee for noisy fixtures where join != r.
std::set<std::vector<uint32_t>> FullPlanAnswer(const ProjectionStore& store,
                                               const serve::Query& q) {
  YannakakisExecutor executor(store);
  YannakakisOptions options;
  options.materialize = true;
  const JoinResult join = executor.Execute(options);
  std::vector<size_t> pos_of(AttrSet::kMaxAttrs, 0);
  for (size_t i = 0; i < join.columns.size(); ++i) {
    pos_of[static_cast<size_t>(join.columns[i])] = i;
  }
  const std::vector<int> cols = q.attrs.ToVector();
  std::set<std::vector<uint32_t>> out;
  for (const std::vector<uint32_t>& row : join.tuples) {
    bool keep = true;
    for (const serve::Selection& sel : q.selections) {
      if (!sel.Matches(row[pos_of[static_cast<size_t>(sel.attr)]])) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    std::vector<uint32_t> t(cols.size());
    for (size_t i = 0; i < cols.size(); ++i) {
      t[i] = row[pos_of[static_cast<size_t>(cols[i])]];
    }
    out.insert(std::move(t));
  }
  return out;
}

// Singles, all pairs, and a few selection-bearing queries over `universe`.
std::vector<serve::Query> EnumerateQueries(AttrSet universe) {
  std::vector<serve::Query> qs;
  const std::vector<int> attrs = universe.ToVector();
  for (int a : attrs) {
    serve::Query q;
    q.attrs = AttrSet::Single(a);
    qs.push_back(q);
  }
  for (size_t i = 0; i < attrs.size(); ++i) {
    for (size_t j = i + 1; j < attrs.size(); ++j) {
      serve::Query q;
      q.attrs = AttrSet::Single(attrs[i]).Plus(attrs[j]);
      qs.push_back(q);
    }
  }
  for (size_t i = 0; i + 2 < attrs.size(); i += 3) {
    serve::Query eq;
    eq.attrs = AttrSet::Single(attrs[i]).Plus(attrs[i + 2]);
    eq.selections.push_back(serve::Selection::Eq(attrs[i + 1], 1));
    qs.push_back(eq);
    serve::Query range;
    range.attrs = AttrSet::Single(attrs[i + 1]);
    range.selections.push_back(serve::Selection::Range(attrs[i], 0, 3));
    qs.push_back(range);
  }
  return qs;
}

// One query against the service, checked against `expect` byte-for-byte
// (materialized rows AND the count-only path).
void CheckAnswer(const serve::QueryService& service, const serve::Query& q,
                 const std::set<std::vector<uint32_t>>& expect) {
  const serve::QueryResult res = service.Execute(q);
  CHECK(res.status.ok());
  CHECK_EQ(res.rows, static_cast<uint64_t>(expect.size()));
  CHECK_EQ(res.tuples.size(), expect.size());
  const std::set<std::vector<uint32_t>> got(res.tuples.begin(),
                                            res.tuples.end());
  CHECK(got == expect);
  CHECK_EQ(res.columns, q.attrs.ToVector());

  serve::Query count = q;
  count.count_only = true;
  const serve::QueryResult counted = service.Execute(count);
  CHECK(counted.status.ok());
  CHECK_EQ(counted.rows, static_cast<uint64_t>(expect.size()));
  CHECK(counted.tuples.empty());
}

// Connectivity + inclusion-minimality of one plan's covering subtree.
void CheckCover(const serve::Planner& planner,
                const std::vector<AttrSet>& rels, AttrSet touched,
                const serve::QueryPlan& plan) {
  CHECK(plan.status.ok());
  CHECK(plan.covered.ContainsAll(touched));
  CHECK(!plan.nodes.empty());
  std::set<int> in;
  for (const serve::PlanNode& n : plan.nodes) in.insert(n.store_index);

  // Connected within the join tree: BFS over tree edges restricted to the
  // chosen set reaches every chosen node.
  const JoinTree& tree = planner.tree();
  std::set<int> seen = {plan.nodes[0].store_index};
  std::vector<int> stack = {plan.nodes[0].store_index};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    std::vector<int> nbrs = tree.children[static_cast<size_t>(v)];
    if (tree.parent[static_cast<size_t>(v)] >= 0) {
      nbrs.push_back(tree.parent[static_cast<size_t>(v)]);
    }
    for (int u : nbrs) {
      if (in.count(u) > 0 && seen.insert(u).second) stack.push_back(u);
    }
  }
  CHECK_EQ(seen.size(), in.size());

  // Inclusion-minimal: every leaf of the subtree is load-bearing — it
  // carries some touched attribute no other chosen node has.
  if (in.size() > 1) {
    for (int v : in) {
      int degree = 0;
      if (tree.parent[static_cast<size_t>(v)] >= 0 &&
          in.count(tree.parent[static_cast<size_t>(v)]) > 0) {
        ++degree;
      }
      for (int c : tree.children[static_cast<size_t>(v)]) {
        if (in.count(c) > 0) ++degree;
      }
      if (degree > 1) continue;
      bool load_bearing = false;
      for (int a :
           rels[static_cast<size_t>(v)].Intersect(touched).ToVector()) {
        int holders = 0;
        for (int u : in) {
          if (rels[static_cast<size_t>(u)].Contains(a)) ++holders;
        }
        if (holders == 1) {
          load_bearing = true;
          break;
        }
      }
      CHECK(load_bearing);
    }
  }
}

TEST_CASE(CoverIsMinimalAndConnectedOnEveryFixture) {
  std::vector<ProjectionStore> stores;
  for (const Fixture& f :
       {MakeChainFixture(8, 3, 5), MakeChainFixture(10, 3, 7),
        MakeChainFixture(8, 3, 11, /*noise=*/0.02),
        MakeChainFixture(9, 2, 13, /*noise=*/0.1)}) {
    stores.emplace_back(f.data.relation, f.schema);
  }
  // One mined fixture: the Nursery sample decomp_test also mines, so the
  // planner is exercised on a real mined schema, not only planted ones.
  const Relation nursery = NurseryDataset().SampleRows(0.05, 3);
  MaimonConfig config;
  config.epsilon = 0.3;
  config.mvd_budget_seconds = 10.0;
  config.schema_budget_seconds = 10.0;
  config.schemas.max_schemas = 8;
  config.mvd.max_full_mvds_per_separator = 3;
  Maimon maimon(nursery, config);
  const AsMinerResult mined = maimon.MineSchemas();
  CHECK(!mined.schemas.empty());
  stores.emplace_back(nursery, mined.schemas[0].schema);

  for (const ProjectionStore& store : stores) {
    const serve::Planner planner(&store);
    std::vector<AttrSet> rels;
    for (const StoredProjection& p : store.projections()) {
      rels.push_back(p.attrs);
    }
    for (const serve::Query& q : EnumerateQueries(planner.universe())) {
      AttrSet touched = q.attrs;
      for (const serve::Selection& sel : q.selections) touched.Add(sel.attr);
      CheckCover(planner, rels, touched, planner.Plan(q));
    }
  }
}

TEST_CASE(PartialReconstructionEqualsDirectProjectionAtEpsZero) {
  for (uint64_t seed : {1u, 9u, 23u}) {
    const Fixture f = MakeChainFixture(9, 3, seed);
    const serve::QueryService service(
        ProjectionStore(f.data.relation, f.schema));
    for (const serve::Query& q :
         EnumerateQueries(f.data.relation.Universe())) {
      CheckAnswer(service, q, DirectAnswer(f.data.relation, q));
    }
  }
}

// The top scheme by J that Maimon mines from `r` at `eps`: the scheme a
// deployment serves (pipebench deploys exactly this one).
Schema TopMinedScheme(const Relation& r, double eps) {
  MaimonConfig config;
  config.epsilon = eps;
  config.mvd_budget_seconds = 60.0;
  config.schema_budget_seconds = 60.0;
  config.schemas.max_schemas = 200;
  Maimon maimon(r, config);
  const AsMinerResult mined = maimon.MineSchemas();
  CHECK(mined.status.ok());
  CHECK(!mined.schemas.empty());
  RankerOptions ranker;
  ranker.primary = RankKey::kJMeasure;
  const RankResult ranked =
      RankSchemes(r, mined.schemas, maimon.oracle(), ranker);
  CHECK(ranked.status.ok());
  CHECK(!ranked.ranked.empty());
  return ranked.ranked.front().schema;
}

TEST_CASE(SelectionPushdownEqualsFilterAfterJoin) {
  // Noisy stores: join != r, so the referee is the FULL plan joined first
  // and filtered after — pushdown must not change a single row. Planted
  // schemes, plus mined ones: Nursery at eps 0.3 (whose top scheme is the
  // [C][ABDEFGHI] the serve-nursery benchmark deploys) and a noisy
  // planted chain at eps 0.1.
  std::vector<std::pair<Relation, Schema>> inputs;
  for (const Fixture& f : {MakeChainFixture(8, 3, 11, /*noise=*/0.02),
                           MakeChainFixture(9, 2, 13, /*noise=*/0.1)}) {
    inputs.emplace_back(f.data.relation, f.schema);
  }
  const Relation nursery = NurseryDataset();
  const Schema nursery_scheme = TopMinedScheme(nursery, 0.3);
  CHECK_EQ(nursery_scheme.ToString(), std::string("[C][ABDEFGHI]"));
  inputs.emplace_back(nursery, nursery_scheme);
  const Relation chain = MakePlanted(9, 3, 37, /*noise=*/0.05).relation;
  const Schema chain_scheme = TopMinedScheme(chain, 0.1);
  CHECK(chain_scheme.NumRelations() >= 2);
  inputs.emplace_back(chain, chain_scheme);
  std::printf("  mined: nursery %s, noisy chain %s\n",
              nursery_scheme.ToString().c_str(),
              chain_scheme.ToString().c_str());

  for (const auto& [relation, schema] : inputs) {
    const ProjectionStore store(relation, schema);
    const serve::QueryService service(ProjectionStore(relation, schema));
    for (const serve::Query& q : EnumerateQueries(relation.Universe())) {
      CheckAnswer(service, q, FullPlanAnswer(store, q));
    }
  }
}

TEST_CASE(PointLookupFastPathMatchesTheGeneralPath) {
  const Fixture f = MakeChainFixture(9, 3, 9);
  // The same chain with the looked-up column's codes spread out so the max
  // code is above 2^31, as a CSV with sparse codes imports: the lookup
  // index must not size itself by that column's domain.
  const int spread_col =
      ProjectionStore(f.data.relation, f.schema).projections()[0].attrs.First();
  const auto spread = [](uint32_t code) { return code * 0x20000000u + 3u; };
  std::vector<std::vector<uint32_t>> columns;
  std::vector<uint32_t> domains;
  for (int c = 0; c < f.data.relation.NumCols(); ++c) {
    columns.push_back(f.data.relation.Column(c));
    domains.push_back(f.data.relation.DomainSize(c));
  }
  for (uint32_t& code : columns[static_cast<size_t>(spread_col)]) {
    code = spread(code);
  }
  domains[static_cast<size_t>(spread_col)] =
      spread(f.data.relation.DomainSize(spread_col) - 1) + 1;
  CHECK(domains[static_cast<size_t>(spread_col)] > 2147483648u);
  const Relation sparse(std::move(columns), std::move(domains));

  for (const bool spread_codes : {false, true}) {
    const Relation& relation = spread_codes ? sparse : f.data.relation;
    const serve::QueryService service(ProjectionStore(relation, f.schema));
    const StoredProjection& proj =
        service.snapshot()->store().projections()[0];
    const std::vector<int> cols = proj.attrs.ToVector();
    CHECK_EQ(cols[0], spread_col);
    for (uint32_t code = 0; code < 8; ++code) {
      const uint32_t value = spread_codes ? spread(code) : code;
      // Whole-node projection: no dedup needed on the fast path.
      serve::Query whole;
      whole.attrs = proj.attrs;
      whole.selections.push_back(serve::Selection::Eq(cols[0], value));
      // Sub-node projection: the fast path must deduplicate.
      serve::Query narrow;
      narrow.attrs = AttrSet::Single(cols.back());
      narrow.selections.push_back(serve::Selection::Eq(cols[0], value));
      for (const serve::Query& q : {whole, narrow}) {
        const serve::QueryResult res = service.Execute(q);
        CHECK(res.status.ok());
        CHECK(res.point_lookup);
        CHECK_EQ(res.plan_nodes, size_t{1});
        CHECK_EQ(res.semijoin_passes, uint64_t{0});
        const std::set<std::vector<uint32_t>> expect =
            DirectAnswer(relation, q);
        CHECK_EQ(res.rows, static_cast<uint64_t>(expect.size()));
        const std::set<std::vector<uint32_t>> got(res.tuples.begin(),
                                                  res.tuples.end());
        CHECK(got == expect);
      }
    }
  }
}

TEST_CASE(PrunedPlanRunsFewerSemijoinPassesThanTheFullPlan) {
  // The acceptance gate, read off the obs counters: on a planted chain, a
  // query covering a strict subtree applies strictly fewer semijoin
  // passes than the full-plan reduction (2 * (nodes - 1)).
  const Fixture f = MakeChainFixture(10, 3, 7);
  obs::Sink sink;
  serve::ServiceOptions options;
  options.sink = &sink;
  const serve::QueryService service(
      ProjectionStore(f.data.relation, f.schema), options);
  const size_t n = service.snapshot()->store().NumProjections();
  CHECK(n >= 3);
  const uint64_t full_passes = 2 * (static_cast<uint64_t>(n) - 1);
  // The snapshot build ran exactly one full reduction.
  CHECK_EQ(sink.SnapshotMetrics().counter("yk.semijoin_passes"), full_passes);

  // Single-attribute query: one node, zero semijoins.
  serve::Query single;
  single.attrs = AttrSet::Single(f.data.relation.Universe().First());
  const serve::QueryResult r1 = service.Execute(single);
  CHECK(r1.status.ok());
  CHECK_EQ(r1.plan_nodes, size_t{1});
  CHECK_EQ(r1.semijoin_passes, uint64_t{0});

  // Two attributes private to adjacent bags: a 2-node subtree of the
  // 3-node chain.
  const std::vector<AttrSet> bags = f.data.schema.Bags();
  const int u0 = bags[0].Minus(bags[1]).Minus(bags[2]).First();
  const int u1 = bags[1].Minus(bags[0]).Minus(bags[2]).First();
  CHECK(u0 >= 0);
  CHECK(u1 >= 0);
  const uint64_t before = sink.SnapshotMetrics().counter("yk.semijoin_passes");
  serve::Query pair;
  pair.attrs = AttrSet::Single(u0).Plus(u1);
  const serve::QueryResult r2 = service.Execute(pair);
  CHECK(r2.status.ok());
  CHECK(r2.plan_nodes >= 2);
  CHECK(r2.plan_nodes < n);
  CHECK(r2.semijoin_passes > 0);
  CHECK(r2.semijoin_passes < full_passes);
  // The executor's counter flows through to the sink, once per query.
  const uint64_t after = sink.SnapshotMetrics().counter("yk.semijoin_passes");
  CHECK_EQ(after - before, r2.semijoin_passes);
  // And the result is still exact.
  CHECK_EQ(r2.rows,
           static_cast<uint64_t>(DirectAnswer(f.data.relation, pair).size()));
}

TEST_CASE(PerQueryDeadlineExpiresAsDeadlineExceeded) {
  const Fixture f = MakeChainFixture(10, 3, 19);
  obs::Sink sink;
  serve::ServiceOptions options;
  options.sink = &sink;
  const serve::QueryService service(
      ProjectionStore(f.data.relation, f.schema), options);
  serve::Query q;
  // Span the whole chain so the executor actually reduces.
  q.attrs = f.data.relation.Universe();
  q.budget_seconds = 1e-9;
  const serve::QueryResult res = service.Execute(q);
  CHECK(res.status.IsDeadlineExceeded());
  CHECK_EQ(sink.SnapshotMetrics().counter("serve.deadline_exceeded"),
           uint64_t{1});
  // The same query without a budget completes.
  q.budget_seconds = 0;
  q.count_only = true;
  CHECK(service.Execute(q).status.ok());
  // So does one whose budget is past what the clock can hold (it must not
  // wrap to an expired deadline), with the unbudgeted query's rows.
  q.count_only = false;
  const serve::QueryResult unbudgeted = service.Execute(q);
  CHECK(unbudgeted.status.ok());
  CHECK(unbudgeted.rows > 0);
  for (double budget : {1e12, std::numeric_limits<double>::infinity()}) {
    q.budget_seconds = budget;
    const serve::QueryResult huge = service.Execute(q);
    CHECK(huge.status.ok());
    CHECK_EQ(huge.rows, unbudgeted.rows);
    CHECK(huge.tuples == unbudgeted.tuples);
  }
}

TEST_CASE(InvalidQueriesAreRejectedUpFront) {
  const Fixture f = MakeChainFixture(8, 2, 5);
  const serve::QueryService service(
      ProjectionStore(f.data.relation, f.schema));
  serve::Query empty;
  CHECK_EQ(service.Execute(empty).status.code(),
           Status::Code::kInvalidArgument);
  serve::Query outside;
  outside.attrs = AttrSet::Single(40);  // not in an 8-attribute universe
  CHECK_EQ(service.Execute(outside).status.code(),
           Status::Code::kInvalidArgument);
  serve::Query bad_range;
  bad_range.attrs = AttrSet::Single(0);
  bad_range.selections.push_back(serve::Selection::Range(1, 5, 2));
  CHECK_EQ(service.Execute(bad_range).status.code(),
           Status::Code::kInvalidArgument);
  // Selection attributes outside the universe, including ones no AttrSet
  // can hold.
  for (int attr : {40, 64, -1}) {
    serve::Query bad_sel_attr;
    bad_sel_attr.attrs = AttrSet::Single(0);
    bad_sel_attr.selections.push_back(serve::Selection::Eq(attr, 0));
    CHECK_EQ(service.Execute(bad_sel_attr).status.code(),
             Status::Code::kInvalidArgument);
  }
}

TEST_CASE(SwapPublishesTheNewStoreAtomically) {
  const Fixture a = MakeChainFixture(8, 2, 5);
  const Fixture b = MakeChainFixture(8, 2, 17);
  serve::QueryService service(ProjectionStore(a.data.relation, a.schema));
  serve::Query q;
  q.attrs = a.data.relation.Universe();
  CheckAnswer(service, q, DirectAnswer(a.data.relation, q));
  CHECK_EQ(service.generation(), uint64_t{0});
  service.Swap(ProjectionStore(b.data.relation, b.schema));
  CHECK_EQ(service.generation(), uint64_t{1});
  CheckAnswer(service, q, DirectAnswer(b.data.relation, q));
}

TEST_CASE(FromFileColdStartAnswersByteIdenticalToCsvBuiltService) {
  // The store/ cold-start contract: a service started from a store file
  // (canonical or not) answers every query byte-identically to the service
  // built from the relation in memory. Canonical stores additionally skip
  // the snapshot re-reduction — same answers, cheaper start.
  const Fixture f = MakeChainFixture(9, 3, 9, /*noise=*/0.02);
  const ProjectionStore built(f.data.relation, f.schema);
  const serve::QueryService reference(
      ProjectionStore(f.data.relation, f.schema));

  const std::string base = "/tmp/maimon_serve_test_" +
                           std::to_string(static_cast<long>(::getpid()));
  const std::string raw_path = base + "_raw.maimon";
  const std::string canon_path = base + "_canon.maimon";
  const store::Writer writer;
  CHECK(writer.Write(built, raw_path).ok());
  YannakakisExecutor executor(built);
  CHECK(executor.Reduce(nullptr, 1, nullptr).ok());
  const ProjectionStore canonical(executor.ReducedProjections(),
                                  built.original_cells(), /*canonical=*/true);
  CHECK(writer.Write(canonical, canon_path).ok());

  for (const std::string& path : {raw_path, canon_path}) {
    std::unique_ptr<serve::QueryService> cold;
    CHECK(serve::QueryService::FromFile(path, serve::ServiceOptions(), &cold)
              .ok());
    for (const serve::Query& q :
         EnumerateQueries(f.data.relation.Universe())) {
      const serve::QueryResult want = reference.Execute(q);
      CHECK(want.status.ok());
      CheckAnswer(*cold, q,
                  std::set<std::vector<uint32_t>>(want.tuples.begin(),
                                                  want.tuples.end()));
    }
  }
  // A failed cold start (here: no such file) reports and *out stays unset.
  std::unique_ptr<serve::QueryService> none;
  CHECK(!serve::QueryService::FromFile(base + "_missing.maimon",
                                       serve::ServiceOptions(), &none)
             .ok());
  CHECK(none == nullptr);
  std::remove(raw_path.c_str());
  std::remove(canon_path.c_str());
}

TEST_CASE(SwapFromFileHotSwapsAndFailureKeepsTheOldSnapshot) {
  const Fixture a = MakeChainFixture(8, 2, 5);
  const Fixture b = MakeChainFixture(8, 2, 17);
  serve::QueryService service(ProjectionStore(a.data.relation, a.schema));
  serve::Query q;
  q.attrs = a.data.relation.Universe();
  CheckAnswer(service, q, DirectAnswer(a.data.relation, q));

  const std::string path = "/tmp/maimon_serve_test_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           "_swap.maimon";
  const store::Writer writer;
  CHECK(writer.Write(ProjectionStore(b.data.relation, b.schema), path).ok());
  CHECK(service.SwapFromFile(path).ok());
  CHECK_EQ(service.generation(), uint64_t{1});
  CheckAnswer(service, q, DirectAnswer(b.data.relation, q));

  // A failed swap (missing file) leaves the b snapshot serving untouched.
  CHECK(!service.SwapFromFile(path + ".gone").ok());
  CHECK_EQ(service.generation(), uint64_t{1});
  CheckAnswer(service, q, DirectAnswer(b.data.relation, q));
  std::remove(path.c_str());
}

TEST_CASE(ConcurrentQueryStressAcrossSwap) {
  // 8 client threads hammer the service while the main thread swaps the
  // snapshot underneath them. Every result must match one of the two
  // stores exactly — never a mix. (This case is the tsan lane's serve
  // entry: the snapshot load, the call_once index builds and the shared
  // sink must all be clean under concurrent readers.)
  const Fixture a = MakeChainFixture(8, 2, 5);
  const Fixture b = MakeChainFixture(8, 2, 17);
  obs::Sink sink;
  serve::ServiceOptions options;
  options.sink = &sink;
  serve::QueryService service(ProjectionStore(a.data.relation, a.schema),
                              options);

  const std::vector<serve::Query> queries =
      EnumerateQueries(a.data.relation.Universe());
  std::vector<std::set<std::vector<uint32_t>>> expect_a, expect_b;
  for (const serve::Query& q : queries) {
    expect_a.push_back(DirectAnswer(a.data.relation, q));
    expect_b.push_back(DirectAnswer(b.data.relation, q));
  }

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 200;
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const size_t qi =
            (static_cast<size_t>(t) * 31 + static_cast<size_t>(i)) %
            queries.size();
        serve::Query q = queries[qi];
        q.count_only = (i % 2) == 0;
        const serve::QueryResult res = service.Execute(q);
        if (!res.status.ok()) {
          ++errors;
          continue;
        }
        const bool rows_match_a =
            res.rows == static_cast<uint64_t>(expect_a[qi].size());
        const bool rows_match_b =
            res.rows == static_cast<uint64_t>(expect_b[qi].size());
        bool ok = rows_match_a || rows_match_b;
        if (ok && !q.count_only) {
          const std::set<std::vector<uint32_t>> got(res.tuples.begin(),
                                                    res.tuples.end());
          ok = (rows_match_a && got == expect_a[qi]) ||
               (rows_match_b && got == expect_b[qi]);
        }
        if (!ok) ++mismatches;
      }
      sink.ReleaseLane();
    });
  }
  service.Swap(ProjectionStore(b.data.relation, b.schema));
  for (std::thread& w : workers) w.join();
  CHECK_EQ(mismatches.load(), uint64_t{0});
  CHECK_EQ(errors.load(), uint64_t{0});
  CHECK_EQ(service.generation(), uint64_t{1});
  CHECK_EQ(sink.SnapshotMetrics().counter("serve.queries"),
           static_cast<uint64_t>(kThreads * kQueriesPerThread));
}

// `count` random queries over `store`'s universe: the universe, a whole
// node, a random subset or a single attribute, each with no selection, an
// Eq, a Range, or both. Values run one past each column's domain, so some
// selections match nothing.
std::vector<serve::Query> RandomQueries(const ProjectionStore& store,
                                        uint64_t seed, size_t count) {
  AttrSet universe;
  std::vector<uint32_t> domain(AttrSet::kMaxAttrs, 1);
  for (const StoredProjection& p : store.projections()) {
    universe = universe.Union(p.attrs);
    for (size_t c = 0; c < p.columns.size(); ++c) {
      domain[static_cast<size_t>(p.columns[c])] = p.domains[c];
    }
  }
  const std::vector<int> attrs = universe.ToVector();
  Rng rng(seed);
  const auto any_attr = [&] { return attrs[rng.Uniform(attrs.size())]; };
  const auto any_value = [&](int a) {
    return static_cast<uint32_t>(
        rng.Uniform(uint64_t{domain[static_cast<size_t>(a)]} + 1));
  };
  std::vector<serve::Query> out;
  for (size_t i = 0; i < count; ++i) {
    serve::Query q;
    switch (rng.Uniform(4)) {
      case 0:
        q.attrs = universe;
        break;
      case 1:
        q.attrs =
            store.projections()[rng.Uniform(store.NumProjections())].attrs;
        break;
      case 2:
        for (int a : attrs) {
          if (rng.Bernoulli(0.5)) q.attrs.Add(a);
        }
        if (q.attrs.Empty()) q.attrs.Add(any_attr());
        break;
      default:
        q.attrs.Add(any_attr());
        break;
    }
    const uint64_t selections = rng.Uniform(4);
    if ((selections & 1) != 0) {
      const int a = any_attr();
      q.selections.push_back(serve::Selection::Eq(a, any_value(a)));
    }
    if ((selections & 2) != 0) {
      const int a = any_attr();
      const uint32_t lo = any_value(a);
      const uint32_t hi = std::max(lo, any_value(a));
      q.selections.push_back(serve::Selection::Range(a, lo, hi));
    }
    out.push_back(std::move(q));
  }
  return out;
}

// Invalid shapes, materialized and count-only: an empty projection, a
// projected or selected attribute outside the universe, and lo > hi.
void CheckRandomInvalidQueries(const serve::QueryService& service,
                               AttrSet universe, uint64_t seed) {
  Rng rng(seed);
  const std::vector<int> attrs = universe.ToVector();
  const int outside = attrs.back() + 1 +
                      static_cast<int>(rng.Uniform(
                          static_cast<uint64_t>(AttrSet::kMaxAttrs - 1 -
                                                attrs.back())));
  for (int i = 0; i < 8; ++i) {
    const int a = attrs[rng.Uniform(attrs.size())];
    serve::Query empty;
    empty.selections.push_back(serve::Selection::Eq(a, 0));
    serve::Query out_of_universe;
    out_of_universe.attrs = AttrSet::Single(a).Plus(outside);
    serve::Query bad_selection;
    bad_selection.attrs = AttrSet::Single(a);
    bad_selection.selections.push_back(serve::Selection::Eq(outside, 0));
    serve::Query inverted;
    inverted.attrs = AttrSet::Single(a);
    const uint32_t hi = static_cast<uint32_t>(rng.Uniform(8));
    inverted.selections.push_back(serve::Selection::Range(
        attrs[rng.Uniform(attrs.size())], hi + 1 +
                                              static_cast<uint32_t>(
                                                  rng.Uniform(4)),
        hi));
    for (serve::Query q : {empty, out_of_universe, bad_selection, inverted}) {
      for (const bool count_only : {false, true}) {
        q.count_only = count_only;
        const serve::QueryResult res = service.Execute(q);
        CHECK_EQ(res.status.code(), Status::Code::kInvalidArgument);
        CHECK_EQ(res.rows, uint64_t{0});
        CHECK(res.tuples.empty());
      }
    }
  }
}

TEST_CASE(RandomQuerySweepMatchesTheOracles) {
  // eps 0: every answer is the relation's own projection.
  uint64_t seed = 1000;
  for (const Fixture& f :
       {MakeChainFixture(9, 3, 1), MakeChainFixture(10, 3, 7),
        MakeChainFixture(12, 4, 3)}) {
    const ProjectionStore store(f.data.relation, f.schema);
    const serve::QueryService service(
        ProjectionStore(f.data.relation, f.schema));
    for (const serve::Query& q : RandomQueries(store, ++seed, 48)) {
      CheckAnswer(service, q, DirectAnswer(f.data.relation, q));
    }
    CheckRandomInvalidQueries(service, f.data.relation.Universe(), ++seed);
  }
  // Noisy planted stores and mined ones: the full plan, filtered after.
  // Nursery's [C][ABDEFGHI] joins across an empty separator.
  std::vector<std::pair<Relation, Schema>> inputs;
  for (const Fixture& f : {MakeChainFixture(8, 3, 11, /*noise=*/0.02),
                           MakeChainFixture(9, 2, 13, /*noise=*/0.1)}) {
    inputs.emplace_back(f.data.relation, f.schema);
  }
  const Relation nursery = NurseryDataset();
  inputs.emplace_back(nursery, TopMinedScheme(nursery, 0.3));
  const Relation chain = MakePlanted(9, 3, 37, /*noise=*/0.05).relation;
  inputs.emplace_back(chain, TopMinedScheme(chain, 0.1));
  for (const auto& [relation, schema] : inputs) {
    const ProjectionStore store(relation, schema);
    const serve::QueryService service(ProjectionStore(relation, schema));
    for (const serve::Query& q : RandomQueries(store, ++seed, 32)) {
      CheckAnswer(service, q, FullPlanAnswer(store, q));
    }
    CheckRandomInvalidQueries(service, relation.Universe(), ++seed);
  }
}

// `projections` canonical projections over disjoint attribute pairs, each
// every (a, b) with a < 128 and b < 64: 8,192 rows, so their join (a cross
// product, every separator empty) has 2^(13 * projections) rows.
ProjectionStore DisjointPairProduct(int projections) {
  std::vector<StoredProjection> out;
  for (int k = 0; k < projections; ++k) {
    StoredProjection p;
    p.attrs = AttrSet::Single(2 * k).Plus(2 * k + 1);
    p.columns = {2 * k, 2 * k + 1};
    p.domains = {128, 64};
    p.codes.resize(2);
    for (uint32_t a = 0; a < 128; ++a) {
      for (uint32_t b = 0; b < 64; ++b) {
        p.codes[0].push_back(a);
        p.codes[1].push_back(b);
      }
    }
    out.push_back(std::move(p));
  }
  return ProjectionStore(std::move(out), /*original_cells=*/0);
}

TEST_CASE(CountPastTwoToTheSixtyFourIsResourceExhausted) {
  // Four projections: 2^52 rows, counted exactly without a row enumerated.
  {
    const serve::QueryService service(DisjointPairProduct(4));
    serve::Query q;
    q.attrs = service.snapshot()->planner().universe();
    q.count_only = true;
    q.budget_seconds = 2.0;
    const serve::QueryResult res = service.Execute(q);
    CHECK(res.status.ok());
    CHECK_EQ(res.rows, uint64_t{1} << 52);
    CHECK_EQ(res.plan_nodes, size_t{4});
    CHECK_EQ(res.semijoin_passes, uint64_t{6});
    CHECK_EQ(res.rows_in, uint64_t{4 * 8192});
  }
  // Five: 2^65 rows. The count must fail, not wrap (2^65 mod 2^64 is 0).
  const serve::QueryService service(DisjointPairProduct(5));
  serve::Query q;
  q.attrs = service.snapshot()->planner().universe();
  q.count_only = true;
  q.budget_seconds = 2.0;
  const serve::QueryResult res = service.Execute(q);
  CHECK_EQ(res.status.code(), Status::Code::kResourceExhausted);
  CHECK_EQ(res.rows, uint64_t{0});
  // Below the overflow the same store still counts: a 3-projection cover.
  serve::Query three;
  three.attrs = AttrSet(0b111111);
  three.count_only = true;
  const serve::QueryResult counted = service.Execute(three);
  CHECK(counted.status.ok());
  CHECK_EQ(counted.rows, uint64_t{1} << 39);
}

TEST_CASE(QuerySpansCarryRowsInAndTheCountPass) {
  const Fixture f = MakeChainFixture(10, 3, 7);
  obs::Sink sink;
  serve::ServiceOptions options;
  options.sink = &sink;
  const serve::QueryService service(
      ProjectionStore(f.data.relation, f.schema), options);
  const std::vector<StoredProjection>& projections =
      service.snapshot()->store().projections();

  // No selection: every row of every plan node enters the join.
  serve::Query all;
  all.attrs = f.data.relation.Universe();
  all.count_only = true;
  const serve::QueryResult counted = service.Execute(all);
  CHECK(counted.status.ok());
  uint64_t stored = 0;
  for (const StoredProjection& p : projections) stored += p.NumRows();
  CHECK_EQ(counted.rows_in, stored);
  // A selection keeps only the matching rows of the nodes that carry it.
  serve::Query narrow = all;
  const int attr = projections[0].columns[0];
  narrow.selections.push_back(serve::Selection::Eq(attr, 0));
  const serve::QueryResult filtered = service.Execute(narrow);
  CHECK(filtered.status.ok());
  uint64_t kept = 0;
  for (const StoredProjection& p : projections) {
    const auto col = std::find(p.columns.begin(), p.columns.end(), attr);
    if (col == p.columns.end()) {
      kept += p.NumRows();
      continue;
    }
    const std::vector<uint32_t>& codes =
        p.codes[static_cast<size_t>(col - p.columns.begin())];
    kept += static_cast<uint64_t>(std::count(codes.begin(), codes.end(), 0u));
  }
  CHECK_EQ(filtered.rows_in, kept);
  CHECK(filtered.rows_in < counted.rows_in);

  const std::string counted_rows_in =
      "\"rows_in\":" + std::to_string(counted.rows_in);
  const std::string counted_rows =
      "\"rows\":" + std::to_string(counted.rows);
  bool query_span = false;
  bool count_span = false;
  sink.ForEachEvent([&](int, const std::string&, const obs::TraceEvent& e) {
    if (e.name == std::string("serve.query") &&
        e.args_json.find(counted_rows_in) != std::string::npos) {
      query_span = true;
    }
    if (e.name == std::string("yk.count") &&
        e.args_json.find(counted_rows) != std::string::npos) {
      count_span = true;
    }
  });
  CHECK(query_span);
  CHECK(count_span);
}

// An attribute of projection `v` that no other projection of `store`
// holds; -1 when there is none.
int PrivateAttr(const ProjectionStore& store, size_t v) {
  AttrSet others;
  for (size_t u = 0; u < store.NumProjections(); ++u) {
    if (u != v) others = others.Union(store.projections()[u].attrs);
  }
  return store.projections()[v].attrs.Minus(others).First();
}

// The args of every `name` span `sink` recorded, in emission order.
std::vector<std::string> SpanArgs(const obs::Sink& sink, const char* name) {
  std::vector<std::string> args;
  sink.ForEachEvent([&](int, const std::string&, const obs::TraceEvent& e) {
    if (e.name == std::string(name)) args.push_back(e.args_json);
  });
  return args;
}

// A planted 3-node chain served with a sink; `leaf_attr` holds an
// attribute private to each of the chain's two leaves.
struct ServedChain {
  Fixture fixture = MakeChainFixture(10, 3, 7);
  obs::Sink sink;
  std::unique_ptr<serve::QueryService> service;
  std::vector<int> leaf_attr;

  ServedChain() {
    serve::ServiceOptions options;
    options.sink = &sink;
    service = std::make_unique<serve::QueryService>(
        ProjectionStore(fixture.data.relation, fixture.schema), options);
    const ProjectionStore& store = service->snapshot()->store();
    const JoinTree& tree = service->snapshot()->planner().tree();
    CHECK_EQ(tree.NumNodes(), size_t{3});
    for (size_t v = 0; v < tree.NumNodes(); ++v) {
      if (tree.children[v].size() + (tree.parent[v] >= 0 ? 1 : 0) == 1) {
        leaf_attr.push_back(PrivateAttr(store, v));
        CHECK(leaf_attr.back() >= 0);
      }
    }
    CHECK_EQ(leaf_attr.size(), size_t{2});
  }
};

TEST_CASE(ACoverWhoseMiddleNodeHoldsNoOutputIsCutBeforeTheJoin) {
  // One attribute private to each leaf of a 3-node chain: the cover is the
  // whole chain, and its middle node holds no output attribute. Every node
  // stays and is cut to its distinct (output, separator) keys, so the join
  // visits fewer rows than the uncut one, and the answer stays exact.
  const ServedChain chain;
  serve::Query q;
  q.attrs = AttrSet::Single(chain.leaf_attr[0]).Plus(chain.leaf_attr[1]);
  CheckAnswer(*chain.service, q, DirectAnswer(chain.fixture.data.relation, q));
  const serve::QueryResult res = chain.service->Execute(q);
  CHECK_EQ(res.plan_nodes, size_t{3});
  CHECK(SpanArgs(chain.sink, "yk.cut").back().find("\"nodes_dropped\":0") !=
        std::string::npos);
  CHECK(SpanArgs(chain.sink, "serve.query")
            .back()
            .find("\"enumerated\":" + std::to_string(res.rows_enumerated)) !=
        std::string::npos);

  // The uncut join: the same cover with every covered attribute kept.
  serve::Query uncut;
  uncut.attrs = chain.service->snapshot()->planner().Plan(q).covered;
  uncut.count_only = true;
  const serve::QueryResult whole = chain.service->Execute(uncut);
  CHECK(whole.status.ok());
  CHECK_EQ(whole.plan_nodes, size_t{3});
  CHECK(res.rows_enumerated >= res.rows);
  CHECK(res.rows_enumerated < whole.rows);
  std::printf("  enumerated %llu rows for %llu answers; uncut join %llu\n",
              static_cast<unsigned long long>(res.rows_enumerated),
              static_cast<unsigned long long>(res.rows),
              static_cast<unsigned long long>(whole.rows));
}

TEST_CASE(ALeafKeptOnlyForItsSelectionLeavesTheEnumeration) {
  // Output private to one leaf, selection on the other: the cover spans
  // the chain for the pushdown and the reduction, then the selecting leaf
  // and the middle node leave, and only the output's leaf is enumerated.
  const ServedChain chain;
  for (uint32_t value = 0; value < 4; ++value) {
    serve::Query q;
    q.attrs = AttrSet::Single(chain.leaf_attr[0]);
    q.selections.push_back(serve::Selection::Eq(chain.leaf_attr[1], value));
    CheckAnswer(*chain.service, q,
                DirectAnswer(chain.fixture.data.relation, q));
    const serve::QueryResult res = chain.service->Execute(q);
    CHECK_EQ(res.plan_nodes, size_t{3});
    CHECK(res.semijoin_passes > 0);
    CHECK_EQ(res.rows_enumerated, res.rows);
    CHECK(SpanArgs(chain.sink, "yk.cut").back().find("\"nodes_dropped\":2") !=
          std::string::npos);
  }
}

TEST_CASE(ASparseCodeStoreTakesTheHashedCut) {
  // Every code spread up to 2^32 - 2, so each domain is near 2^32 - 1: a
  // key of two output codes spans about 2^64 values, far more bits than a
  // bitmap may take, and the cut goes through a TupleIdTable.
  const Fixture f = MakeChainFixture(9, 3, 9);
  const auto spread = [](uint32_t code) { return code * 0x24924924u + 2u; };
  std::vector<std::vector<uint32_t>> columns;
  std::vector<uint32_t> domains;
  for (int c = 0; c < f.data.relation.NumCols(); ++c) {
    columns.push_back(f.data.relation.Column(c));
    for (uint32_t& code : columns.back()) code = spread(code);
    domains.push_back(spread(f.data.relation.DomainSize(c) - 1) + 1);
  }
  CHECK(*std::max_element(domains.begin(), domains.end()) == 0xFFFFFFFFu);
  const Relation sparse(std::move(columns), std::move(domains));
  obs::Sink sink;
  serve::ServiceOptions options;
  options.sink = &sink;
  const serve::QueryService service(ProjectionStore(sparse, f.schema),
                                    options);
  for (const serve::Query& q : EnumerateQueries(sparse.Universe())) {
    CheckAnswer(service, q, DirectAnswer(sparse, q));
  }
  size_t hashed = 0;
  for (const std::string& args : SpanArgs(sink, "yk.cut")) {
    if (args.find("\"hashed\":0") == std::string::npos) ++hashed;
  }
  CHECK(hashed > 0);
}

TEST_CASE(NurseryDedupQueriesEnumerateOnlyTheirAnswerRows) {
  // [C][ABDEFGHI] (the scheme Nursery mines at eps 0.3) joins across an
  // empty separator, so every cut join is the distinct answer itself.
  const Relation nursery = NurseryDataset();
  const AttrSet c = AttrSet::Single(2);
  const Schema scheme({c, nursery.Universe().Minus(c)});
  CHECK_EQ(scheme.ToString(), std::string("[C][ABDEFGHI]"));
  const ProjectionStore store(nursery, scheme);
  const serve::QueryService service(ProjectionStore(nursery, scheme));
  std::vector<serve::Query> queries = EnumerateQueries(nursery.Universe());
  for (const serve::Query& q : RandomQueries(store, 77, 64)) {
    queries.push_back(q);
  }
  size_t enumerated = 0;
  for (serve::Query q : queries) {
    q.count_only = false;
    const serve::QueryPlan plan = service.snapshot()->planner().Plan(q);
    if (!plan.status.ok() || !plan.needs_dedup) continue;
    const serve::QueryResult res = service.Execute(q);
    CHECK(res.status.ok());
    if (plan.point_lookup || plan.index_scan) {
      CHECK_EQ(res.rows_enumerated, uint64_t{0});
    } else {
      CHECK_EQ(res.rows_enumerated, res.rows);
      ++enumerated;
    }
  }
  CHECK(enumerated > 0);
}

TEST_CASE(BudgetedRandomQueriesAnswerExactlyOrExpire) {
  // Tiny budgets over the random sweep: each query expires as
  // kDeadlineExceeded or returns the exact answer, never a wrong OK. The
  // Nursery store's 12,960-row node lets a budget expire inside the
  // pushdown, the cut and the enumeration, not only between semijoins.
  std::vector<std::pair<Relation, Schema>> inputs;
  for (const Fixture& f :
       {MakeChainFixture(9, 3, 1), MakeChainFixture(12, 4, 3)}) {
    inputs.emplace_back(f.data.relation, f.schema);
  }
  const Relation nursery = NurseryDataset();
  const AttrSet c = AttrSet::Single(2);
  inputs.emplace_back(nursery, Schema({c, nursery.Universe().Minus(c)}));
  uint64_t seed = 5000;
  size_t expired = 0;
  size_t answered = 0;
  for (const auto& [relation, schema] : inputs) {
    const ProjectionStore store(relation, schema);
    const serve::QueryService service(ProjectionStore(relation, schema));
    for (serve::Query q : RandomQueries(store, ++seed, 48)) {
      const std::set<std::vector<uint32_t>> expect = FullPlanAnswer(store, q);
      for (const double budget : {1e-9, 1e-6, 1e-4}) {
        for (const bool count_only : {false, true}) {
          q.budget_seconds = budget;
          q.count_only = count_only;
          const serve::QueryResult res = service.Execute(q);
          if (res.status.IsDeadlineExceeded()) {
            ++expired;
            continue;
          }
          CHECK(res.status.ok());
          CHECK_EQ(res.rows, static_cast<uint64_t>(expect.size()));
          if (!count_only) {
            CHECK(std::set<std::vector<uint32_t>>(res.tuples.begin(),
                                                  res.tuples.end()) == expect);
          }
          ++answered;
        }
      }
    }
  }
  std::printf("  %zu expired, %zu answered\n", expired, answered);
  CHECK(expired > 0);
  CHECK(answered > 0);
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
