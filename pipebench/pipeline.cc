// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "pipeline.h"

#include <sys/stat.h>

#include <utility>

#include "data/relation_io.h"
#include "decomp/yannakakis.h"
#include "scheme/ranker.h"
#include "util/stopwatch.h"

namespace pipebench {

using maimon::Status;
using maimon::Stopwatch;

namespace {

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

BuildOutput BuildStore(const std::string& csv_path,
                       const std::string& store_path,
                       const BuildOptions& options, bool keep) {
  BuildOutput out;
  SpanLane* lane = options.lane;
  Scope build_span(lane, "build");
  const Stopwatch total;

  auto relation = std::make_unique<maimon::Relation>();
  std::vector<std::string> header;
  {
    Scope span(lane, "data.import");
    ++out.calls;
    out.status = maimon::ImportCsv(csv_path, relation.get(), &header);
  }
  if (!out.status.ok()) return out;
  out.attrs = static_cast<size_t>(relation->NumCols());

  maimon::MaimonConfig config;
  config.epsilon = options.epsilon;
  config.mvd_budget_seconds = options.budget_seconds;
  config.schema_budget_seconds = options.budget_seconds;
  config.num_threads = options.threads;
  config.sink = options.sink;
  config.schemas.max_schemas = options.max_schemas;
  std::unique_ptr<maimon::Maimon> maimon;
  {
    Scope span(lane, "entropy.init");
    maimon = std::make_unique<maimon::Maimon>(*relation, config);
  }

  {
    Scope span(lane, "core.mine_mvds");
    ++out.calls;
    out.status = maimon->MineMvds().status;
  }
  if (!out.status.ok()) return out;
  out.mine_entropy_queries = maimon->engine().stats().queries;
  out.minsep = maimon->min_sep_stats();
  out.separators = maimon->MineMvds().NumSeparators();
  out.mvds = maimon->MineMvds().NumMvds();

  maimon::AsMinerResult mined;
  {
    Scope span(lane, "scheme.assemble");
    ++out.calls;
    mined = maimon->MineSchemas();
  }
  out.status = mined.status;
  if (out.status.ok() && mined.schemas.empty()) {
    out.status = Status::InvalidArgument("mining produced no scheme");
  }
  if (!out.status.ok()) return out;
  out.independent_sets = mined.independent_sets;
  out.conflict_vertices = mined.conflict_vertices;
  out.conflict_edges = mined.conflict_edges;
  out.mvds_dropped = mined.mvds_dropped;
  out.schemes = mined.schemas.size();

  maimon::RankResult ranked;
  {
    Scope span(lane, "scheme.rank");
    maimon::RankerOptions ranker;
    ranker.top_k = options.top_k;
    ranker.primary = maimon::RankKey::kJMeasure;
    ranker.budget_seconds = options.budget_seconds;
    ranker.num_threads = options.threads;
    ranker.sink = options.sink;
    ++out.calls;
    ranked = maimon::RankSchemes(*relation, mined.schemas, maimon->oracle(),
                                 ranker);
  }
  out.status = ranked.status;
  if (out.status.ok() && ranked.ranked.empty()) {
    out.status = Status::InvalidArgument("ranking returned no scheme");
  }
  if (!out.status.ok()) return out;
  out.entropy = maimon->engine().stats();
  const maimon::RankedScheme& top = ranked.ranked.front();
  out.deployed = top.schema.ToString();

  std::unique_ptr<maimon::ProjectionStore> projected;
  {
    Scope span(lane, "decomp.project");
    projected = std::make_unique<maimon::ProjectionStore>(*relation,
                                                          top.schema);
  }

  std::unique_ptr<maimon::ProjectionStore> reduced;
  {
    Scope span(lane, "decomp.reduce");
    maimon::YannakakisExecutor executor(*projected);
    const maimon::Deadline deadline =
        maimon::Deadline::After(options.budget_seconds);
    ++out.calls;
    out.status = executor.Reduce(&deadline, options.threads, options.sink);
    reduced = std::make_unique<maimon::ProjectionStore>(
        executor.ReducedProjections(), relation->CellCount(),
        /*canonical=*/true);
    out.semijoin_dropped = executor.semijoin_dropped();
  }
  if (!out.status.ok()) return out;
  projected.reset();
  out.stored_rows = reduced->TotalRows();

  maimon::store::StoreMeta meta;
  meta.epsilon = options.epsilon;
  meta.savings_pct = top.report.savings_pct;
  meta.spurious_pct = top.report.spurious_pct;
  meta.j_measure = top.report.j_measure;
  meta.column_names = header;
  meta.mvds = maimon->MineMvds().mvds;
  meta.schema = top.schema;
  const maimon::store::Writer writer(meta);
  {
    Scope span(lane, "store.write");
    ++out.calls;
    out.status = writer.Write(*reduced, store_path, options.sink);
  }
  out.seconds = total.ElapsedSeconds();
  if (!out.status.ok()) return out;
  out.store_bytes = FileBytes(store_path);

  if (keep) {
    out.deployed_scheme.schema = top.schema;
    out.deployed_scheme.j_measure = top.derivation_j;
    out.relation = std::move(relation);
    out.maimon = std::move(maimon);
    out.store = std::move(reduced);
    out.meta = std::move(meta);
  }
  return out;
}

}  // namespace pipebench
