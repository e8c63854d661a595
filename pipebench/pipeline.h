// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// BuildStore: the offline half of the pipeline, CSV file in, packed store
// file out, through the public API only:
//
//   ImportCsv -> Maimon (constructor, MineMvds, MineSchemas) -> RankSchemes
//   (the deployed scheme is the top one by J) -> ProjectionStore ->
//   YannakakisExecutor::Reduce -> store::Writer::Write.
//
// The whole build is timed from outside, each call is wrapped in a span
// when a lane is given, and the counters the library already exposes are
// copied out: the entropy engine's stats, the min-sep walk totals, the
// AsMinerResult shape, and the reducer's semijoin counters.

#ifndef PIPEBENCH_PIPELINE_H_
#define PIPEBENCH_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/maimon.h"
#include "data/relation.h"
#include "decomp/projection_store.h"
#include "entropy/pli_engine.h"
#include "obs/trace.h"
#include "span_log.h"
#include "store/writer.h"
#include "util/status.h"

namespace pipebench {

struct BuildOptions {
  double epsilon = 0.0;
  size_t max_schemas = 200;
  size_t top_k = 20;
  /// Mining, ranking and reducer threads.
  int threads = 2;
  /// Wall budget of every budgeted phase. Set far above the phase's real
  /// cost: an expired budget is a failed build, never a measurement.
  double budget_seconds = 120.0;
  /// Library sink (nullable); attached only in traced runs.
  maimon::obs::Sink* sink = nullptr;
  /// The benchmark's span lane (nullable).
  SpanLane* lane = nullptr;
};

struct BuildOutput {
  maimon::Status status;
  int calls = 0;  // public pipeline calls attempted
  /// CSV on disk -> store file on disk. Per-call times come from the spans.
  double seconds = 0;

  // Work counters copied out of the library.
  maimon::PliEntropyEngine::Stats entropy;  // after ranking
  uint64_t mine_entropy_queries = 0;        // after MineMvds alone
  maimon::MinSepsStats minsep;
  size_t attrs = 0;
  size_t separators = 0;
  size_t mvds = 0;
  uint64_t independent_sets = 0;
  size_t conflict_vertices = 0;
  size_t conflict_edges = 0;
  size_t mvds_dropped = 0;
  size_t schemes = 0;
  uint64_t stored_rows = 0;
  uint64_t semijoin_dropped = 0;
  uint64_t store_bytes = 0;
  std::string deployed;  // canonical schema string of the top scheme

  // Kept only when requested, for the checks that follow a build.
  std::unique_ptr<maimon::Relation> relation;
  std::unique_ptr<maimon::Maimon> maimon;
  maimon::MinedSchema deployed_scheme;
  /// The reduced store and the meta it was written with (canonical).
  std::unique_ptr<maimon::ProjectionStore> store;
  maimon::store::StoreMeta meta;
};

/// Runs the whole offline pipeline once. With `keep`, the relation, the
/// Maimon facade, the deployed scheme and the written store stay in the
/// output; otherwise they are released before returning.
BuildOutput BuildStore(const std::string& csv_path,
                       const std::string& store_path,
                       const BuildOptions& options, bool keep);

}  // namespace pipebench

#endif  // PIPEBENCH_PIPELINE_H_
