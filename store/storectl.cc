// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// storectl — pack/inspect CLI for persistent store files (store/format.h).
//
//   storectl pack --out=PATH [--dataset=nursery | --csv=FILE]
//                 [--eps=E] [--budget=S] [--max-schemas=N] [--no-reduce]
//                 [--trace=FILE] [--metrics=FILE]
//       Mines the relation (single-threaded, so the packed schema is
//       deterministic), picks the lowest-J mined schema, decomposes,
//       Yannakakis-reduces to a canonical store (unless --no-reduce), and
//       writes one store file via store::Writer (tmp + atomic rename).
//       E must be a finite number >= 0, S a finite number > 0 and N an
//       integer >= 1, each written out whole; anything else exits 2.
//
//   storectl inspect PATH
//       Dumps the header, section table, and meta scalars of an existing
//       store. Corruption prints the DataLoss message and exits 1 — the
//       same layered validation serve/ relies on, surfaced on the CLI.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/maimon.h"
#include "data/nursery.h"
#include "data/relation_io.h"
#include "decomp/projection_store.h"
#include "decomp/yannakakis.h"
#include "store/format.h"
#include "store/mapped_store.h"
#include "store/writer.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace maimon {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  storectl pack --out=PATH [--dataset=nursery | --csv=FILE]\n"
      "               [--eps=E] [--budget=S] [--max-schemas=N] [--no-reduce]\n"
      "               [--trace=FILE] [--metrics=FILE]\n"
      "  storectl inspect PATH\n");
  return 2;
}

const char* SectionKindName(uint32_t kind) {
  switch (kind) {
    case store::kMeta: return "meta";
    case store::kNames: return "names";
    case store::kSchema: return "schema";
    case store::kJoinTree: return "join_tree";
    case store::kMvds: return "mvds";
    case store::kProjTable: return "proj_table";
    case store::kProjCols: return "proj_cols";
    case store::kColumnData: return "column_data";
    default: return "?";
  }
}

int RunPack(int argc, char** argv) {
  std::string out_path;
  std::string dataset = "nursery";
  std::string csv_path;
  double eps = 0.3;
  double budget = 10.0;
  size_t max_schemas = 8;
  bool reduce = true;
  std::string trace_path;
  std::string metrics_path;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strncmp(arg, "--dataset=", 10) == 0) {
      dataset = arg + 10;
    } else if (std::strncmp(arg, "--csv=", 6) == 0) {
      csv_path = arg + 6;
    } else if (bench::EpsFlag(arg, &eps)) {
    } else if (bench::SecondsFlag(arg, "--budget=", &budget)) {
    } else if (bench::CountFlag(arg, "--max-schemas=", &max_schemas)) {
    } else if (std::strcmp(arg, "--no-reduce") == 0) {
      reduce = false;
    } else if (bench::ParseObsFlag(arg, &trace_path, &metrics_path)) {
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr, "pack: --out=PATH is required\n");
    return Usage();
  }

  // ---- load ----------------------------------------------------------------
  Relation relation;
  std::vector<std::string> names;
  if (!csv_path.empty()) {
    const Status s = ImportCsv(csv_path, &relation, &names);
    if (!s.ok()) {
      std::fprintf(stderr, "pack: cannot read %s: %s\n", csv_path.c_str(),
                   s.message().c_str());
      return 1;
    }
  } else if (dataset == "nursery") {
    relation = NurseryDataset();
    names = DefaultColumnNames(relation.NumCols());
  } else {
    std::fprintf(stderr, "pack: unknown dataset %s (only: nursery)\n",
                 dataset.c_str());
    return 2;
  }
  std::printf("[pack] relation: %zu rows x %d cols\n", relation.NumRows(),
              relation.NumCols());

  bench::ObsSession obs(trace_path, metrics_path);

  // ---- mine (single-threaded: the packed schema is deterministic) ----------
  MaimonConfig config;
  config.epsilon = eps;
  config.mvd_budget_seconds = budget;
  config.schema_budget_seconds = budget;
  config.num_threads = 1;
  config.schemas.max_schemas = max_schemas;
  config.mvd.max_full_mvds_per_separator = 3;
  config.sink = obs.sink();
  Maimon maimon(relation, config);
  Stopwatch mine_watch;
  const MvdMinerResult& mvds = maimon.MineMvds();
  if (!mvds.status.ok() && !mvds.status.IsDeadlineExceeded()) {
    std::fprintf(stderr, "pack: mining failed: %s\n",
                 mvds.status.message().c_str());
    return 1;
  }
  const AsMinerResult schemas = maimon.MineSchemas();
  std::printf("[pack] mined %zu full MVDs, %zu schemas in %.2f s%s\n",
              mvds.NumMvds(), schemas.schemas.size(),
              mine_watch.ElapsedSeconds(),
              bench::SchemeRunMarker(schemas).c_str());

  // Lowest-J schema with more than one relation; the trivial universe
  // schema is the fallback when mining found nothing decomposable.
  MinedSchema best;
  best.schema = Schema(relation.Universe());
  bool found = false;
  for (const MinedSchema& s : schemas.schemas) {
    if (s.schema.NumRelations() < 2) continue;
    if (!found || s.j_measure < best.j_measure) {
      best = s;
      found = true;
    }
  }
  std::printf("[pack] schema %s (J = %.4f)\n", best.schema.ToString().c_str(),
              best.j_measure);

  // S/E from the lossless-join audit of the chosen schema.
  const DecompositionAudit audit = maimon.DecomposeAndAudit(best);
  const double spurious_pct =
      audit.join_rows > 0 ? 100.0 * static_cast<double>(audit.spurious) /
                                static_cast<double>(audit.join_rows)
                          : 0.0;

  // ---- decompose (+ reduce) and write --------------------------------------
  ProjectionStore built(relation, best.schema);
  if (reduce) {
    YannakakisExecutor executor(built);
    const Status s = executor.Reduce(/*deadline=*/nullptr, /*num_threads=*/1,
                                     obs.sink());
    if (!s.ok()) {
      std::fprintf(stderr, "pack: reduce failed: %s\n", s.message().c_str());
      return 1;
    }
    built = ProjectionStore(executor.ReducedProjections(),
                            built.original_cells(), /*canonical=*/true);
  }

  store::StoreMeta meta;
  meta.epsilon = eps;
  meta.savings_pct = audit.savings_pct;
  meta.spurious_pct = spurious_pct;
  meta.j_measure = best.j_measure;
  meta.column_names = names;
  meta.mvds = mvds.mvds;
  meta.schema = best.schema;
  store::Writer writer(std::move(meta));
  Stopwatch write_watch;
  const Status s = writer.Write(built, out_path, obs.sink());
  if (!s.ok()) {
    std::fprintf(stderr, "pack: write failed: %s\n", s.message().c_str());
    return 1;
  }
  std::printf("[pack] wrote %s: %zu projections, %zu rows, %zu cells "
              "(S %.1f%%, E %.2f%%)%s in %.3f s\n",
              out_path.c_str(), built.NumProjections(), built.TotalRows(),
              built.TotalCells(), audit.savings_pct, spurious_pct,
              built.canonical() ? ", canonical" : "",
              write_watch.ElapsedSeconds());
  return 0;
}

int RunInspect(int argc, char** argv) {
  if (argc != 3) return Usage();
  const std::string path = argv[2];
  store::MappedStore mapped;
  Status s = store::MappedStore::Open(path, &mapped);
  if (!s.ok()) {
    std::fprintf(stderr, "inspect: %s\n", s.message().c_str());
    return 1;
  }
  std::printf("%s\n", path.c_str());
  std::printf("  version       %" PRIu32 "\n", mapped.version());
  std::printf("  file_bytes    %" PRIu64 "\n", mapped.file_bytes());
  std::printf("  fingerprint   %016" PRIx64 "\n", mapped.fingerprint());
  std::printf("  sections      %zu\n", mapped.sections().size());
  std::printf("  %-12s %10s %10s %10s\n", "kind", "offset", "length", "crc");
  for (const store::SectionEntry& e : mapped.sections()) {
    std::printf("  %-12s %10" PRIu64 " %10" PRIu64 "   %08" PRIx32 "\n",
                SectionKindName(e.kind), e.offset, e.length, e.crc);
  }

  store::MetaSection meta;
  s = mapped.ReadMeta(&meta);
  if (!s.ok()) {
    std::fprintf(stderr, "inspect: %s\n", s.message().c_str());
    return 1;
  }
  std::printf("  meta: eps %.2f, S %.1f%%, E %.2f%%, J %.4f\n", meta.epsilon,
              meta.savings_pct, meta.spurious_pct, meta.j_measure);
  std::printf("        %" PRIu64 " projections over %" PRIu32
              " attrs, %" PRIu64 " original cells%s\n",
              meta.num_projections, meta.universe_width, meta.original_cells,
              (meta.flags & store::kFlagCanonical) != 0 ? ", canonical" : "");
  Schema schema{AttrSet()};
  if (mapped.ReadSchema(&schema).ok()) {
    std::printf("        schema %s\n", schema.ToString().c_str());
  }
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "pack") == 0) return RunPack(argc, argv);
  if (std::strcmp(argv[1], "inspect") == 0) return RunInspect(argc, argv);
  return Usage();
}

}  // namespace
}  // namespace maimon

int main(int argc, char** argv) { return maimon::Run(argc, argv); }
