// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Cold-start bench for store/: how fast does a serving process get from
// "nothing in memory" to a materialized ProjectionStore, via
//
//   csv_import — parse the relation CSV and rebuild the projections
//                (the path the store file replaces);
//   mmap_load  — store::LoadProjectionStore on a file written by
//                store::Writer (header check + lazy CRC + one
//                domain-checked copy per column array);
//   write      — store::Writer::Write itself (pack cost, paid once).
//
// Fixtures: a planted 9-attribute chain at two scales and the Nursery
// relation, each decomposed by a fixed chain schema — the store shape is
// what is measured here, not mining quality. Best-of-N timing per walk.
//
// Flags: --json (JSONL rows: the `walk` key disambiguates the three
// timings for scripts/bench_trend.py), --trials=N, --trace=FILE,
// --metrics=FILE. Unknown arguments exit 2.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "data/nursery.h"
#include "data/planted.h"
#include "data/relation_io.h"
#include "decomp/projection_store.h"
#include "store/mapped_store.h"
#include "store/writer.h"
#include "util/stopwatch.h"

namespace maimon {
namespace bench {
namespace {

size_t FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<size_t>(st.st_size);
}

void PrintRow(const std::string& dataset, size_t rows, int cols,
              const char* walk, double seconds, size_t bytes,
              size_t projections, size_t proj_rows, bool json) {
  if (json) {
    std::printf(
        "{\"fig\":0,\"dataset\":\"%s\",\"rows\":%zu,\"cols\":%d,"
        "\"eps\":0.00,\"threads\":1,\"walk\":\"%s\",\"seconds\":%.4f,"
        "\"bytes\":%zu,\"projections\":%zu,\"proj_rows\":%zu,"
        "\"timed_out\":false}\n",
        dataset.c_str(), rows, cols, walk, seconds, bytes, projections,
        proj_rows);
    std::fflush(stdout);
    return;
  }
  std::printf("%-16s %-10s %10.3f ms %12zu B %6zu projs %9zu rows\n",
              dataset.c_str(), walk, seconds * 1e3, bytes, projections,
              proj_rows);
}

// Chain schema over `cols` attributes: width-4 windows stepping by 3
// (ABCD | DEFG | GHI ... ), the decomposition shape serve/'s fixtures use.
Schema ChainSchema(int cols) {
  std::vector<AttrSet> relations;
  for (int lo = 0; lo + 1 < cols; lo += 3) {
    const int hi = std::min(lo + 4, cols);
    AttrSet bag;
    for (int a = lo; a < hi; ++a) bag.Add(a);
    relations.push_back(bag);
    if (hi == cols) break;
  }
  return Schema(relations);
}

void RunDataset(const std::string& name, const Relation& r, int trials,
                bool json, obs::Sink* sink) {
  const Schema schema = ChainSchema(r.NumCols());
  const std::string base = "/tmp/maimon_bench_store_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           "_" + name;
  const std::string csv_path = base + ".csv";
  const std::string store_path = base + ".maimon";
  if (!ExportCsv(r, csv_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    std::exit(1);
  }
  const ProjectionStore built(r, schema);
  const store::Writer writer;

  double write_best = 1e99;
  for (int t = 0; t < trials; ++t) {
    Stopwatch watch;
    if (!writer.Write(built, store_path, sink).ok()) {
      std::fprintf(stderr, "cannot write %s\n", store_path.c_str());
      std::exit(1);
    }
    write_best = std::min(write_best, watch.ElapsedSeconds());
  }
  const size_t store_bytes = FileBytes(store_path);

  double csv_best = 1e99;
  double mmap_best = 1e99;
  size_t csv_rows = 0;
  size_t mmap_rows = 0;
  for (int t = 0; t < trials; ++t) {
    Stopwatch csv_watch;
    Relation imported;
    if (!ImportCsv(csv_path, &imported).ok()) {
      std::fprintf(stderr, "cannot read %s\n", csv_path.c_str());
      std::exit(1);
    }
    const ProjectionStore rebuilt(imported, schema);
    csv_best = std::min(csv_best, csv_watch.ElapsedSeconds());
    csv_rows = rebuilt.TotalRows();

    Stopwatch mmap_watch;
    ProjectionStore loaded(std::vector<StoredProjection>(), 0);
    if (!store::LoadProjectionStore(store_path, &loaded, sink).ok()) {
      std::fprintf(stderr, "cannot load %s\n", store_path.c_str());
      std::exit(1);
    }
    mmap_best = std::min(mmap_best, mmap_watch.ElapsedSeconds());
    mmap_rows = loaded.TotalRows();
  }
  if (mmap_rows != csv_rows) {
    std::fprintf(stderr, "%s: mmap rows %zu != csv rows %zu\n", name.c_str(),
                 mmap_rows, csv_rows);
    std::exit(1);
  }

  PrintRow(name, r.NumRows(), r.NumCols(), "write", write_best, store_bytes,
           built.NumProjections(), built.TotalRows(), json);
  PrintRow(name, r.NumRows(), r.NumCols(), "csv_import", csv_best,
           FileBytes(csv_path), built.NumProjections(), csv_rows, json);
  PrintRow(name, r.NumRows(), r.NumCols(), "mmap_load", mmap_best,
           store_bytes, built.NumProjections(), mmap_rows, json);
  if (!json) {
    std::printf("%-16s %-10s %9.1fx mmap_load vs csv_import\n", name.c_str(),
                "speedup", csv_best / mmap_best);
  }
  std::remove(csv_path.c_str());
  std::remove(store_path.c_str());
}

Relation ChainRelation(size_t max_rows, uint64_t seed) {
  PlantedSpec spec;
  spec.num_attrs = 9;
  spec.num_bags = 3;
  spec.root_rows = std::max<size_t>(64, max_rows / 4);
  spec.max_rows = max_rows;
  spec.noise_fraction = 0.05;
  spec.domain_size = 12;
  spec.seed = seed;
  return GeneratePlanted(spec).relation;
}

int Run(int argc, char** argv) {
  bool json = false;
  int trials = 5;
  std::string trace_path;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (CountFlag(argv[i], "--trials=", &trials)) {
    } else if (ParseObsFlag(argv[i], &trace_path, &metrics_path)) {
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  ObsSession obs(trace_path, metrics_path);

  if (!json) {
    Header("store/ cold start: csv_import vs mmap_load (best of " +
               std::to_string(trials) + ")",
           "write = pack cost (store::Writer), bytes = on-disk size");
  }
  RunDataset("store-chain-4k", ChainRelation(4096, 7), trials, json,
             obs.sink());
  RunDataset("store-chain-13k", ChainRelation(12960, 7), trials, json,
             obs.sink());
  RunDataset("store-nursery", NurseryDataset(), trials, json, obs.sink());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace maimon

int main(int argc, char** argv) { return maimon::bench::Run(argc, argv); }
