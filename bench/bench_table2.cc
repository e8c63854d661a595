// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Table 2 reproduction: per-dataset runtime of mining full MVDs at
// threshold 0.0, and the number of full MVDs found.
//
// The paper ran the 20 real Metanome datasets for up to 5 hours each on a
// 120-CPU machine (single-threaded). Here each dataset is regenerated at
// its Table 2 column count with rows capped (substitution documented in
// DESIGN.md), and the per-dataset budget is seconds, not hours; the point
// of the reproduction is the *shape*: wide datasets (Census-, VoterState-
// like) blow past any budget while narrow ones finish in seconds, and the
// full-MVD counts land in the same order of magnitude bands.

#include <cstring>

#include "bench/bench_util.h"

namespace maimon {
namespace bench {
namespace {

void Run(size_t row_cap, double budget_seconds,
         const std::string& trace_path, const std::string& metrics_path) {
  ObsSession obs(trace_path, metrics_path);
  Header("Table 2: full MVD mining at threshold 0.0",
         "budget " + FormatDouble(budget_seconds, 1) +
             "s/dataset (paper: 5h); rows capped at " +
             std::to_string(row_cap));
  std::printf("%-22s %5s %9s | %12s %10s | %12s %10s\n", "dataset", "cols",
              "rows", "paper_time", "paper_mvds", "time[s]", "full_mvds");
  Rule();
  for (const DatasetShape& shape : Table2Shapes()) {
    double scale = 1.0;
    if (shape.paper_rows > row_cap) {
      scale = static_cast<double>(row_cap) /
              static_cast<double>(shape.paper_rows);
    }
    PlantedDataset d = GenerateShaped(shape, scale);
    TimedMvds mined =
        MineMvdsTimed(d.relation, /*epsilon=*/0.0, budget_seconds, SIZE_MAX,
                      /*num_threads=*/1, obs.sink());
    const char* timeout_mark =
        mined.result.status.IsDeadlineExceeded() ? "TL" : "  ";
    std::string paper_time = shape.paper_timed_out
                                 ? "TL"
                                 : FormatDouble(shape.paper_runtime_seconds, 0);
    std::string paper_mvds = shape.paper_full_mvds < 0
                                 ? "NA"
                                 : std::to_string(shape.paper_full_mvds);
    std::printf("%-22s %5d %9zu | %12s %10s | %9.2f %s %7zu\n",
                shape.name.c_str(), shape.columns, d.relation.NumRows(),
                paper_time.c_str(), paper_mvds.c_str(), mined.seconds,
                timeout_mark, mined.result.NumMvds());
  }
}

}  // namespace
}  // namespace bench
}  // namespace maimon

int main(int argc, char** argv) {
  size_t row_cap = 2000;
  double budget = 6.0;
  std::string trace_path;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (maimon::bench::CountFlag(argv[i], "--rows=", &row_cap)) {
    } else if (maimon::bench::SecondsFlag(argv[i], "--budget=", &budget)) {
    } else if (maimon::bench::ParseObsFlag(argv[i], &trace_path,
                                           &metrics_path)) {
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  maimon::bench::Run(row_cap, budget, trace_path, metrics_path);
  return 0;
}
