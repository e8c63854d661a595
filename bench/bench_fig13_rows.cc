// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Figure 13 reproduction: row scalability of minimal-separator mining
// (Sec. 8.3.1) on Image-, Four Square (Spots)- and Ditag Feature-shaped
// data. The paper includes all columns and samples 10%..100% of the rows,
// for thresholds eps in {0, 0.01, 0.1}. Expected shape: runtime grows
// mostly linearly with the row count while the number of minimal
// separators stays roughly constant.
//
// Each row runs Maimon::MineMvds at K = 0 full MVDs per separator, so it
// times the library's own minimal-separator mining and expands nothing.
// --threads=N / -tN shards the (a,b) pair grid across N workers (0 = all
// hardware threads); every row carries a tN marker. On completed (non-TL)
// runs the separator counts are thread-count-invariant — only time[s]
// moves; a TL row stops at a thread-dependent point in the grid, so its
// partial count may differ.

#include <cstring>

#include "bench/bench_util.h"

namespace maimon {
namespace bench {
namespace {

void Run(const MinSepsHarnessFlags& flags) {
  ObsSession obs(flags.trace_path, flags.metrics_path);
  if (!flags.json) {
    Header("Figure 13: row scalability of minimal separator mining",
           "10%..100% of rows, all columns, eps in {0, 0.01, 0.1}; threads=" +
               std::to_string(ResolveNumThreads(flags.num_threads)) +
               ", walk=" + WalkMarker(flags.options));
  }
  for (const char* name : {"Image", "Four Square (Spots)", "Ditag Feature"}) {
    PlantedDataset d = LoadShaped(name, flags.row_cap, /*quiet=*/flags.json);
    if (!flags.json) PrintMinSepsRowHeader("rows");
    for (double frac : {0.1, 0.25, 0.5, 0.75, 1.0}) {
      Relation sample = d.relation.SampleRows(frac, /*seed=*/7);
      for (double eps : {0.0, 0.01, 0.1}) {
        const TimedMvds run =
            MineMvdsTimed(sample, eps, flags.budget, /*k_per_separator=*/0,
                          flags.num_threads, obs.sink(), flags.options);
        PrintMinSepsRow(13, name, "rows", sample.NumRows(), eps, run,
                        flags.options, flags.json);
      }
    }
    if (!flags.json) std::printf("\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace maimon

int main(int argc, char** argv) {
  maimon::bench::Run(maimon::bench::ParseMinSepsHarnessFlags(
      argc, argv, /*default_row_cap=*/4000));
  return 0;
}
