// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Figure 14 reproduction: column scalability (Sec. 8.3.2) on
// Entity Source-, Voter State- and Census-shaped data. The paper keeps all
// rows, includes 10%..100% of the columns, runs each configuration under a
// 5 h limit, and reports runtime and the number of minimal separators for
// eps in {0, 0.01, 0.1}. Expected shape: runtime explodes with the column
// count (the full-MVD search is exponential in it) and also grows with the
// number of minimal separators discovered; wide configurations hit the
// budget (the paper's red clock).
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
    Header("Figure 14: column scalability of minimal separator mining",
           "all rows (capped), 25%..100% of columns, eps in {0, 0.01, 0.1}; "
           "TL marks a hit budget; threads=" +
               std::to_string(ResolveNumThreads(flags.num_threads)) +
               ", walk=" + WalkMarker(flags.options));
  }
  for (const char* name : {"Entity Source", "Voter State", "Census"}) {
    PlantedDataset d = LoadShaped(name, flags.row_cap, /*quiet=*/flags.json);
    if (!flags.json) PrintMinSepsRowHeader("cols");
    const int total_cols = d.relation.NumCols();
    for (double frac : {0.25, 0.5, 0.75, 1.0}) {
      const int ncols = std::max(3, static_cast<int>(total_cols * frac));
      Relation narrowed =
          d.relation.ProjectWithDuplicates(AttrSet::Universe(ncols));
      for (double eps : {0.0, 0.01, 0.1}) {
        const TimedMvds run =
            MineMvdsTimed(narrowed, eps, flags.budget, /*k_per_separator=*/0,
                          flags.num_threads, obs.sink(), flags.options);
        PrintMinSepsRow(14, name, "cols", static_cast<size_t>(ncols), eps,
                        run, flags.options, flags.json);
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
      argc, argv, /*default_row_cap=*/2000));
  return 0;
}
