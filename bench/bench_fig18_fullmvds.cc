// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Figure 18 reproduction (App. 14.1): from minimal separators to full
// MVDs, on Classification-, BreastCancer-, Adult- and Bridges-shaped data.
// Per threshold the paper mines the minimal separators, then generates
// full MVDs (getFullMVDsOpt with K = infinity) under a 30-minute budget.
// Expected shape: at eps = 0 the number of full MVDs equals the number of
// minimal separator/(A,B)-pair witnesses (Lemma 5.4: at most one full MVD
// per key); as eps grows, full MVDs outnumber minimal separators, and the
// generation rate reaches tens of MVDs per second.
//
// --threads=N / -tN shards the (a,b) pair grid across N workers (0 = all
// hardware threads); every row carries a tN marker. On completed (non-TL)
// runs the mined counts are thread-count-invariant — only time[s] and
// rate move; a TL row's partial counts may differ across thread counts.

#include <cstring>
#include <unordered_set>

#include "bench/bench_util.h"

namespace maimon {
namespace bench {
namespace {

void Run(size_t row_cap, double budget, int num_threads,
         const std::string& trace_path, const std::string& metrics_path) {
  ObsSession obs(trace_path, metrics_path);
  Header("Figure 18: minimal separators vs full MVDs",
         "getFullMVDsOpt with K=inf per separator; budget " +
             FormatDouble(budget, 1) + "s per (dataset, eps); threads=" +
             std::to_string(ResolveNumThreads(num_threads)));
  for (const char* name :
       {"Classification", "Breast-Cancer", "Adult", "Bridges"}) {
    PlantedDataset d = LoadShaped(name, row_cap);
    std::printf("%8s | %9s %10s %10s %12s | %s\n", "eps", "#minseps",
                "#fullMVDs", "time[s]", "rate[MVD/s]", "note");
    Rule(70);
    for (double eps : {0.0, 0.05, 0.1, 0.2, 0.3, 0.5}) {
      TimedMvds mined = MineMvdsTimed(d.relation, eps, budget, SIZE_MAX,
                                      num_threads, obs.sink());
      const double rate =
          mined.seconds > 0
              ? static_cast<double>(mined.result.NumMvds()) / mined.seconds
              : 0.0;
      std::printf("%8.2f | %9zu %10zu %10.3f %12.1f | %s\n", eps,
                  mined.result.NumSeparators(), mined.result.NumMvds(),
                  mined.seconds, rate,
                  ThreadMarker(mined.threads_used,
                               mined.result.status.IsDeadlineExceeded())
                      .c_str());
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace maimon

int main(int argc, char** argv) {
  size_t row_cap = 1500;
  double budget = 4.0;
  int num_threads = 1;
  std::string trace_path;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (maimon::bench::CountFlag(argv[i], "--rows=", &row_cap)) {
    } else if (maimon::bench::SecondsFlag(argv[i], "--budget=", &budget)) {
    } else if (maimon::bench::ParseThreadsFlag(argv[i], &num_threads)) {
    } else if (maimon::bench::ParseObsFlag(argv[i], &trace_path,
                                           &metrics_path)) {
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  maimon::bench::Run(row_cap, budget, num_threads, trace_path, metrics_path);
  return 0;
}
