// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Ablation (App. 12.3): getFullMVDs vs getFullMVDsOpt. The optimization
// contracts candidates to pairwise-consistent form before expansion, which
// the paper credits with "a significant reduction in the search space".
// This harness mines full MVDs for a panel of keys on planted noisy data
// and reports nodes pushed, J evaluations and wall time for both variants
// (outputs are verified identical).

#include <cstring>
#include <set>

#include "bench/bench_util.h"
#include "core/full_mvd.h"
#include "entropy/pli_engine.h"
#include "util/rng.h"

namespace maimon {
namespace bench {
namespace {

void Run(int num_attrs, double eps, double budget,
         const std::string& trace_path, const std::string& metrics_path) {
  ObsSession obs(trace_path, metrics_path);
  Header("Ablation (App. 12.3): getFullMVDs vs getFullMVDsOpt",
         "planted noisy data, n=" + std::to_string(num_attrs) +
             ", eps=" + FormatDouble(eps, 2));
  PlantedSpec spec;
  spec.num_attrs = num_attrs;
  spec.num_bags = std::max(2, num_attrs / 3);
  spec.root_rows = 256;
  spec.noise_fraction = 0.05;
  spec.domain_size = 8;
  PlantedDataset d = GeneratePlanted(spec);
  PliEntropyEngine engine(d.relation);
  InfoCalc calc(&engine);

  std::printf("%-18s %6s | %12s %12s %10s | %8s\n", "key", "pair", "nodes",
              "J-evals", "time[ms]", "#found");
  Rule(76);
  uint64_t total_plain_nodes = 0;
  uint64_t total_opt_nodes = 0;
  Rng rng(9);
  // Trial panel: the planted support MVDs' keys (where full MVDs exist)
  // plus random keys (where the search typically comes up empty — the
  // pruning matters most there).
  struct Trial {
    AttrSet key;
    int a;
    int b;
  };
  std::vector<Trial> trials;
  for (const Mvd& phi : d.schema.Support()) {
    trials.push_back({phi.key(), phi.deps()[0].First(),
                      phi.deps()[1].First()});
  }
  for (int extra = 0; extra < 4; ++extra) {
    AttrSet key;
    const int key_size = 1 + static_cast<int>(rng.Uniform(2));
    while (key.Count() < key_size) {
      key.Add(static_cast<int>(rng.Uniform(num_attrs)));
    }
    AttrSet rest = AttrSet::Universe(num_attrs).Minus(key);
    if (rest.Count() < 2) continue;
    std::vector<int> pool = rest.ToVector();
    int a = pool[rng.Uniform(pool.size())];
    int b = a;
    while (b == a) b = pool[rng.Uniform(pool.size())];
    trials.push_back({key, a, b});
  }

  for (const Trial& trial : trials) {
    const AttrSet key = trial.key;
    const int a = trial.a;
    const int b = trial.b;
    for (bool optimized : {false, true}) {
      Deadline deadline = Deadline::After(budget);
      FullMvdSearch search(calc, eps, &deadline);
      Stopwatch watch;
      std::vector<Mvd> found;
      {
        obs::Span span(obs.sink(),
                       optimized ? "mvd.expand.opt" : "mvd.expand.plain");
        span.Arg("a", a);
        span.Arg("b", b);
        found = search.Find(key, AttrSet::Universe(num_attrs), a, b,
                            SIZE_MAX, optimized);
        span.Arg("nodes", search.stats().nodes_pushed);
      }
      const double ms = watch.ElapsedMillis();
      std::printf("%-18s (%d,%d) | %12llu %12llu %10.2f | %8zu %s\n",
                  (key.ToString() + (optimized ? " [opt]" : " [plain]"))
                      .c_str(),
                  a, b,
                  static_cast<unsigned long long>(search.stats().nodes_pushed),
                  static_cast<unsigned long long>(
                      search.stats().j_evaluations),
                  ms, found.size(), deadline.Expired() ? "TL" : "");
      (optimized ? total_opt_nodes : total_plain_nodes) +=
          search.stats().nodes_pushed;
    }
  }
  FoldEngineMetrics(obs.sink(), engine.stats());
  Rule(76);
  std::printf("total nodes: plain=%llu opt=%llu (reduction %.1fx)\n",
              static_cast<unsigned long long>(total_plain_nodes),
              static_cast<unsigned long long>(total_opt_nodes),
              total_opt_nodes > 0 ? static_cast<double>(total_plain_nodes) /
                                        static_cast<double>(total_opt_nodes)
                                  : 0.0);
}

}  // namespace
}  // namespace bench
}  // namespace maimon

int main(int argc, char** argv) {
  int n = 11;
  double eps = 0.2;
  double budget = 5.0;
  std::string trace_path;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    // At least 2: a random trial key draws up to two distinct attributes.
    if (maimon::bench::CountFlag(argv[i], "--attrs=", &n, 2,
                                 maimon::AttrSet::kMaxAttrs)) {
    } else if (maimon::bench::EpsFlag(argv[i], &eps)) {
    } else if (maimon::bench::SecondsFlag(argv[i], "--budget=", &budget)) {
    } else if (maimon::bench::ParseObsFlag(argv[i], &trace_path,
                                           &metrics_path)) {
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  maimon::bench::Run(n, eps, budget, trace_path, metrics_path);
  return 0;
}
