// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Figure 12 reproduction: spurious-tuple percentage vs J-measure buckets
// (Sec. 8.2) on BreastCancer-, Bridges-, Nursery- and Echocardiogram-shaped
// data. The paper generates all schemes with ε in [0, 0.5], buckets them by
// J(S), and reports the quantiles of the spurious-tuple rate per bucket.
// Expected shape: E grows monotonically with J; bucket J <= ~0.1-0.3 keeps
// E under ~20%, exactly the operating range the paper recommends.

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "data/nursery.h"
#include "join/metrics.h"

namespace maimon {
namespace bench {
namespace {

struct Bucket {
  std::vector<double> spurious;
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

void RunDataset(const std::string& label, const Relation& relation,
                double budget, size_t max_schemas, obs::Sink* sink) {
  std::printf("\n(%s) rows=%zu cols=%d\n", label.c_str(), relation.NumRows(),
              relation.NumCols());
  // Bucket boundaries echo the paper's x-axes.
  const std::vector<double> edges = {0.0,  0.05, 0.1, 0.15, 0.2,
                                     0.25, 0.3,  0.4, 0.5};
  std::map<int, Bucket> buckets;
  for (double eps : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    MaimonConfig config;
    config.epsilon = eps;
    config.mvd_budget_seconds = budget;
    config.schema_budget_seconds = budget;
    config.schemas.max_schemas = max_schemas;
    config.sink = sink;
    Maimon maimon(relation, config);
    AsMinerResult schemas = maimon.MineSchemas();
    FoldEngineMetrics(sink, maimon.engine().stats());
    for (const MinedSchema& s : schemas.schemas) {
      SchemaReport report = EvaluateSchema(relation, s.schema,
                                           maimon.oracle());
      int b = 0;
      while (b + 1 < static_cast<int>(edges.size()) &&
             report.j_measure > edges[b + 1]) {
        ++b;
      }
      buckets[b].spurious.push_back(report.spurious_pct);
    }
  }
  std::printf("%14s %8s %10s %10s %10s\n", "J bucket", "#schemes",
              "E p25[%]", "E p50[%]", "E p75[%]");
  Rule(60);
  for (auto& [b, bucket] : buckets) {
    std::string range = "(" + FormatDouble(edges[b], 2) + "," +
                        FormatDouble(b + 1 < static_cast<int>(edges.size())
                                         ? edges[b + 1]
                                         : 99.0,
                                     2) +
                        "]";
    std::printf("%14s %8zu %10.1f %10.1f %10.1f\n", range.c_str(),
                bucket.spurious.size(), Quantile(bucket.spurious, 0.25),
                Quantile(bucket.spurious, 0.5),
                Quantile(bucket.spurious, 0.75));
  }
}

void Run(double budget, size_t max_schemas, const std::string& trace_path,
         const std::string& metrics_path) {
  ObsSession obs(trace_path, metrics_path);
  Header("Figure 12: spurious tuples vs J-measure",
         "schemes from eps sweep [0,0.5], bucketed by J(S); expect E to "
         "rise monotonically with J");
  for (const char* name : {"Breast-Cancer", "Bridges", "Echocardiogram"}) {
    PlantedDataset d = LoadShaped(name, /*row_cap=*/4000);
    RunDataset(name, d.relation, budget, max_schemas, obs.sink());
  }
  RunDataset("Nursery", NurseryDataset(), budget, max_schemas, obs.sink());
}

}  // namespace
}  // namespace bench
}  // namespace maimon

int main(int argc, char** argv) {
  double budget = 3.0;
  size_t max_schemas = 120;
  std::string trace_path;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (maimon::bench::SecondsFlag(argv[i], "--budget=", &budget)) {
    } else if (maimon::bench::CountFlag(argv[i], "--max-schemas=",
                                        &max_schemas)) {
    } else if (maimon::bench::ParseObsFlag(argv[i], &trace_path,
                                           &metrics_path)) {
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  maimon::bench::Run(budget, max_schemas, trace_path, metrics_path);
  return 0;
}
