// Shared helpers for the figure-reproduction benches.
//
// Every bench prints the data series of one paper figure/table. The
// absolute numbers depend on the synthetic stand-ins for the paper's real
// data (DESIGN.md §1.3); the *shape* of each series is the reproduction
// target recorded in EXPERIMENTS.md.
#ifndef SELEST_BENCH_BENCH_COMMON_H_
#define SELEST_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "src/eval/experiment.h"
#include "src/eval/paper_data.h"
#include "src/eval/parallel_experiment.h"
#include "src/eval/report.h"

namespace selest {
namespace bench {

// Loads a registered paper data file or aborts with a message.
inline Dataset MustLoad(const std::string& name) {
  auto data = MakePaperDataset(name);
  if (!data.ok()) {
    std::fprintf(stderr, "loading %s failed: %s\n", name.c_str(),
                 data.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(data).value();
}

// Runs a config and returns the MRE, aborting on build failure.
inline double MustMre(const ExperimentSetup& setup,
                      const EstimatorConfig& config) {
  auto report = RunConfig(setup, config);
  if (!report.ok()) {
    std::fprintf(stderr, "estimator %s failed: %s\n",
                 EstimatorKindName(config.kind),
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return report->mean_relative_error;
}

// Runs a whole config sweep (parallel builds, exact counts once, one
// scoring fan-out per config) and returns the MREs in config order,
// aborting on any build failure. Bit-identical to calling MustMre per
// config, at any thread count.
inline std::vector<double> MustMres(const ExperimentSetup& setup,
                                    std::span<const EstimatorConfig> configs) {
  std::vector<double> mres;
  mres.reserve(configs.size());
  const auto reports = RunSweep(setup, BuildEstimators(setup, configs));
  for (size_t c = 0; c < reports.size(); ++c) {
    if (!reports[c].ok()) {
      std::fprintf(stderr, "estimator %s failed: %s\n",
                   EstimatorKindName(configs[c].kind),
                   reports[c].status().ToString().c_str());
      std::exit(1);
    }
    mres.push_back(reports[c]->mean_relative_error);
  }
  return mres;
}

inline void PrintHeader(const char* artifact, const char* claim) {
  std::printf("== %s ==\n%s\n\n", artifact, claim);
}

}  // namespace bench
}  // namespace selest

#endif  // SELEST_BENCH_BENCH_COMMON_H_
