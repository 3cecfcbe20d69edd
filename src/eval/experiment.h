// Experiment orchestration: dataset → sample → workload → estimator → MRE.
//
// Reproduces the paper's experimental protocol (§5.1): draw a 2,000-record
// sample without replacement, generate a size-separated query file whose
// positions follow the data distribution, and score estimators by mean
// relative error against exact counts.
#ifndef SELEST_EVAL_EXPERIMENT_H_
#define SELEST_EVAL_EXPERIMENT_H_

#include <functional>
#include <vector>

#include "src/data/dataset.h"
#include "src/est/estimator_factory.h"
#include "src/eval/metrics.h"
#include "src/query/ground_truth.h"
#include "src/query/workload.h"
#include "src/util/status.h"

namespace selest {

// One prepared experiment: dataset + sample + query file. Holds a pointer
// to the dataset, which must outlive the setup.
struct ExperimentSetup {
  const Dataset* data = nullptr;
  std::vector<double> sample;
  std::vector<RangeQuery> queries;

  const Domain& domain() const { return data->domain(); }
};

// Standard protocol parameters (§5.1 defaults).
struct ProtocolConfig {
  size_t sample_size = 2000;
  double query_fraction = 0.01;
  size_t num_queries = 1000;
  uint64_t seed = 1;
};

// Draws the sample and generates the query file. Status-first: a sample
// size exceeding the dataset is kInvalidArgument and workload
// rejection-sampling exhaustion is kResourceExhausted (see
// query/workload.h), never an abort — both are reachable from externally
// supplied data files.
StatusOr<ExperimentSetup> TryMakeSetup(const Dataset& data,
                                       const ProtocolConfig& protocol);

// Aborting form of TryMakeSetup, for protocols already known to fit the
// dataset (the paper benches on the generated stand-ins).
ExperimentSetup MakeSetup(const Dataset& data, const ProtocolConfig& protocol);

// Builds the configured estimator from the setup's sample and evaluates it
// on the setup's queries: the one-config sweep. Evaluation fans out across
// the shared thread pool; the result is bit-identical to a serial
// evaluation (see eval/parallel_experiment.h for the determinism contract
// and for the sweep entry points with explicit thread control).
StatusOr<ErrorReport> RunConfig(const ExperimentSetup& setup,
                                const EstimatorConfig& config);

// MRE as a function of the histogram bin count, for oracle bin-count
// searches (`config.kind` must be a histogram estimator). Failed builds
// score +inf.
std::function<double(int)> MakeBinCountObjective(const ExperimentSetup& setup,
                                                 EstimatorConfig config);

// MRE as a function of the kernel bandwidth, for oracle bandwidth searches
// (`config.kind` must be kKernel).
std::function<double(double)> MakeBandwidthObjective(
    const ExperimentSetup& setup, EstimatorConfig config);

}  // namespace selest

#endif  // SELEST_EVAL_EXPERIMENT_H_
