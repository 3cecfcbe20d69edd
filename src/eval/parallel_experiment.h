// The experiment sweep: one scoring core for every estimator source.
//
// The paper's evaluation (§5.1) scores many estimators against one query
// file. Where each cell's estimator comes from — a plain build, a guarded
// build, a catalog or live-server serve, a streaming build — is the
// caller's business: it resolves one estimator per cell (or the error that
// kept its source from producing one), and ScoreEstimators scores them all
// under one determinism contract:
//
//   * per-query quantities (exact count, estimated selectivity) are
//     computed independently over query chunks, each exactly as the serial
//     path computes it;
//   * every floating-point reduction happens after the fan-out in a fixed
//     serial order (AccumulateReport, in query order).
//
// Reports are therefore bit-identical to the serial Evaluate path at any
// thread count, whatever the source. See DESIGN.md, "Execution layer".
#ifndef SELEST_EVAL_PARALLEL_EXPERIMENT_H_
#define SELEST_EVAL_PARALLEL_EXPERIMENT_H_

#include <memory>
#include <span>
#include <vector>

#include "src/eval/experiment.h"
#include "src/eval/metrics.h"
#include "src/util/status.h"

namespace selest {

struct ParallelExecOptions {
  // 0 → the shared default pool (ThreadPool::DefaultThreadCount() workers);
  // 1 → fully serial, no pool involvement (the serial fallback);
  // N → a dedicated pool of N workers for this call (used by the
  //     determinism tests and the speedup benchmark).
  // Each call starts and joins its own dedicated pool, so
  // RunSweep(setup, BuildEstimators(setup, configs, options), options)
  // pays that twice: a median 22–41 µs (2 workers), 78–87 µs (4) or
  // 0.2–0.53 ms (8) per start+join over two runs on a shared 4-core
  // x86-64 host, against a 46–65 ms Fig. 12 sweep
  // (BM_Fig12SweepWallClock). Sharing one pool would need a pool handle in
  // these options; callers sweeping many small setups use threads = 0,
  // whose shared pool costs nothing per call.
  size_t threads = 0;
};

// One sweep cell's estimator, or why its source could not produce one.
// Shared ownership is what the catalog and the live server hand out; the
// build helper below converts into it.
using ResolvedEstimator = StatusOr<std::shared_ptr<const SelectivityEstimator>>;

// The scoring core. Scores every resolved estimator against `queries`,
// whose exact result sizes over `num_records` records are `exact_counts`:
// EstimateSelectivityBatch over query chunks, one TryParallelFor fan-out
// per cell, then AccumulateReport in query order. Reports come back in cell
// order. An unresolved cell keeps its source's error; a cell whose fan-out
// fails (an injected `exec/task` fault or a thrown chunk) gets that error
// as its own, and the other cells score normally.
std::vector<StatusOr<ErrorReport>> ScoreEstimators(
    std::span<const RangeQuery> queries, std::span<const size_t> exact_counts,
    size_t num_records, std::span<const ResolvedEstimator> estimators,
    const ParallelExecOptions& options = {});

// The sweep over an in-memory setup: exact counts from one GroundTruth
// fan-out, computed once however many cells there are, then
// ScoreEstimators on the same pool.
std::vector<StatusOr<ErrorReport>> RunSweep(
    const ExperimentSetup& setup, std::span<const ResolvedEstimator> estimators,
    const ParallelExecOptions& options = {});

// The plain-build source: BuildEstimator on the setup's sample for every
// config, parallel across configs. Build errors surface per cell, in config
// order.
std::vector<ResolvedEstimator> BuildEstimators(
    const ExperimentSetup& setup, std::span<const EstimatorConfig> configs,
    const ParallelExecOptions& options = {});

}  // namespace selest

#endif  // SELEST_EVAL_PARALLEL_EXPERIMENT_H_
