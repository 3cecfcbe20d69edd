#include "src/eval/parallel_experiment.h"

#include <optional>
#include <utility>

#include "src/exec/parallel_for.h"
#include "src/exec/thread_pool.h"
#include "src/util/check.h"

namespace selest {
namespace {

// Query chunks per worker; more chunks even out per-chunk cost skew
// without affecting results (chunk boundaries never change values).
constexpr size_t kChunksPerThread = 4;

// Resolves the options to a pool: the shared default pool, a dedicated
// transient pool kept alive by `owned`, or nullptr for the serial path.
ThreadPool* ResolvePool(const ParallelExecOptions& options,
                        std::unique_ptr<ThreadPool>& owned) {
  if (options.threads == 1) return nullptr;
  if (options.threads == 0) return &ThreadPool::Default();
  owned = std::make_unique<ThreadPool>(options.threads);
  return owned.get();
}

size_t NumChunks(const ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->num_threads() * kChunksPerThread;
}

// ScoreEstimators against an already-resolved pool, so RunSweep counts and
// scores on one pool instead of spawning (and joining) two.
std::vector<StatusOr<ErrorReport>> ScoreOnPool(
    ThreadPool* pool, std::span<const RangeQuery> queries,
    std::span<const size_t> exact_counts, size_t num_records,
    std::span<const ResolvedEstimator> estimators) {
  SELEST_CHECK_EQ(queries.size(), exact_counts.size());
  std::vector<StatusOr<ErrorReport>> reports;
  reports.reserve(estimators.size());
  // One fan-out per cell (per-cell error attribution), each parallel over
  // query chunks; each chunk fills its own slice of the shared buffer.
  std::vector<double> estimates(queries.size());
  for (const ResolvedEstimator& estimator : estimators) {
    if (!estimator.ok()) {
      reports.push_back(estimator.status());
      continue;
    }
    SELEST_CHECK(estimator.value() != nullptr);
    const SelectivityEstimator& est = *estimator.value();
    const Status status = TryParallelFor(
        pool, queries.size(), NumChunks(pool),
        [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
          est.EstimateSelectivityBatch(
              queries.subspan(begin, end - begin),
              std::span<double>(estimates).subspan(begin, end - begin));
          return Status::Ok();
        });
    if (!status.ok()) {
      reports.push_back(status);
      continue;
    }
    reports.push_back(AccumulateReport(exact_counts, estimates, num_records));
  }
  return reports;
}

}  // namespace

std::vector<StatusOr<ErrorReport>> ScoreEstimators(
    std::span<const RangeQuery> queries, std::span<const size_t> exact_counts,
    size_t num_records, std::span<const ResolvedEstimator> estimators,
    const ParallelExecOptions& options) {
  std::unique_ptr<ThreadPool> owned;
  return ScoreOnPool(ResolvePool(options, owned), queries, exact_counts,
                     num_records, estimators);
}

std::vector<StatusOr<ErrorReport>> RunSweep(
    const ExperimentSetup& setup, std::span<const ResolvedEstimator> estimators,
    const ParallelExecOptions& options) {
  SELEST_CHECK(setup.data != nullptr);
  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = ResolvePool(options, owned);
  const GroundTruth truth(*setup.data);
  const std::span<const RangeQuery> queries(setup.queries);
  std::vector<size_t> exact_counts(queries.size());
  ParallelFor(pool, queries.size(), NumChunks(pool),
              [&](size_t begin, size_t end, size_t /*chunk*/) {
                for (size_t i = begin; i < end; ++i) {
                  exact_counts[i] = truth.Count(queries[i]);
                }
              });
  return ScoreOnPool(pool, queries, exact_counts, truth.num_records(),
                     estimators);
}

std::vector<ResolvedEstimator> BuildEstimators(
    const ExperimentSetup& setup, std::span<const EstimatorConfig> configs,
    const ParallelExecOptions& options) {
  SELEST_CHECK(setup.data != nullptr);
  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = ResolvePool(options, owned);
  std::vector<std::optional<ResolvedEstimator>> built(configs.size());
  ParallelFor(pool, configs.size(), configs.size(),
              [&](size_t begin, size_t end, size_t /*chunk*/) {
                for (size_t c = begin; c < end; ++c) {
                  auto estimator =
                      BuildEstimator(setup.sample, setup.domain(), configs[c]);
                  if (estimator.ok()) {
                    built[c].emplace(std::shared_ptr<const SelectivityEstimator>(
                        std::move(estimator).value()));
                  } else {
                    built[c].emplace(estimator.status());
                  }
                }
              });
  std::vector<ResolvedEstimator> estimators;
  estimators.reserve(configs.size());
  for (std::optional<ResolvedEstimator>& cell : built) {
    estimators.push_back(std::move(*cell));
  }
  return estimators;
}

}  // namespace selest
