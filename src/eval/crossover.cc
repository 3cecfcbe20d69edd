#include "src/eval/crossover.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <utility>

#include "src/eval/parallel_experiment.h"

namespace selest {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// One estimator built against one (distribution, size) source, reused
// across every band of that source.
struct BuiltEstimator {
  std::string name;
  StreamingBuildPath path = StreamingBuildPath::kReservoirSample;
  // The estimator, or why its streaming build failed.
  ResolvedEstimator estimator = InternalError("not built");
  double build_seconds = 0.0;
};

std::string CellName(const EstimatorConfig& config) {
  return EstimatorKindName(config.kind);
}

}  // namespace

CrossoverConfig DefaultCrossoverConfig() {
  CrossoverConfig config;
  config.data = {{"uniform", 0.0, 16}, {"normal", 0.0, 16}, {"zipf", 1.1, 16}};
  config.data_sizes = {10'000, 100'000, 1'000'000};
  config.selectivity_bands = {0.01, 0.02, 0.05, 0.10};
  for (EstimatorKind kind :
       {EstimatorKind::kSampling, EstimatorKind::kUniform,
        EstimatorKind::kEquiWidth, EstimatorKind::kEquiDepth,
        EstimatorKind::kMaxDiff, EstimatorKind::kAverageShifted,
        EstimatorKind::kKernel, EstimatorKind::kHybrid}) {
    EstimatorConfig estimator;
    estimator.kind = kind;
    config.estimators.push_back(estimator);
  }
  return config;
}

StatusOr<CrossoverResult> RunCrossover(const CrossoverConfig& config) {
  if (config.data.empty() || config.data_sizes.empty() ||
      config.selectivity_bands.empty() || config.estimators.empty()) {
    return InvalidArgumentError(
        "crossover sweep needs at least one distribution, size, band and "
        "estimator");
  }
  if (config.queries_per_band == 0) {
    return InvalidArgumentError("crossover sweep needs queries_per_band >= 1");
  }
  CrossoverResult result;
  for (const CrossoverDataSpec& spec : config.data) {
    for (const uint64_t rows : config.data_sizes) {
      SELEST_ASSIGN_OR_RETURN(
          std::unique_ptr<SyntheticColumnSource> source,
          MakeNamedSource(spec.distribution, rows, spec.bits, config.seed,
                          spec.param, config.chunk_rows));

      StreamingBuildOptions options;
      options.sample_size = config.sample_size;
      options.seed = config.seed;
      std::vector<BuiltEstimator> built;
      built.reserve(config.estimators.size());
      for (const EstimatorConfig& estimator_config : config.estimators) {
        BuiltEstimator entry;
        entry.name = CellName(estimator_config);
        const auto start = std::chrono::steady_clock::now();
        auto build = BuildEstimatorStreaming(*source, estimator_config,
                                             options);
        entry.build_seconds = SecondsSince(start);
        if (build.ok()) {
          entry.path = build->path;
          entry.estimator = std::shared_ptr<const SelectivityEstimator>(
              std::move(build->estimator));
        } else {
          entry.estimator = build.status();
        }
        built.push_back(std::move(entry));
      }

      for (const double band : config.selectivity_bands) {
        ProtocolConfig protocol;
        protocol.sample_size = config.sample_size;
        protocol.query_fraction = band;
        protocol.num_queries = config.queries_per_band;
        protocol.seed = config.seed;
        SELEST_ASSIGN_OR_RETURN(const StreamingExperimentSetup setup,
                                TryMakeStreamingSetup(*source, protocol));

        CrossoverFrontierPoint frontier;
        frontier.distribution = spec.distribution;
        frontier.rows = rows;
        frontier.band = band;
        double best_mre = std::numeric_limits<double>::infinity();
        double best_ns = std::numeric_limits<double>::infinity();

        for (const BuiltEstimator& entry : built) {
          CrossoverCell cell;
          cell.distribution = spec.distribution;
          cell.rows = rows;
          cell.band = band;
          cell.estimator = entry.name;
          cell.path = entry.path;
          cell.build_seconds = entry.build_seconds;
          // Serial scoring: the cell's latency is per query, not per pool.
          // A failed build comes back as its own error.
          const auto start = std::chrono::steady_clock::now();
          auto scored = ScoreEstimators(setup.queries, setup.exact_counts,
                                        setup.num_records,
                                        {&entry.estimator, 1},
                                        ParallelExecOptions{.threads = 1});
          const double seconds = SecondsSince(start);
          if (!scored.front().ok()) {
            cell.error = scored.front().status().ToString();
            result.cells.push_back(std::move(cell));
            continue;
          }
          const ErrorReport& report = scored.front().value();
          cell.mean_relative_error = report.mean_relative_error;
          cell.p90_relative_error = report.p90_relative_error;
          cell.evaluated = report.evaluated;
          cell.storage_bytes = entry.estimator.value()->StorageBytes();
          cell.estimate_ns_per_query =
              setup.queries.empty()
                  ? 0.0
                  : 1e9 * seconds / static_cast<double>(setup.queries.size());
          if (report.evaluated > 0) {
            if (cell.mean_relative_error < best_mre) {
              best_mre = cell.mean_relative_error;
              frontier.error_winner = cell.estimator;
              frontier.error_winner_mre = best_mre;
            }
            if (cell.estimate_ns_per_query < best_ns) {
              best_ns = cell.estimate_ns_per_query;
              frontier.latency_winner = cell.estimator;
              frontier.latency_winner_ns = best_ns;
            }
          }
          result.cells.push_back(std::move(cell));
        }
        if (!frontier.error_winner.empty()) {
          result.frontier.push_back(std::move(frontier));
        }
      }
    }
  }
  return result;
}

Status WriteCrossoverJson(const CrossoverResult& result,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) return InternalError("cannot open " + path + " for writing");
  out << "{\n  \"context\": {\"harness\": \"bench_crossover\"},\n"
      << "  \"benchmarks\": [\n";
  bool first = true;
  char band_buf[32];
  for (const CrossoverCell& cell : result.cells) {
    if (!cell.error.empty()) continue;  // failed builds have no timing row
    if (!first) out << ",\n";
    first = false;
    std::snprintf(band_buf, sizeof(band_buf), "%g", cell.band);
    out << "    {\"name\": \"crossover/" << cell.distribution << "/n="
        << cell.rows << "/s=" << band_buf << "/" << cell.estimator
        << "\", \"run_type\": \"iteration\", \"iterations\": "
        << cell.evaluated << ", \"real_time\": " << cell.estimate_ns_per_query
        << ", \"cpu_time\": " << cell.estimate_ns_per_query
        << ", \"time_unit\": \"ns\", \"mre\": " << cell.mean_relative_error
        << ", \"p90_re\": " << cell.p90_relative_error
        << ", \"build_ms\": " << 1e3 * cell.build_seconds
        << ", \"storage_bytes\": " << cell.storage_bytes
        << ", \"build_path\": \"" << StreamingBuildPathName(cell.path)
        << "\"}";
  }
  out << "\n  ],\n  \"frontier\": [\n";
  for (size_t i = 0; i < result.frontier.size(); ++i) {
    const CrossoverFrontierPoint& point = result.frontier[i];
    std::snprintf(band_buf, sizeof(band_buf), "%g", point.band);
    out << "    {\"distribution\": \"" << point.distribution
        << "\", \"rows\": " << point.rows << ", \"band\": " << band_buf
        << ", \"error_winner\": \"" << point.error_winner
        << "\", \"error_winner_mre\": " << point.error_winner_mre
        << ", \"latency_winner\": \"" << point.latency_winner
        << "\", \"latency_winner_ns\": " << point.latency_winner_ns << "}"
        << (i + 1 < result.frontier.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.flush();
  if (!out) return InternalError("short write to " + path);
  return Status::Ok();
}

}  // namespace selest
