// The crossover-frontier harness: a small sweep runs out of core, the
// frontier reduction picks winners per (distribution, size, band) group,
// the result is deterministic, and the JSON artifact has the
// google-benchmark shape tools/bench_diff.py reads.
#include "src/eval/crossover.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>

namespace selest {
namespace {

CrossoverConfig TinyConfig() {
  CrossoverConfig config;
  config.data = {{"uniform", 0.0, 10}, {"zipf", 1.2, 10}};
  config.data_sizes = {500, 2000};
  config.selectivity_bands = {0.02, 0.10};
  EstimatorConfig equi_width;
  equi_width.kind = EstimatorKind::kEquiWidth;
  EstimatorConfig sampling;
  sampling.kind = EstimatorKind::kSampling;
  config.estimators = {equi_width, sampling};
  config.queries_per_band = 30;
  config.sample_size = 200;
  config.seed = 7;
  config.chunk_rows = 128;
  return config;
}

TEST(CrossoverTest, SweepsEveryCellAndReducesToFrontier) {
  const CrossoverConfig config = TinyConfig();
  auto result = RunCrossover(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // 2 dists × 2 sizes × 2 bands × 2 estimators.
  EXPECT_EQ(result->cells.size(), 16u);
  // One frontier point per (dist, size, band) group.
  EXPECT_EQ(result->frontier.size(), 8u);
  std::set<std::string> estimators;
  for (const CrossoverCell& cell : result->cells) {
    EXPECT_TRUE(cell.error.empty()) << cell.estimator << ": " << cell.error;
    EXPECT_GT(cell.evaluated, 0u);
    EXPECT_GE(cell.mean_relative_error, 0.0);
    EXPECT_GT(cell.estimate_ns_per_query, 0.0);
    EXPECT_GT(cell.storage_bytes, 0u);
    estimators.insert(cell.estimator);
  }
  EXPECT_EQ(estimators.size(), 2u);
  for (const CrossoverFrontierPoint& point : result->frontier) {
    EXPECT_TRUE(estimators.count(point.error_winner)) << point.error_winner;
    EXPECT_TRUE(estimators.count(point.latency_winner))
        << point.latency_winner;
    EXPECT_GE(point.error_winner_mre, 0.0);
    EXPECT_GT(point.latency_winner_ns, 0.0);
  }
}

TEST(CrossoverTest, FailedBuildIsAnErrorCellOutsideTheFrontier) {
  CrossoverConfig config = TinyConfig();
  EstimatorConfig broken;  // a NaN fixed bandwidth cannot build
  broken.kind = EstimatorKind::kKernel;
  broken.smoothing = SmoothingRule::kFixed;
  broken.fixed_smoothing = std::numeric_limits<double>::quiet_NaN();
  config.estimators.push_back(broken);
  auto result = RunCrossover(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cells.size(), 24u);
  for (const CrossoverCell& cell : result->cells) {
    if (cell.estimator == "kernel") {
      EXPECT_FALSE(cell.error.empty());
      EXPECT_EQ(cell.evaluated, 0u);
    } else {
      EXPECT_TRUE(cell.error.empty()) << cell.estimator << ": " << cell.error;
      EXPECT_GT(cell.evaluated, 0u);
    }
  }
  EXPECT_EQ(result->frontier.size(), 8u);
  for (const CrossoverFrontierPoint& point : result->frontier) {
    EXPECT_NE(point.error_winner, "kernel");
    EXPECT_NE(point.latency_winner, "kernel");
  }
}

TEST(CrossoverTest, ErrorMetricsAreDeterministicAcrossRuns) {
  const CrossoverConfig config = TinyConfig();
  auto first = RunCrossover(config);
  auto second = RunCrossover(config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->cells.size(), second->cells.size());
  for (size_t i = 0; i < first->cells.size(); ++i) {
    // Error metrics are pure functions of (config, seed); only the wall
    // clock timings differ between runs.
    EXPECT_EQ(first->cells[i].estimator, second->cells[i].estimator);
    EXPECT_EQ(first->cells[i].mean_relative_error,
              second->cells[i].mean_relative_error);
    EXPECT_EQ(first->cells[i].p90_relative_error,
              second->cells[i].p90_relative_error);
    EXPECT_EQ(first->cells[i].evaluated, second->cells[i].evaluated);
  }
  ASSERT_EQ(first->frontier.size(), second->frontier.size());
  for (size_t i = 0; i < first->frontier.size(); ++i) {
    EXPECT_EQ(first->frontier[i].error_winner,
              second->frontier[i].error_winner);
  }
}

TEST(CrossoverTest, EmptyAxesAreInvalidArgument) {
  CrossoverConfig config = TinyConfig();
  config.data_sizes.clear();
  EXPECT_EQ(RunCrossover(config).status().code(),
            StatusCode::kInvalidArgument);
  config = TinyConfig();
  config.estimators.clear();
  EXPECT_EQ(RunCrossover(config).status().code(),
            StatusCode::kInvalidArgument);
  config = TinyConfig();
  config.selectivity_bands = {0.0};
  EXPECT_EQ(RunCrossover(config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CrossoverTest, UnknownDistributionFailsTheRun) {
  CrossoverConfig config = TinyConfig();
  config.data = {{"cauchy", 0.0, 10}};
  EXPECT_FALSE(RunCrossover(config).ok());
}

TEST(CrossoverTest, DefaultConfigCoversThePaperAxes) {
  const CrossoverConfig config = DefaultCrossoverConfig();
  EXPECT_GE(config.data.size(), 3u);
  EXPECT_GE(config.data_sizes.size(), 3u);
  EXPECT_EQ(config.selectivity_bands.size(), 4u);
  EXPECT_GE(config.estimators.size(), 6u);
}

TEST(CrossoverTest, JsonArtifactHasBenchmarkShape) {
  CrossoverConfig config = TinyConfig();
  config.data = {{"uniform", 0.0, 10}};
  config.data_sizes = {500};
  auto result = RunCrossover(config);
  ASSERT_TRUE(result.ok());
  const std::string path = std::string(::testing::TempDir()) +
                           "/crossover_" + std::to_string(::getpid()) +
                           ".json";
  ASSERT_TRUE(WriteCrossoverJson(*result, path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  // The google-benchmark envelope bench_diff.py expects, plus the
  // frontier block, plus one entry per cell.
  EXPECT_NE(json.find("\"benchmarks\""), std::string::npos);
  EXPECT_NE(json.find("\"frontier\""), std::string::npos);
  EXPECT_NE(json.find("\"real_time\""), std::string::npos);
  EXPECT_NE(json.find("\"time_unit\""), std::string::npos);
  EXPECT_NE(json.find("crossover/uniform/n=500/s=0.02/equi-width"),
            std::string::npos);
  EXPECT_NE(json.find("\"mre\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace selest
