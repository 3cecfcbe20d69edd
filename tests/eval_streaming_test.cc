// Streaming experiment protocol: exact counts from a chunk stream match
// the materialized ground truth for every chunk size, and the streamed
// setup behaves like the in-memory protocol it replaces.
#include "src/eval/streaming_experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "src/data/column_source.h"
#include "src/data/dataset.h"
#include "src/data/distribution.h"
#include "src/data/domain.h"
#include "src/est/streaming_build.h"
#include "src/eval/parallel_experiment.h"
#include "src/query/streaming_ground_truth.h"
#include "src/util/random.h"

namespace selest {
namespace {

Dataset TestData(size_t rows) {
  Rng rng(17);
  return GenerateDataset("normal", NormalDistribution(512.0, 150.0), rows,
                         BitDomain(10), rng);
}

TEST(StreamingGroundTruthTest, MatchesDatasetCountsForEveryChunkSize) {
  const Dataset data = TestData(2000);
  std::vector<RangeQuery> queries;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const double a = 1024.0 * rng.NextDouble();
    const double b = a + 200.0 * rng.NextDouble();
    queries.push_back({a, b});
  }
  std::vector<size_t> expected;
  expected.reserve(queries.size());
  for (const RangeQuery& query : queries) {
    expected.push_back(data.CountInRange(query.a, query.b));
  }
  for (const size_t chunk_rows : {1ul, 64ul, 333ul, 4096ul}) {
    InMemoryColumnSource source(data, chunk_rows);
    auto counts = StreamingExactCounts(source, queries);
    ASSERT_TRUE(counts.ok()) << counts.status().ToString();
    EXPECT_EQ(*counts, expected) << "chunk_rows=" << chunk_rows;
  }
}

TEST(StreamingGroundTruthTest, NonFiniteRowIsInvalidArgument) {
  const std::vector<double> rows = {1.0, std::nan(""), 3.0};
  InMemoryColumnSource source("nan", ContinuousDomain(0.0, 4.0), rows, 2);
  const std::vector<RangeQuery> queries = {{0.0, 4.0}};
  EXPECT_EQ(StreamingExactCounts(source, queries).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamingSetupTest, HoldsConsistentSampleQueriesAndCounts) {
  const Dataset data = TestData(5000);
  InMemoryColumnSource source(data, 256);
  ProtocolConfig protocol;
  protocol.sample_size = 400;
  protocol.num_queries = 100;
  protocol.query_fraction = 0.05;
  auto setup = TryMakeStreamingSetup(source, protocol);
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  EXPECT_EQ(setup->source_name, data.name());
  EXPECT_EQ(setup->num_records, data.size());
  EXPECT_EQ(setup->sample.size(), protocol.sample_size);
  EXPECT_EQ(setup->queries.size() + setup->dropped_empty,
            protocol.num_queries);
  ASSERT_EQ(setup->queries.size(), setup->exact_counts.size());
  for (size_t i = 0; i < setup->queries.size(); ++i) {
    // Counts are exact (checked against the materialized column) and
    // non-zero (zero-count queries were dropped).
    EXPECT_EQ(setup->exact_counts[i],
              data.CountInRange(setup->queries[i].a, setup->queries[i].b));
    EXPECT_GT(setup->exact_counts[i], 0u);
  }
  for (double v : setup->sample) {
    EXPECT_TRUE(data.domain().Contains(v));
  }
}

TEST(StreamingSetupTest, ChunkSizeDoesNotChangeTheSetup) {
  const Dataset data = TestData(3000);
  ProtocolConfig protocol;
  protocol.sample_size = 300;
  protocol.num_queries = 60;
  InMemoryColumnSource reference_source(data, 4096);
  auto reference = TryMakeStreamingSetup(reference_source, protocol);
  ASSERT_TRUE(reference.ok());
  for (const size_t chunk_rows : {1ul, 64ul, 333ul}) {
    InMemoryColumnSource source(data, chunk_rows);
    auto setup = TryMakeStreamingSetup(source, protocol);
    ASSERT_TRUE(setup.ok());
    EXPECT_EQ(setup->sample, reference->sample);
    EXPECT_EQ(setup->exact_counts, reference->exact_counts);
    ASSERT_EQ(setup->queries.size(), reference->queries.size());
    for (size_t i = 0; i < setup->queries.size(); ++i) {
      EXPECT_EQ(setup->queries[i].a, reference->queries[i].a);
      EXPECT_EQ(setup->queries[i].b, reference->queries[i].b);
    }
  }
}

TEST(StreamingSetupTest, RowOutsideDomainIsInvalidArgument) {
  const std::vector<double> rows = {1.0, 2.0, 99.0};
  InMemoryColumnSource source("bad", ContinuousDomain(0.0, 4.0), rows, 2);
  ProtocolConfig protocol;
  protocol.sample_size = 3;
  protocol.num_queries = 10;
  EXPECT_EQ(TryMakeStreamingSetup(source, protocol).status().code(),
            StatusCode::kInvalidArgument);
}

// The streaming source at its call site: build `config` from the column,
// then score it against the setup's own exact counts.
std::vector<StatusOr<ErrorReport>> ScoreStreamingBuild(
    ColumnSource& source, const StreamingExperimentSetup& setup,
    const EstimatorConfig& config, const StreamingBuildOptions& options) {
  auto build = BuildEstimatorStreaming(source, config, options);
  const ResolvedEstimator estimator =
      build.ok() ? ResolvedEstimator(std::shared_ptr<const SelectivityEstimator>(
                       std::move(build->estimator)))
                 : ResolvedEstimator(build.status());
  return ScoreEstimators(setup.queries, setup.exact_counts, setup.num_records,
                         {&estimator, 1});
}

TEST(StreamingSetupTest, RunConfigStreamingScoresEstimators) {
  const Dataset data = TestData(4000);
  InMemoryColumnSource source(data, 512);
  ProtocolConfig protocol;
  protocol.sample_size = 500;
  protocol.num_queries = 80;
  protocol.query_fraction = 0.05;
  auto setup = TryMakeStreamingSetup(source, protocol);
  ASSERT_TRUE(setup.ok());
  StreamingBuildOptions options;
  options.sample_size = protocol.sample_size;
  options.seed = protocol.seed;
  for (const EstimatorKind kind :
       {EstimatorKind::kEquiWidth, EstimatorKind::kSampling,
        EstimatorKind::kUniform}) {
    EstimatorConfig config;
    config.kind = kind;
    const auto reports = ScoreStreamingBuild(source, *setup, config, options);
    ASSERT_EQ(reports.size(), 1u);
    const auto& report = reports.front();
    ASSERT_TRUE(report.ok())
        << EstimatorKindName(kind) << ": " << report.status().ToString();
    EXPECT_EQ(report->evaluated, setup->queries.size());
    EXPECT_TRUE(std::isfinite(report->mean_relative_error));
    EXPECT_GE(report->mean_relative_error, 0.0);
  }
}

TEST(StreamingSetupTest, EvaluationIsDeterministicPerEstimator) {
  const Dataset data = TestData(2000);
  InMemoryColumnSource source(data, 128);
  ProtocolConfig protocol;
  protocol.sample_size = 200;
  protocol.num_queries = 40;
  auto setup = TryMakeStreamingSetup(source, protocol);
  ASSERT_TRUE(setup.ok());
  EstimatorConfig config;
  config.kind = EstimatorKind::kEquiWidth;
  const auto first = ScoreStreamingBuild(source, *setup, config, {});
  const auto second = ScoreStreamingBuild(source, *setup, config, {});
  ASSERT_TRUE(first.front().ok());
  ASSERT_TRUE(second.front().ok());
  EXPECT_EQ(first.front()->mean_relative_error,
            second.front()->mean_relative_error);
}

}  // namespace
}  // namespace selest
