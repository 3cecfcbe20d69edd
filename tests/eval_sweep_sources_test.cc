// The source-equivalence table. On one setup, every estimator source —
// plain build, guarded build with a healthy primary, catalog serve (cold
// rebuild, cache, disk snapshot), live server without ingest, and
// streaming build over a column no larger than the reservoir — resolves
// its estimators, scores them through the one sweep, and must give
// reports bit-identical to the serial Evaluate reference at threads 1 and
// 4.
#include "src/eval/parallel_experiment.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/catalog/live_server.h"
#include "src/catalog/statistics_catalog.h"
#include "src/data/column_source.h"
#include "src/data/distribution.h"
#include "src/est/guarded_estimator.h"
#include "src/est/streaming_build.h"
#include "src/util/random.h"

namespace selest {
namespace {

// The column has fewer rows than the streaming reservoir holds, and all of
// them are the setup's sample: the streaming build then reproduces
// BuildEstimator over the sample byte for byte.
constexpr size_t kRows = 1500;
constexpr size_t kReservoir = 2000;

std::string FreshDir(const std::string& name) {
  // Suffixed with the pid: each gtest case runs as its own ctest process,
  // and concurrent cases of the same binary must not share a directory.
  const std::string dir =
      testing::TempDir() + name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

CatalogOptions InDirectory(const std::string& dir) {
  CatalogOptions options;
  options.snapshot_directory = dir;
  return options;
}

// Every field, compared exactly: the contract is bit-identity.
void ExpectBitIdentical(const ErrorReport& a, const ErrorReport& b) {
  EXPECT_EQ(a.mean_relative_error, b.mean_relative_error);
  EXPECT_EQ(a.mean_absolute_error, b.mean_absolute_error);
  EXPECT_EQ(a.max_relative_error, b.max_relative_error);
  EXPECT_EQ(a.p50_relative_error, b.p50_relative_error);
  EXPECT_EQ(a.p90_relative_error, b.p90_relative_error);
  EXPECT_EQ(a.p99_relative_error, b.p99_relative_error);
  EXPECT_EQ(a.skipped_empty, b.skipped_empty);
  EXPECT_EQ(a.evaluated, b.evaluated);
}

EstimatorConfig Config(EstimatorKind kind) {
  EstimatorConfig config;
  config.kind = kind;
  return config;
}

EstimatorConfig FixedBins(EstimatorKind kind, int bins) {
  EstimatorConfig config = Config(kind);
  config.smoothing = SmoothingRule::kFixed;
  config.fixed_smoothing = bins;
  return config;
}

std::vector<EstimatorConfig> TableConfigs() {
  EstimatorConfig kernel = Config(EstimatorKind::kKernel);
  kernel.boundary = BoundaryPolicy::kBoundaryKernel;
  EstimatorConfig hybrid = Config(EstimatorKind::kHybrid);
  hybrid.boundary = BoundaryPolicy::kBoundaryKernel;
  return {Config(EstimatorKind::kEquiWidth),
          FixedBins(EstimatorKind::kEquiDepth, 20),
          FixedBins(EstimatorKind::kMaxDiff, 20),
          kernel,
          hybrid,
          Config(EstimatorKind::kAverageShifted)};
}

// Catalog source: each config registered as its own column, then served.
std::vector<ResolvedEstimator> ServeFromCatalog(
    Catalog& catalog, const ExperimentSetup& setup,
    const std::vector<EstimatorConfig>& configs) {
  std::vector<ResolvedEstimator> estimators;
  for (size_t c = 0; c < configs.size(); ++c) {
    auto key = catalog.RegisterColumn("sweep", "v" + std::to_string(c),
                                      setup.domain(), setup.sample,
                                      configs[c]);
    estimators.push_back(key.ok() ? catalog.GetEstimator(key.value())
                                  : ResolvedEstimator(key.status()));
  }
  return estimators;
}

TEST(SweepSourcesTest, EverySourceScoresBitIdenticallyAtAnyThreadCount) {
  Rng rng(2027);
  const Domain domain = BitDomain(12);
  const NormalDistribution dist(0.5 * domain.hi, domain.width() / 6.0);
  const Dataset data = GenerateDataset("sources", dist, kRows, domain, rng);
  ExperimentSetup setup;
  setup.data = &data;
  setup.sample = data.values();
  Rng query_rng(7);
  WorkloadConfig workload;
  workload.query_fraction = 0.05;
  workload.num_queries = 200;
  setup.queries = GenerateWorkload(data, workload, query_rng);
  const std::vector<EstimatorConfig> configs = TableConfigs();

  // The serial reference: per-query EstimateSelectivity, no fan-out.
  const GroundTruth truth(data);
  std::vector<ErrorReport> reference;
  for (const EstimatorConfig& config : configs) {
    auto estimator = BuildEstimator(setup.sample, setup.domain(), config);
    ASSERT_TRUE(estimator.ok()) << EstimatorKindName(config.kind);
    reference.push_back(Evaluate(*estimator.value(), setup.queries, truth));
  }

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    const ParallelExecOptions options{threads};
    struct Row {
      std::string source;
      std::vector<ResolvedEstimator> estimators;
    };
    std::vector<Row> table;

    table.push_back({"plain build", BuildEstimators(setup, configs, options)});

    // Guarded builds, serial in config order; the healthy primary heads
    // every chain, so the guard stays transparent.
    std::vector<std::shared_ptr<const GuardedEstimator>> chains;
    Row guarded{"guarded build", {}};
    for (const EstimatorConfig& config : configs) {
      auto build = BuildGuardedEstimator(setup.sample, setup.domain(), config);
      ASSERT_TRUE(build.ok());
      EXPECT_TRUE(build->primary_status.ok());
      chains.push_back(std::move(build->estimator));
      guarded.estimators.push_back(
          std::shared_ptr<const SelectivityEstimator>(chains.back()));
    }
    table.push_back(std::move(guarded));

    // The catalog three ways: cold rebuilds, then cache hits from the same
    // catalog, then disk snapshots through a fresh catalog.
    const std::string dir =
        FreshDir("selest_sweep_sources_" + std::to_string(threads));
    Catalog catalog(InDirectory(dir));
    table.push_back(
        {"catalog cold", ServeFromCatalog(catalog, setup, configs)});
    EXPECT_EQ(catalog.serve_stats().rebuilds, configs.size());
    table.push_back(
        {"catalog cache", ServeFromCatalog(catalog, setup, configs)});
    EXPECT_EQ(catalog.serve_stats().rebuilds, configs.size());
    EXPECT_GE(catalog.cache_stats().hits, configs.size());
    Catalog from_disk(InDirectory(dir));
    table.push_back(
        {"catalog snapshot", ServeFromCatalog(from_disk, setup, configs)});
    EXPECT_EQ(from_disk.serve_stats().snapshot_loads, configs.size());
    EXPECT_EQ(from_disk.serve_stats().rebuilds, 0u);

    // The live server without ingest serves its registration generation.
    LiveServerOptions live_options;
    live_options.background_refresh = false;
    LiveStatisticsServer server(live_options);
    Row live{"live server", {}};
    for (size_t c = 0; c < configs.size(); ++c) {
      const std::string attribute = "v" + std::to_string(c);
      ASSERT_TRUE(server
                      .RegisterColumn("sweep", attribute, setup.domain(),
                                      configs[c], setup.sample)
                      .ok());
      live.estimators.push_back(server.CurrentEstimator("sweep", attribute));
    }
    table.push_back(std::move(live));

    InMemoryColumnSource source(data, 256);
    StreamingBuildOptions streaming;
    streaming.sample_size = kReservoir;
    Row streamed{"streaming build", {}};
    for (const EstimatorConfig& config : configs) {
      auto build = BuildEstimatorStreaming(source, config, streaming);
      streamed.estimators.push_back(
          build.ok() ? ResolvedEstimator(std::shared_ptr<const SelectivityEstimator>(
                           std::move(build->estimator)))
                     : ResolvedEstimator(build.status()));
    }
    table.push_back(std::move(streamed));

    for (const Row& row : table) {
      const auto reports = RunSweep(setup, row.estimators, options);
      ASSERT_EQ(reports.size(), configs.size());
      for (size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE(row.source + " / " + EstimatorKindName(configs[c].kind) +
                     " / threads " + std::to_string(threads));
        ASSERT_TRUE(reports[c].ok()) << reports[c].status().ToString();
        ExpectBitIdentical(reports[c].value(), reference[c]);
      }
    }
    for (const auto& chain : chains) EXPECT_FALSE(chain->stats().degraded());
  }
}

}  // namespace
}  // namespace selest
