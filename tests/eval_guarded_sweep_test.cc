// The guarded sweep acceptance test: a sweep over guarded builds with a
// deliberately broken config completes, records the error in that cell,
// and still reports fallback estimates — and healthy cells stay
// bit-identical to the plain-build sweep. Injected task faults surface as
// the faulted cell's own error, whatever the estimator source.
#include "src/eval/parallel_experiment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "src/data/distribution.h"
#include "src/est/guarded_estimator.h"
#include "src/exec/fault_injection.h"
#include "src/util/random.h"

namespace selest {
namespace {

Dataset MakeData() {
  Rng rng(11);
  const Domain domain = BitDomain(16);
  const NormalDistribution dist(0.5 * domain.hi, domain.width() / 8.0);
  return GenerateDataset("guarded-sweep", dist, 10000, domain, rng);
}

ExperimentSetup MakeSmallSetup(const Dataset& data) {
  ProtocolConfig protocol;
  protocol.sample_size = 500;
  protocol.num_queries = 200;
  return MakeSetup(data, protocol);
}

void ExpectBitIdentical(const ErrorReport& a, const ErrorReport& b) {
  EXPECT_EQ(a.mean_relative_error, b.mean_relative_error);
  EXPECT_EQ(a.mean_absolute_error, b.mean_absolute_error);
  EXPECT_EQ(a.max_relative_error, b.max_relative_error);
  EXPECT_EQ(a.p50_relative_error, b.p50_relative_error);
  EXPECT_EQ(a.evaluated, b.evaluated);
}

// Two healthy configs around one that cannot build: NaN fixed bandwidth.
std::vector<EstimatorConfig> ConfigsWithOneBroken() {
  std::vector<EstimatorConfig> configs(3);
  configs[0].kind = EstimatorKind::kEquiWidth;
  configs[1].kind = EstimatorKind::kKernel;
  configs[1].smoothing = SmoothingRule::kFixed;
  configs[1].fixed_smoothing = std::numeric_limits<double>::quiet_NaN();
  configs[2].kind = EstimatorKind::kEquiDepth;
  return configs;
}

// The guarded source and its sweep. Builds run serially in config order,
// so the `est/build` fault point sees a schedule-independent hit sequence.
// A cell whose chain cannot build at all (a malformed domain) has a null
// chain, and its report and primary status carry the build error.
struct GuardedSweep {
  std::vector<Status> primary_status;
  std::vector<std::shared_ptr<const GuardedEstimator>> chains;
  std::vector<StatusOr<ErrorReport>> reports;
};

std::vector<ResolvedEstimator> BuildGuarded(
    const ExperimentSetup& setup, std::span<const EstimatorConfig> configs,
    GuardedSweep& sweep) {
  std::vector<ResolvedEstimator> estimators;
  for (const EstimatorConfig& config : configs) {
    auto build = BuildGuardedEstimator(setup.sample, setup.domain(), config);
    if (!build.ok()) {
      sweep.primary_status.push_back(build.status());
      sweep.chains.push_back(nullptr);
      estimators.push_back(build.status());
      continue;
    }
    sweep.primary_status.push_back(build->primary_status);
    sweep.chains.push_back(std::move(build->estimator));
    estimators.push_back(
        std::shared_ptr<const SelectivityEstimator>(sweep.chains.back()));
  }
  return estimators;
}

GuardedSweep RunGuardedSweep(const ExperimentSetup& setup,
                             std::span<const EstimatorConfig> configs,
                             size_t threads) {
  GuardedSweep sweep;
  const auto estimators = BuildGuarded(setup, configs, sweep);
  sweep.reports = RunSweep(setup, estimators, ParallelExecOptions{threads});
  return sweep;
}

class GuardedSweepTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::DisarmAll(); }
};

TEST_F(GuardedSweepTest, BrokenConfigYieldsErrorCellPlusFallbackEstimates) {
  const Dataset data = MakeData();
  const ExperimentSetup setup = MakeSmallSetup(data);
  const auto configs = ConfigsWithOneBroken();
  for (const size_t threads : {size_t{1}, size_t{3}}) {
    const ParallelExecOptions options{threads};
    const GuardedSweep sweep = RunGuardedSweep(setup, configs, threads);
    ASSERT_EQ(sweep.reports.size(), 3u);

    // Healthy cells: clean, and bit-identical to the plain-build sweep.
    const auto raw =
        RunSweep(setup, BuildEstimators(setup, configs, options), options);
    for (const size_t c : {size_t{0}, size_t{2}}) {
      EXPECT_TRUE(sweep.primary_status[c].ok());
      ASSERT_TRUE(sweep.reports[c].ok());
      EXPECT_FALSE(sweep.chains[c]->stats().degraded());
      ASSERT_TRUE(raw[c].ok());
      ExpectBitIdentical(sweep.reports[c].value(), raw[c].value());
    }

    // The broken cell: the build error is recorded, the sweep did not
    // abort, and the fallback chain still produced a scored report.
    EXPECT_FALSE(sweep.primary_status[1].ok());
    EXPECT_EQ(sweep.primary_status[1].code(), StatusCode::kInvalidArgument);
    ASSERT_TRUE(sweep.reports[1].ok());
    EXPECT_GT(sweep.reports[1]->evaluated, 0u);
    EXPECT_TRUE(std::isfinite(sweep.reports[1]->mean_relative_error));
    EXPECT_NE(sweep.chains[1]->name().find("guarded("), std::string::npos);
    EXPECT_FALSE(raw[1].ok());  // the plain build only has the error
  }
}

TEST_F(GuardedSweepTest, GuardedSweepIsDeterministicAcrossThreadCounts) {
  const Dataset data = MakeData();
  const ExperimentSetup setup = MakeSmallSetup(data);
  const auto configs = ConfigsWithOneBroken();
  const GuardedSweep serial = RunGuardedSweep(setup, configs, 1);
  const GuardedSweep parallel = RunGuardedSweep(setup, configs, 4);
  ASSERT_EQ(serial.reports.size(), parallel.reports.size());
  for (size_t c = 0; c < serial.reports.size(); ++c) {
    EXPECT_EQ(serial.primary_status[c].code(),
              parallel.primary_status[c].code());
    ASSERT_TRUE(serial.reports[c].ok());
    ASSERT_TRUE(parallel.reports[c].ok());
    ExpectBitIdentical(serial.reports[c].value(), parallel.reports[c].value());
    EXPECT_EQ(serial.chains[c]->name(), parallel.chains[c]->name());
  }
}

TEST_F(GuardedSweepTest, InjectedBuildFaultsDegradeEveryCellToUniform) {
  const Dataset data = MakeData();
  const ExperimentSetup setup = MakeSmallSetup(data);
  const auto configs = ConfigsWithOneBroken();
  ScopedFault fault(kFaultPointEstimatorBuild);
  const GuardedSweep sweep = RunGuardedSweep(setup, configs, 1);
  for (size_t c = 0; c < configs.size(); ++c) {
    EXPECT_EQ(sweep.primary_status[c].code(), StatusCode::kInternal);
    // Uniform-only chains still score every query.
    ASSERT_TRUE(sweep.reports[c].ok());
    EXPECT_GT(sweep.reports[c]->evaluated, 0u);
    EXPECT_EQ(sweep.chains[c]->name(), "guarded(uniform)");
  }
}

// An `exec/task` fault armed on the middle cell's fan-out fails that cell
// alone, for guarded and plain builds alike; its neighbors score exactly
// as in a fault-free sweep. Cells are scored one fan-out after another and
// the exact counts pass no fault point, so the middle cell's chunks are the
// hits [per_cell, 2 * per_cell) at any thread count.
TEST_F(GuardedSweepTest, InjectedTaskFaultsSurfaceAsEvalErrors) {
  const Dataset data = MakeData();
  const ExperimentSetup setup = MakeSmallSetup(data);
  std::vector<EstimatorConfig> configs(3);
  configs[0].kind = EstimatorKind::kEquiWidth;
  configs[1].kind = EstimatorKind::kKernel;
  configs[2].kind = EstimatorKind::kEquiDepth;

  GuardedSweep guarded;
  const std::vector<ResolvedEstimator> guarded_chains =
      BuildGuarded(setup, configs, guarded);
  const std::vector<ResolvedEstimator> plain = BuildEstimators(setup, configs);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    const ParallelExecOptions options{threads};
    for (const auto* estimators : {&guarded_chains, &plain}) {
      const auto clean = RunSweep(setup, *estimators, options);
      size_t per_cell = 0;
      {
        FaultPlan count_only;
        count_only.count = 0;
        ScopedFault counting(kFaultPointExecTask, count_only);
        (void)RunSweep(setup, *estimators, options);
        per_cell = FaultInjector::HitCount(kFaultPointExecTask) / 3;
      }
      ASSERT_GT(per_cell, 0u);
      FaultPlan middle_cell;
      middle_cell.skip = per_cell;
      middle_cell.count = 1;
      ScopedFault fault(kFaultPointExecTask, middle_cell);
      const auto reports = RunSweep(setup, *estimators, options);
      ASSERT_EQ(reports.size(), 3u);
      ASSERT_FALSE(reports[1].ok()) << "threads=" << threads;
      EXPECT_EQ(reports[1].status().code(), StatusCode::kInternal);
      for (const size_t c : {size_t{0}, size_t{2}}) {
        ASSERT_TRUE(reports[c].ok()) << "threads=" << threads;
        ASSERT_TRUE(clean[c].ok());
        ExpectBitIdentical(reports[c].value(), clean[c].value());
      }
    }
  }
  for (const Status& primary : guarded.primary_status) {
    EXPECT_TRUE(primary.ok());
  }
}

TEST_F(GuardedSweepTest, EmptyConfigListAndEmptySampleDoNotCrash) {
  const Dataset data = MakeData();
  const ExperimentSetup setup = MakeSmallSetup(data);
  EXPECT_TRUE(RunGuardedSweep(setup, {}, 1).reports.empty());

  ExperimentSetup degenerate = setup;
  degenerate.sample.clear();
  std::vector<EstimatorConfig> configs(1);
  configs[0].kind = EstimatorKind::kKernel;
  const GuardedSweep sweep = RunGuardedSweep(degenerate, configs, 1);
  ASSERT_EQ(sweep.reports.size(), 1u);
  EXPECT_FALSE(sweep.primary_status[0].ok());
  ASSERT_TRUE(sweep.reports[0].ok());
  EXPECT_GT(sweep.reports[0]->evaluated, 0u);  // uniform still answers
}

}  // namespace
}  // namespace selest
