// Golden regression tests for the paper's headline numbers.
//
// These pin the figures the repo reproduces to the values the current
// implementation produces with the documented seeds, with tolerances wide
// enough to absorb legitimate refactors (an order-of-evaluation change in
// a reduction) but tight enough to catch a broken estimator. Each golden
// value below was measured from the corresponding bench binary; the paper
// reference is quoted alongside.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/est/kernel_estimator.h"
#include "src/eval/metrics.h"
#include "src/eval/paper_data.h"
#include "src/eval/parallel_experiment.h"
#include "src/query/ground_truth.h"
#include "src/query/workload.h"
#include "src/sample/sampler.h"
#include "src/smoothing/normal_scale.h"

namespace selest {
namespace {

// Fig. 3 — boundary underestimation of the untreated kernel estimator on
// uniform data. Protocol of bench_fig03_boundary_error: u(20) at data seed
// 42, a 2,000-record sample at Rng(2025), normal-scale bandwidth, no
// boundary correction, 1% queries swept across 201 positions.
//
// Golden: max |error| within one bandwidth of a boundary = 548 records
// (paper reports "up to ~500" for |Q| = 1000); tolerance ±10%. Mid-domain
// error stays a fraction of the boundary spike.
TEST(GoldenFiguresTest, Fig3BoundarySpikeMagnitude) {
  auto data = MakePaperDataset("u(20)");
  ASSERT_TRUE(data.ok());
  Rng rng(2025);
  const std::vector<double> sample =
      SampleWithoutReplacement(data->values(), 2000, rng);

  KernelEstimatorOptions options;
  options.boundary = BoundaryPolicy::kNone;
  options.bandwidth = NormalScaleBandwidth(sample, data->domain());
  auto estimator = KernelEstimator::Create(sample, data->domain(), options);
  ASSERT_TRUE(estimator.ok());

  const auto queries = GeneratePositionSweep(*data, 0.01, 201);
  const GroundTruth truth(*data);
  const auto errors = EvaluateByPosition(*estimator, queries, truth);
  ASSERT_EQ(errors.size(), queries.size());

  double boundary_max = 0.0;
  double center_max = 0.0;
  const double h = options.bandwidth;
  for (const auto& e : errors) {
    const bool near_boundary = e.position - data->domain().lo < h ||
                               data->domain().hi - e.position < h;
    double& bucket = near_boundary ? boundary_max : center_max;
    bucket = std::max(bucket, std::fabs(e.signed_error));
  }
  EXPECT_GE(boundary_max, 493.0);  // 548 − 10%
  EXPECT_LE(boundary_max, 603.0);  // 548 + 10%
  // The defect is *localized*: mid-domain error is far below the spike.
  EXPECT_LT(center_max, 0.5 * boundary_max);
}

// Fig. 12 — final ranking of the most promising estimators on 1% queries
// at protocol seed 17 (bench_fig12_estimator_comparison). Golden MREs:
//
//   n(20):   EWH 8.8%, Kernel 4.2%, Hybrid 9.3%  → kernel wins (smooth)
//   rr2(22): EWH 44.6%, Kernel 32.0%, Hybrid 19.9% → hybrid wins (rough)
//
// The test asserts the *ranking* (the paper's §5.2.6 conclusion) plus a
// loose ±50%-relative band on each MRE so a silently broken estimator
// cannot hide behind a preserved ordering.
struct Fig12Golden {
  const char* file;
  double ewh_mre;
  double kernel_mre;
  double hybrid_mre;
  bool kernel_beats_hybrid;  // smooth data: true; rough spatial: false
};

TEST(GoldenFiguresTest, Fig12RankingAndMagnitudes) {
  EstimatorConfig ewh;
  ewh.kind = EstimatorKind::kEquiWidth;
  EstimatorConfig kernel;
  kernel.kind = EstimatorKind::kKernel;
  kernel.smoothing = SmoothingRule::kDirectPlugIn;
  kernel.boundary = BoundaryPolicy::kBoundaryKernel;
  EstimatorConfig hybrid;
  hybrid.kind = EstimatorKind::kHybrid;
  hybrid.boundary = BoundaryPolicy::kBoundaryKernel;
  const std::vector<EstimatorConfig> configs{ewh, kernel, hybrid};

  const Fig12Golden goldens[] = {
      {"n(20)", 0.088, 0.042, 0.093, /*kernel_beats_hybrid=*/true},
      {"rr2(22)", 0.446, 0.320, 0.199, /*kernel_beats_hybrid=*/false},
  };
  for (const Fig12Golden& golden : goldens) {
    auto data = MakePaperDataset(golden.file);
    ASSERT_TRUE(data.ok()) << golden.file;
    ProtocolConfig protocol;
    protocol.seed = 17;
    const ExperimentSetup setup = MakeSetup(*data, protocol);
    const auto reports = RunSweep(setup, BuildEstimators(setup, configs));
    ASSERT_EQ(reports.size(), 3u);
    for (const auto& report : reports) ASSERT_TRUE(report.ok());
    const double ewh_mre = reports[0].value().mean_relative_error;
    const double kernel_mre = reports[1].value().mean_relative_error;
    const double hybrid_mre = reports[2].value().mean_relative_error;

    EXPECT_NEAR(ewh_mre, golden.ewh_mre, 0.5 * golden.ewh_mre)
        << golden.file;
    EXPECT_NEAR(kernel_mre, golden.kernel_mre, 0.5 * golden.kernel_mre)
        << golden.file;
    EXPECT_NEAR(hybrid_mre, golden.hybrid_mre, 0.5 * golden.hybrid_mre)
        << golden.file;
    // Kernel beats the equi-width histogram everywhere in Fig. 12, and
    // the kernel/hybrid order encodes the paper's headline conclusion:
    // smooth synthetic data favors the kernel estimator, rough spatial
    // data flips the order to the hybrid (§5.2.6).
    EXPECT_LT(kernel_mre, ewh_mre) << golden.file;
    if (golden.kernel_beats_hybrid) {
      EXPECT_LT(kernel_mre, hybrid_mre) << golden.file;
    } else {
      EXPECT_LT(hybrid_mre, kernel_mre) << golden.file;
    }
  }
}

// Table 2 — distinct-value counts of the generated data files at the
// default data seed 42. Exact golden values (bench_table2_datafiles): the
// generators are fully deterministic, so these are equality assertions —
// any drift means the data files changed and every figure is suspect.
TEST(GoldenFiguresTest, Table2DistinctCountsAreExact) {
  struct Golden {
    const char* file;
    size_t records;
    size_t distinct;
  };
  const Golden goldens[] = {
      {"n(10)", 100000, 881},
      {"n(20)", 100000, 90006},
      {"rr1(12)", 257942, 4096},
  };
  for (const Golden& golden : goldens) {
    auto data = MakePaperDataset(golden.file);
    ASSERT_TRUE(data.ok()) << golden.file;
    EXPECT_EQ(data->size(), golden.records) << golden.file;
    EXPECT_EQ(data->CountDistinct(), golden.distinct) << golden.file;
  }
}

}  // namespace
}  // namespace selest
