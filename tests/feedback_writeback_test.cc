// The feedback write-back path (DESIGN.md §14): executed-query truths fold
// into the serving catalog's estimators via clone-and-swap, persist across
// catalog restarts when the durable tier is on, are rejected for
// non-query-driven estimators, and route through guarded chains to every
// supporting link.
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/catalog/statistics_catalog.h"
#include "src/data/domain.h"
#include "src/est/estimator_factory.h"
#include "src/est/guarded_estimator.h"
#include "src/feedback/feedback_histogram.h"
#include "src/query/range_query.h"
#include "src/util/random.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 100.0);

std::string FreshDir(const std::string& name) {
  const std::string dir =
      testing::TempDir() + name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

// Default catalog options with a snapshot directory.
CatalogOptions InDirectory(const std::string& dir) {
  CatalogOptions options;
  options.snapshot_directory = dir;
  return options;
}

// A sample that concentrates on [0, 25] — the "stale" world. Feedback will
// teach the estimator that the data has since moved to [75, 100].
std::vector<double> StaleSample(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> sample(n);
  for (double& v : sample) v = 25.0 * rng.NextDouble();
  return sample;
}

TEST(FeedbackWritebackTest, ObservationsImproveTheServedEstimate) {
  Catalog catalog;  // memory-only tier
  EstimatorConfig config;
  config.kind = EstimatorKind::kFeedback;
  auto key = catalog.RegisterColumn("orders", "amount", kDomain,
                                    StaleSample(500, 1), config);
  ASSERT_TRUE(key.ok());
  const RangeQuery moved{75.0, 100.0};
  auto before = catalog.Estimate(*key, moved);
  ASSERT_TRUE(before.ok());
  EXPECT_LT(*before, 0.1);  // the stale sample has ~no mass there

  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(catalog.ObserveTrueSelectivity(*key, moved, 0.9).ok());
  }
  auto after = catalog.Estimate(*key, moved);
  ASSERT_TRUE(after.ok());
  EXPECT_NEAR(*after, 0.9, 0.05);

  const CatalogServeStats stats = catalog.serve_stats();
  EXPECT_EQ(stats.feedback_applied, 48u);
  EXPECT_EQ(stats.feedback_rejected, 0u);
}

TEST(FeedbackWritebackTest, RelationAttributeOverloadResolvesTheDefaultKey) {
  Catalog catalog;
  EstimatorConfig config;
  config.kind = EstimatorKind::kOnlineLearning;
  ASSERT_TRUE(catalog
                  .RegisterColumn("orders", "amount", kDomain,
                                  StaleSample(500, 2), config)
                  .ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(catalog
                    .ObserveTrueSelectivity("orders", "amount",
                                            {75.0, 100.0}, 0.9)
                    .ok());
  }
  auto estimate = catalog.Estimate("orders", "amount", {75.0, 100.0});
  ASSERT_TRUE(estimate.ok());
  EXPECT_GT(*estimate, 0.5);
  EXPECT_FALSE(catalog
                   .ObserveTrueSelectivity("orders", "nope", {1.0, 2.0}, 0.5)
                   .ok());
}

TEST(FeedbackWritebackTest, NonFeedbackEstimatorRejectsWithFailedPrecondition) {
  Catalog catalog;
  EstimatorConfig config;
  config.kind = EstimatorKind::kEquiWidth;
  auto key = catalog.RegisterColumn("orders", "amount", kDomain,
                                    StaleSample(500, 3), config);
  ASSERT_TRUE(key.ok());
  const Status status =
      catalog.ObserveTrueSelectivity(*key, {10.0, 20.0}, 0.5);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(catalog.serve_stats().feedback_rejected, 1u);
  EXPECT_EQ(catalog.serve_stats().feedback_applied, 0u);
}

TEST(FeedbackWritebackTest, InvalidFeedbackValuesDoNotReachTheCatalogEntry) {
  Catalog catalog;
  EstimatorConfig config;
  config.kind = EstimatorKind::kFeedback;
  auto key = catalog.RegisterColumn("orders", "amount", kDomain,
                                    StaleSample(500, 4), config);
  ASSERT_TRUE(key.ok());
  EXPECT_FALSE(catalog
                   .ObserveTrueSelectivity(
                       *key, {10.0, 20.0},
                       std::numeric_limits<double>::quiet_NaN())
                   .ok());
  EXPECT_FALSE(
      catalog.ObserveTrueSelectivity(*key, {10.0, 20.0}, 1.5).ok());
  EXPECT_EQ(catalog.serve_stats().feedback_applied, 0u);
}

TEST(FeedbackWritebackTest, LearnedStatePersistsAcrossCatalogRestart) {
  const std::string dir = FreshDir("selest_feedback_writeback");
  EstimatorConfig config;
  config.kind = EstimatorKind::kFeedback;
  const RangeQuery moved{75.0, 100.0};
  CatalogKey key;
  {
    Catalog catalog(InDirectory(dir));
    auto registered = catalog.RegisterColumn("orders", "amount", kDomain,
                                             StaleSample(500, 5), config);
    ASSERT_TRUE(registered.ok());
    key = *registered;
    for (int i = 0; i < 48; ++i) {
      ASSERT_TRUE(catalog.ObserveTrueSelectivity(key, moved, 0.9).ok());
    }
    // Every write-back re-persisted the snapshot.
    EXPECT_GE(catalog.serve_stats().writebacks, 48u);
  }
  // A fresh catalog over the same durable tier serves the learned state —
  // NOT a rebuild from the stale sample.
  Catalog reopened(InDirectory(dir));
  ASSERT_TRUE(reopened
                  .RegisterColumn("orders", "amount", kDomain,
                                  StaleSample(500, 5), config)
                  .ok());
  auto estimate = reopened.Estimate(key, moved);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate, 0.9, 0.05);
  EXPECT_EQ(reopened.serve_stats().snapshot_loads, 1u);
  EXPECT_EQ(reopened.serve_stats().rebuilds, 0u);
}

TEST(FeedbackWritebackTest, GuardedChainForwardsToEverySupportingLink) {
  // Chain: non-feedback primary + two query-driven fallbacks. Feedback must
  // reach both fallbacks (each counts its own observation) and the guard
  // must count one accepted observation per call.
  std::vector<std::unique_ptr<SelectivityEstimator>> chain;
  EstimatorConfig equi;
  equi.kind = EstimatorKind::kEquiWidth;
  auto primary = BuildEstimator(StaleSample(200, 6), kDomain, equi);
  ASSERT_TRUE(primary.ok());
  chain.push_back(std::move(*primary));
  auto histogram = FeedbackHistogram::Create(kDomain, {});
  ASSERT_TRUE(histogram.ok());
  chain.push_back(std::make_unique<FeedbackHistogram>(std::move(*histogram)));
  auto histogram2 = FeedbackHistogram::Create(kDomain, {});
  ASSERT_TRUE(histogram2.ok());
  chain.push_back(
      std::make_unique<FeedbackHistogram>(std::move(*histogram2)));
  GuardedEstimator guarded(std::move(chain), kDomain);
  ASSERT_TRUE(guarded.SupportsFeedback());

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        guarded.ObserveTrueSelectivity({10.0, 30.0}, 0.8).ok());
  }
  EXPECT_EQ(guarded.feedback_observations(), 5u);

  // Feedback queries are repaired like estimate queries: inverted bounds
  // swap, NaN widens to the domain edge — the observation still lands.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(guarded.ObserveTrueSelectivity({30.0, 10.0}, 0.8).ok());
  ASSERT_TRUE(guarded.ObserveTrueSelectivity({nan, 30.0}, 0.4).ok());
  EXPECT_EQ(guarded.feedback_observations(), 7u);
}

TEST(FeedbackWritebackTest, GuardedChainWithoutFeedbackLinksRejects) {
  std::vector<std::unique_ptr<SelectivityEstimator>> chain;
  EstimatorConfig equi;
  equi.kind = EstimatorKind::kEquiWidth;
  auto primary = BuildEstimator(StaleSample(200, 7), kDomain, equi);
  ASSERT_TRUE(primary.ok());
  chain.push_back(std::move(*primary));
  GuardedEstimator guarded(std::move(chain), kDomain);
  EXPECT_FALSE(guarded.SupportsFeedback());
  const Status status = guarded.ObserveTrueSelectivity({10.0, 30.0}, 0.5);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(guarded.feedback_observations(), 0u);
}

}  // namespace
}  // namespace selest
