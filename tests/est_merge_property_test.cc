// Property tests for the incremental-maintenance (fold) contract on
// SelectivityEstimator: the union law FoldRows(B) on Build(A) ≈
// Build(A ∪ B) — exact for count-based sketches (equi-width bins, sorted
// samples), bounded for the equi-depth quantile re-interpolation — plus
// the identities (fold-empty, self-fold) and the non-mergeable error.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/domain.h"
#include "src/est/estimator_factory.h"
#include "src/est/selectivity_estimator.h"
#include "src/query/range_query.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 1000.0);

std::vector<double> MakeRows(size_t n, uint64_t seed, double center,
                             double spread) {
  Rng rng(seed);
  std::vector<double> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(kDomain.Clamp(center + spread * rng.NextGaussian()));
  }
  return rows;
}

std::vector<double> Union(const std::vector<double>& a,
                          const std::vector<double>& b) {
  std::vector<double> all = a;
  all.insert(all.end(), b.begin(), b.end());
  return all;
}

std::vector<RangeQuery> ProbeQueries() {
  std::vector<RangeQuery> queries;
  // A sweep of widths and positions, including degenerate and full-range.
  for (int i = 0; i < 20; ++i) {
    const double a = kDomain.lo + 47.0 * static_cast<double>(i);
    queries.push_back({a, a + 30.0 + 11.0 * static_cast<double>(i)});
  }
  queries.push_back({kDomain.lo, kDomain.hi});
  queries.push_back({500.0, 500.0});
  return queries;
}

EstimatorConfig FixedBinsConfig(EstimatorKind kind, int bins) {
  EstimatorConfig config;
  config.kind = kind;
  config.smoothing = SmoothingRule::kFixed;
  config.fixed_smoothing = bins;
  return config;
}

std::unique_ptr<SelectivityEstimator> MustBuild(
    std::span<const double> rows, const EstimatorConfig& config) {
  auto built = BuildEstimator(rows, kDomain, config);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// Folds `rows` into Build(base) and expects every probe to equal
// Build(base ∪ rows) bit for bit.
void ExpectExactFold(const std::vector<double>& base,
                     const std::vector<double>& rows,
                     const EstimatorConfig& config) {
  auto folded = MustBuild(base, config);
  ASSERT_TRUE(folded->SupportsMerge());
  ASSERT_TRUE(folded->FoldRows(rows).ok());
  auto whole = MustBuild(Union(base, rows), config);
  for (const RangeQuery& query : ProbeQueries()) {
    EXPECT_EQ(folded->EstimateSelectivity(query),
              whole->EstimateSelectivity(query))
        << "query [" << query.a << ", " << query.b << "]";
  }
}

// Folds `rows` into Build(base) and expects every probe within one bin of
// Build(base ∪ rows): the folded CDF is exact at union edges and linear
// between them (DESIGN.md §10).
void ExpectBoundedFold(const std::vector<double>& base,
                       const std::vector<double>& rows, int bins) {
  const EstimatorConfig config =
      FixedBinsConfig(EstimatorKind::kEquiDepth, bins);
  auto folded = MustBuild(base, config);
  ASSERT_TRUE(folded->SupportsMerge());
  ASSERT_TRUE(folded->FoldRows(rows).ok());
  auto whole = MustBuild(Union(base, rows), config);
  for (const RangeQuery& query : ProbeQueries()) {
    const double f = folded->EstimateSelectivity(query);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    EXPECT_NEAR(f, whole->EstimateSelectivity(query),
                1.0 / static_cast<double>(bins))
        << "query [" << query.a << ", " << query.b << "]";
  }
}

// --- Exact union law: equi-width (bin counts add) -------------------------

TEST(MergePropertyTest, EquiWidthFoldRowsIsExact) {
  ExpectExactFold(MakeRows(1000, 3, 450.0, 120.0),
                  MakeRows(700, 4, 200.0, 60.0),
                  FixedBinsConfig(EstimatorKind::kEquiWidth, 24));
  // A second population on the other side of the domain.
  ExpectExactFold(MakeRows(1500, 1, 300.0, 90.0),
                  MakeRows(900, 2, 700.0, 50.0),
                  FixedBinsConfig(EstimatorKind::kEquiWidth, 32));
}

// --- Exact union law: sampling (sorted multisets concatenate) -------------

TEST(MergePropertyTest, SamplingMergeAndFoldAreExact) {
  EstimatorConfig config;
  config.kind = EstimatorKind::kSampling;
  ExpectExactFold(MakeRows(800, 5, 350.0, 100.0),
                  MakeRows(600, 6, 650.0, 80.0), config);
}

// --- Bounded drift: equi-depth quantile re-interpolation ------------------

TEST(MergePropertyTest, EquiDepthFoldRowsHasBoundedDrift) {
  ExpectBoundedFold(MakeRows(2000, 9, 500.0, 150.0),
                    MakeRows(500, 10, 250.0, 70.0), 16);
  // Equal-sized halves of two overlapping populations.
  ExpectBoundedFold(MakeRows(2000, 7, 400.0, 130.0),
                    MakeRows(2000, 8, 600.0, 110.0), 16);
}

// --- Identities -----------------------------------------------------------

TEST(MergePropertyTest, FoldOfEmptySpanIsIdentity) {
  for (const EstimatorKind kind :
       {EstimatorKind::kEquiWidth, EstimatorKind::kEquiDepth,
        EstimatorKind::kSampling}) {
    const EstimatorConfig config = FixedBinsConfig(kind, 16);
    const std::vector<double> a = MakeRows(600, 11, 480.0, 100.0);
    auto folded = MustBuild(a, config);
    auto reference = MustBuild(a, config);
    ASSERT_TRUE(folded->FoldRows(std::span<const double>()).ok());
    for (const RangeQuery& query : ProbeQueries()) {
      EXPECT_EQ(folded->EstimateSelectivity(query),
                reference->EstimateSelectivity(query));
    }
  }
}

TEST(MergePropertyTest, SelfMergePreservesSelectivities) {
  // Folding a sample into its own build doubles every count, scaling mass
  // and total alike: σ is unchanged exactly for the count-based sketches.
  for (const EstimatorKind kind :
       {EstimatorKind::kEquiWidth, EstimatorKind::kSampling}) {
    const EstimatorConfig config = FixedBinsConfig(kind, 20);
    const std::vector<double> a = MakeRows(700, 12, 520.0, 140.0);
    auto doubled = MustBuild(a, config);
    auto reference = MustBuild(a, config);
    ASSERT_TRUE(doubled->FoldRows(a).ok());
    for (const RangeQuery& query : ProbeQueries()) {
      EXPECT_EQ(doubled->EstimateSelectivity(query),
                reference->EstimateSelectivity(query));
    }
  }
}

// --- Error paths ----------------------------------------------------------

TEST(MergePropertyTest, NonMergeableEstimatorRejectsMutators) {
  const std::vector<double> a = MakeRows(300, 15, 500.0, 100.0);
  EstimatorConfig config;
  config.kind = EstimatorKind::kKernel;
  auto kernel = MustBuild(a, config);
  EXPECT_FALSE(kernel->SupportsMerge());
  EXPECT_EQ(kernel->FoldRows(a).code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace selest
