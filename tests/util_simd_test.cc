// The SIMD shim's scalar building blocks and dispatch machinery:
//
//   * BranchFreeLowerBound/BranchFreeUpperBound return exactly the
//     std::lower_bound/std::upper_bound index for every total-ordered
//     input (duplicates, all-equal runs, ±inf keys, out-of-range keys);
//   * AlignedVector storage really is kSimdAlign-aligned;
//   * tier detection, the SELEST_SIMD-independent tier tables, and the
//     ScopedSimdTier override stack behave as documented;
//   * the kernel_fringe op is bit-identical to the scalar fringe loop;
//   * the exactness policy constant is pinned at 0 ULP.
#include "src/util/simd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/density/kernel.h"
#include "src/util/random.h"

namespace selest {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void ExpectMatchesStd(const std::vector<double>& data, double key) {
  const size_t lb = BranchFreeLowerBound(data.data(), data.size(), key);
  const size_t ub = BranchFreeUpperBound(data.data(), data.size(), key);
  const size_t std_lb = static_cast<size_t>(
      std::lower_bound(data.begin(), data.end(), key) - data.begin());
  const size_t std_ub = static_cast<size_t>(
      std::upper_bound(data.begin(), data.end(), key) - data.begin());
  EXPECT_EQ(lb, std_lb) << "lower bound, n=" << data.size() << " key=" << key;
  EXPECT_EQ(ub, std_ub) << "upper bound, n=" << data.size() << " key=" << key;
}

TEST(BranchFreeSearchTest, MatchesStdOnRandomArrays) {
  Rng rng(7);
  for (size_t n = 0; n <= 70; ++n) {
    std::vector<double> data(n);
    for (double& v : data) {
      // Coarse grid so duplicate runs are common.
      v = std::floor(rng.NextDouble() * 16.0);
    }
    std::sort(data.begin(), data.end());
    for (int trial = 0; trial < 40; ++trial) {
      ExpectMatchesStd(data, std::floor(rng.NextDouble() * 20.0) - 2.0);
      ExpectMatchesStd(data, rng.NextDouble() * 20.0 - 2.0);
    }
    ExpectMatchesStd(data, -kInf);
    ExpectMatchesStd(data, kInf);
  }
}

TEST(BranchFreeSearchTest, MatchesStdOnLargeArrayAroundEveryValue) {
  Rng rng(11);
  std::vector<double> data(10000);
  for (double& v : data) v = std::floor(rng.NextDouble() * 300.0);
  std::sort(data.begin(), data.end());
  for (double key = -1.0; key <= 301.0; key += 1.0) {
    ExpectMatchesStd(data, key);
    ExpectMatchesStd(data, key + 0.5);
  }
}

TEST(BranchFreeSearchTest, AllEqualAndSingleton) {
  ExpectMatchesStd({}, 1.0);
  ExpectMatchesStd({5.0}, 4.0);
  ExpectMatchesStd({5.0}, 5.0);
  ExpectMatchesStd({5.0}, 6.0);
  std::vector<double> equal(37, 2.5);
  ExpectMatchesStd(equal, 2.0);
  ExpectMatchesStd(equal, 2.5);
  ExpectMatchesStd(equal, 3.0);
}

TEST(BranchFreeSearchTest, InfiniteEntries) {
  const std::vector<double> data = {-kInf, -kInf, 0.0, 1.0, kInf};
  for (double key : {-kInf, -1.0, 0.0, 0.5, 1.0, 2.0, kInf}) {
    ExpectMatchesStd(data, key);
  }
}

TEST(BranchFreeSearchTest, NanKeysMatchStd) {
  // A NaN key makes every `x < key` comparison false, so both std searches
  // stay well-defined: lower_bound returns 0 and upper_bound returns n.
  // The kernel estimator's fringe loops rely on the branch-free searches
  // reproducing exactly that (a lower index can never exceed an upper one).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(13);
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 7u, 37u, 1000u}) {
    std::vector<double> data(n);
    for (double& v : data) v = rng.NextDouble() * 100.0;
    std::sort(data.begin(), data.end());
    ExpectMatchesStd(data, nan);
    EXPECT_EQ(BranchFreeLowerBound(data.data(), n, nan), 0u);
    EXPECT_EQ(BranchFreeUpperBound(data.data(), n, nan), n);
  }
}

TEST(AlignedVectorTest, DataIsCacheLineAligned) {
  for (size_t n : {1u, 3u, 7u, 64u, 1000u}) {
    AlignedDoubles v(n, 0.0);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kSimdAlign, 0u)
        << "n=" << n;
  }
}

TEST(SimdDispatchTest, ExactnessPolicyIsBitIdentity) {
  // The identity suite (est_simd_identity_test) compares with EXPECT_EQ;
  // this constant documents — and pins — that the bound is 0 ULP.
  EXPECT_EQ(kSimdUlpTolerance, 0);
}

TEST(SimdDispatchTest, ScalarTierAlwaysSupportedAndTableLess) {
  EXPECT_TRUE(SimdTierSupported(SimdTier::kScalar));
  EXPECT_EQ(SimdOpsForTier(SimdTier::kScalar), nullptr);
}

TEST(SimdDispatchTest, ActiveTierIsSupportedAndConsistent) {
  const SimdTier tier = ActiveSimdTier();
  EXPECT_TRUE(SimdTierSupported(tier));
  const SimdOps* ops = ActiveSimdOps();
  if (tier == SimdTier::kScalar) {
    EXPECT_EQ(ops, nullptr);
  } else {
    ASSERT_NE(ops, nullptr);
    EXPECT_EQ(ops, SimdOpsForTier(tier));
  }
}

TEST(SimdDispatchTest, VectorTiersHaveDocumentedWidths) {
  if (const SimdOps* avx2 = SimdOpsForTier(SimdTier::kAvx2)) {
    EXPECT_EQ(avx2->width, 4);
    EXPECT_NE(avx2->histogram_block, nullptr);
    EXPECT_NE(avx2->sorted_count_block, nullptr);
    EXPECT_NE(avx2->kernel_fringe, nullptr);
  }
  if (const SimdOps* avx512 = SimdOpsForTier(SimdTier::kAvx512)) {
    EXPECT_EQ(avx512->width, 8);
    EXPECT_LE(avx512->width, kMaxSimdWidth);
    EXPECT_NE(avx512->histogram_block, nullptr);
    EXPECT_NE(avx512->sorted_count_block, nullptr);
    EXPECT_NE(avx512->kernel_fringe, nullptr);
  }
}

// The scalar reference loop of KernelEstimator::CdfSum (Epanechnikov).
double ScalarFringe(const std::vector<double>& sorted, size_t from, size_t to,
                    double a, double b, double h, double sum) {
  const Kernel kernel(KernelType::kEpanechnikov);
  for (size_t i = from; i != to; ++i) {
    sum += kernel.Cdf((b - sorted[i]) / h) - kernel.Cdf((a - sorted[i]) / h);
  }
  return sum;
}

// kernel_fringe against the scalar loop, bit for bit: random sorted strips,
// every `from` phase (unaligned loads), every tail length, queries wide and
// narrow against h, and a starting sum that is not zero.
TEST(KernelFringeTest, BitIdenticalToScalarLoopOnRandomStrips) {
  Rng rng(17);
  for (const SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512}) {
    const SimdOps* ops = SimdOpsForTier(tier);
    if (ops == nullptr) continue;
    for (int trial = 0; trial < 200; ++trial) {
      const size_t n = 1 + static_cast<size_t>(rng.NextDouble() * 90);
      std::vector<double> sorted(n);
      for (double& v : sorted) v = 100.0 * rng.NextDouble();
      std::sort(sorted.begin(), sorted.end());
      const double h = 0.5 + 20.0 * rng.NextDouble();
      const double x = 110.0 * rng.NextDouble() - 5.0;
      const double y = 110.0 * rng.NextDouble() - 5.0;
      const double a = std::min(x, y);
      const double b = trial % 3 == 0 ? a + 0.1 * h : std::max(x, y);
      const double start =
          trial % 2 == 0 ? 0.0 : std::floor(rng.NextDouble() * 50);
      for (size_t from = 0; from < std::min<size_t>(n, 9); ++from) {
        for (size_t to = from; to <= n; to += 1 + (to - from) / 4) {
          const double want = ScalarFringe(sorted, from, to, a, b, h, start);
          const double got =
              ops->kernel_fringe(sorted.data(), from, to, a, b, h, start);
          ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
              << SimdTierName(tier) << " n=" << n << " [" << from << ", "
              << to << ") a=" << a << " b=" << b << " h=" << h;
        }
      }
    }
  }
}

// The one-sided skips at their edges: b − x == h exactly (the quotient is
// exactly 1), a − x == −h exactly, blocks mixing skip-eligible and
// ineligible lanes, and NaN bounds, which must take the full path and
// reproduce the scalar NaN.
TEST(KernelFringeTest, SkipEdgesAndNanBoundsMatchScalar) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double h = 2.0;
  std::vector<double> sorted;
  for (int i = 0; i < 40; ++i) sorted.push_back(0.25 * i);  // exact grid
  for (const SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512}) {
    const SimdOps* ops = SimdOpsForTier(tier);
    if (ops == nullptr) continue;
    for (const auto& [a, b] : std::vector<std::pair<double, double>>{
             {0.0, 6.0}, {2.0, 4.0}, {1.0, 5.0}, {3.0, 3.5}, {-2.0, 12.0},
             {nan, 4.0}, {2.0, nan}, {nan, nan}}) {
      for (size_t from = 0; from < 8; ++from) {
        for (size_t to = from; to <= sorted.size(); ++to) {
          const double want = ScalarFringe(sorted, from, to, a, b, h, 3.0);
          const double got =
              ops->kernel_fringe(sorted.data(), from, to, a, b, h, 3.0);
          ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
              << SimdTierName(tier) << " [" << from << ", " << to
              << ") a=" << a << " b=" << b;
        }
      }
    }
  }
}

TEST(SimdDispatchTest, ScopedOverrideNestsAndRestores) {
  const SimdTier base = ActiveSimdTier();
  {
    ScopedSimdTier scalar(SimdTier::kScalar);
    EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);
    EXPECT_EQ(ActiveSimdOps(), nullptr);
    if (SimdTierSupported(SimdTier::kAvx2)) {
      ScopedSimdTier avx2(SimdTier::kAvx2);
      EXPECT_EQ(ActiveSimdTier(), SimdTier::kAvx2);
    }
    EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);
  }
  EXPECT_EQ(ActiveSimdTier(), base);
}

TEST(SimdDispatchTest, TierNamesAreStable) {
  EXPECT_STREQ(SimdTierName(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(SimdTierName(SimdTier::kAvx2), "avx2");
  EXPECT_STREQ(SimdTierName(SimdTier::kAvx512), "avx512");
}

}  // namespace
}  // namespace selest
