// SIMD-vs-scalar bit-identity property suite (the exactness policy of
// DESIGN.md §12 and util/simd.h).
//
// The scalar tier (ScopedSimdTier(kScalar)) is the reference. For every
// estimator the factory can build — the 11 EstimatorKind values plus the
// guarded chain — and for every vector tier this host supports, both
// EstimateSelectivityBatch and single-query EstimateSelectivity must
// return *bit-identical* values to it: batch sizes {1, 7, 64, 4096},
// misaligned query subspans, partial tail blocks, and a query mix
// including inverted, degenerate, out-of-domain, boundary-hugging, narrow,
// and non-finite bounds. The kernel fringe scan gets its own edge cases
// (every fringe length up to 2·width+1, b − x == h exactly, the
// wide/narrow switch at b − a == 2h, queries inside a boundary strip), and
// the catalog's kernel and hybrid line-up over the eight headline files is
// pinned by a digest of its result bits. Bitwise comparison throughout — a
// 0 ULP bound (kSimdUlpTolerance), so the golden-figure pins can never
// drift with the host's SIMD tier.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/est/estimator_factory.h"
#include "src/est/hybrid_estimator.h"
#include "src/est/kernel_estimator.h"
#include "src/eval/paper_data.h"
#include "src/query/range_query.h"
#include "src/query/workload.h"
#include "src/sample/sampler.h"
#include "src/util/random.h"
#include "src/util/simd.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 100.0);

std::vector<double> MixtureSample(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> sample;
  sample.reserve(n);
  while (sample.size() < n) {
    const double u = rng.NextDouble();
    double x;
    if (u < 0.35) {
      x = 20.0 + 7.0 * (rng.NextDouble() + rng.NextDouble() - 1.0);
    } else if (u < 0.7) {
      x = 75.0 + 4.0 * (rng.NextDouble() + rng.NextDouble() - 1.0);
    } else if (u < 0.85) {
      x = 42.0;  // heavy duplication: atom bins in the quantile histograms
    } else {
      x = 100.0 * rng.NextDouble();
    }
    if (x >= kDomain.lo && x <= kDomain.hi) sample.push_back(x);
  }
  return sample;
}

// Adversarial query mix: every scalar control-flow case, including the
// before-clamp early returns and non-finite bounds.
std::vector<RangeQuery> MakeQueries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<RangeQuery> queries(n);
  const double lo = kDomain.lo, w = kDomain.width();
  for (size_t i = 0; i < n; ++i) {
    const double x = lo + w * (1.4 * rng.NextDouble() - 0.2);
    const double y = lo + w * (1.4 * rng.NextDouble() - 0.2);
    RangeQuery& q = queries[i];
    switch (i % 8) {
      case 0:  // regular (possibly partially out of domain)
        q = {std::min(x, y), std::max(x, y)};
        break;
      case 1:  // inverted: a > b
        q = {std::max(x, y) + 1.0, std::min(x, y)};
        break;
      case 2:  // degenerate point query
        q = {x, x};
        break;
      case 3:  // narrow: forces the kernel CdfSum narrow case
        q = {x, x + 1e-3 * w * rng.NextDouble()};
        break;
      case 4:  // covers the whole domain
        q = {lo - w, lo + 2.0 * w};
        break;
      case 5:  // hugs the left boundary strip
        q = {lo - 0.1 * w, lo + 0.05 * w * rng.NextDouble()};
        break;
      case 6:  // hugs the right boundary strip
        q = {lo + w * (1.0 - 0.05 * rng.NextDouble()), lo + 1.1 * w};
        break;
      default:  // regular, in-domain
        q = {lo + 0.9 * w * std::min(rng.NextDouble(), rng.NextDouble()),
             lo + 0.9 * w * std::max(rng.NextDouble(), rng.NextDouble())};
        break;
    }
  }
  // Non-finite bounds exercise the vector kernels' bail-to-scalar path.
  if (n >= 64) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    queries[10] = {nan, 50.0};
    queries[21] = {10.0, nan};
    queries[32] = {-inf, 50.0};
    queries[43] = {10.0, inf};
    queries[54] = {-inf, inf};
  }
  return queries;
}

std::vector<SimdTier> SupportedVectorTiers() {
  std::vector<SimdTier> tiers;
  for (SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512}) {
    if (SimdTierSupported(tier) && SimdOpsForTier(tier) != nullptr) {
      tiers.push_back(tier);
    }
  }
  return tiers;
}

const size_t kBatchSizes[] = {1, 7, 64, 4096};

// Bitwise, not ==: NaN answers (from NaN query bounds) must also reproduce
// exactly, and == would reject them.
::testing::AssertionResult SameBits(double got, double want) {
  if (std::bit_cast<uint64_t>(got) == std::bit_cast<uint64_t>(want)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "got=" << got << " want=" << want;
}

// The scalar tier's single-query estimates are the reference. Checks the
// batch API under the scalar tier, and under every supported vector tier
// single queries, the full span and a misaligned subspan (offset 1 — every
// block boundary shifts, so tails and replication padding are exercised at
// a different phase).
void ExpectBitIdentical(const SelectivityEstimator& est,
                        std::span<const RangeQuery> queries,
                        const std::string& label) {
  std::vector<double> reference(queries.size());
  {
    ScopedSimdTier scalar(SimdTier::kScalar);
    for (size_t i = 0; i < queries.size(); ++i) {
      reference[i] = est.EstimateSelectivity(queries[i]);
    }
  }
  const auto check_span = [&](std::span<const RangeQuery> span,
                              std::span<const double> want,
                              const char* what) {
    std::vector<double> got(span.size(), -1.0);
    est.EstimateSelectivityBatch(span, got);
    for (size_t i = 0; i < span.size(); ++i) {
      EXPECT_TRUE(SameBits(got[i], want[i]))
          << label << " tier=" << SimdTierName(ActiveSimdTier()) << " "
          << what << " n=" << span.size() << " query " << i << " ["
          << span[i].a << ", " << span[i].b << "]";
    }
  };

  {
    ScopedSimdTier scalar(SimdTier::kScalar);
    check_span(queries, reference, "scalar-tier batch");
  }
  for (const SimdTier tier : SupportedVectorTiers()) {
    ScopedSimdTier scoped(tier);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(SameBits(est.EstimateSelectivity(queries[i]), reference[i]))
          << label << " tier=" << SimdTierName(tier) << " single query " << i
          << " [" << queries[i].a << ", " << queries[i].b << "]";
    }
    check_span(queries, reference, "full span");
    if (queries.size() > 1) {
      check_span(queries.subspan(1),
                 std::span<const double>(reference).subspan(1),
                 "misaligned subspan");
    }
  }
}

void ExpectBatchBitIdentical(const SelectivityEstimator& est,
                             const std::string& label) {
  for (const size_t size : kBatchSizes) {
    ExpectBitIdentical(est, MakeQueries(size, 1000 + size), label);
  }
}

class SimdIdentityTest : public ::testing::TestWithParam<EstimatorKind> {};

TEST_P(SimdIdentityTest, BatchBitIdenticalAcrossTiers) {
  if (SupportedVectorTiers().empty()) {
    GTEST_SKIP() << "host has no vector tier; scalar path is the reference";
  }
  static const std::vector<double>* sample =
      new std::vector<double>(MixtureSample(2000, 77));
  EstimatorConfig config;
  config.kind = GetParam();
  auto est = BuildEstimator(*sample, kDomain, config);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  ExpectBatchBitIdentical(**est, (*est)->name());
}

const EstimatorKind kAllKinds[] = {
    EstimatorKind::kSampling,   EstimatorKind::kUniform,
    EstimatorKind::kEquiWidth,  EstimatorKind::kEquiDepth,
    EstimatorKind::kMaxDiff,    EstimatorKind::kAverageShifted,
    EstimatorKind::kKernel,     EstimatorKind::kHybrid,
    EstimatorKind::kVOptimal,   EstimatorKind::kAdaptiveKernel,
    EstimatorKind::kWavelet,    EstimatorKind::kFeedback,
    EstimatorKind::kReconstructed, EstimatorKind::kOnlineLearning,
};

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SimdIdentityTest, ::testing::ValuesIn(kAllKinds),
    [](const ::testing::TestParamInfo<EstimatorKind>& info) {
      std::string name = EstimatorKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The 12th estimator type: the guarded chain (bit-transparent over its
// primary when healthy, so it must stay bit-identical too).
TEST(SimdIdentityGuardedTest, GuardedChainBatchBitIdentical) {
  if (SupportedVectorTiers().empty()) {
    GTEST_SKIP() << "host has no vector tier; scalar path is the reference";
  }
  const auto sample = MixtureSample(2000, 78);
  EstimatorConfig config;
  config.kind = EstimatorKind::kKernel;
  auto guarded = BuildGuardedEstimator(sample, kDomain, config);
  ASSERT_TRUE(guarded.ok()) << guarded.status().ToString();
  ASSERT_FALSE(guarded->degraded());
  ExpectBatchBitIdentical(*guarded->estimator, "guarded(kernel)");
}

// The kernel estimator's three boundary policies each reach the fringe
// scan differently (plain CdfSum, reflected sample strip, strip tables +
// interior); cover them all explicitly on top of the factory defaults.
TEST(SimdIdentityKernelBoundaryTest, AllBoundaryPoliciesBitIdentical) {
  if (SupportedVectorTiers().empty()) {
    GTEST_SKIP() << "host has no vector tier; scalar path is the reference";
  }
  const auto sample = MixtureSample(1500, 79);
  for (const BoundaryPolicy policy :
       {BoundaryPolicy::kNone, BoundaryPolicy::kReflection,
        BoundaryPolicy::kBoundaryKernel}) {
    KernelEstimatorOptions options;
    options.bandwidth = 2.5;
    options.boundary = policy;
    auto est = KernelEstimator::Create(sample, kDomain, options);
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    ExpectBatchBitIdentical(*est, est->name());
  }
}

// Non-Epanechnikov kernels have no vector path; the batch API must still
// answer (scalar fallback) and still match per-query exactly.
TEST(SimdIdentityKernelBoundaryTest, NonEpanechnikovFallsBackCleanly) {
  const auto sample = MixtureSample(800, 80);
  KernelEstimatorOptions options;
  options.bandwidth = 2.5;
  options.kernel = Kernel(KernelType::kBiweight);
  options.boundary = BoundaryPolicy::kNone;
  auto est = KernelEstimator::Create(sample, kDomain, options);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  ExpectBatchBitIdentical(*est, est->name());
}

// --- The kernel fringe scan's edge cases ---

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

KernelEstimator MakeKernel(const std::vector<double>& sample, double h,
                           BoundaryPolicy policy) {
  KernelEstimatorOptions options;
  options.bandwidth = h;
  options.boundary = policy;
  auto est = KernelEstimator::Create(sample, kDomain, options);
  EXPECT_TRUE(est.ok()) << est.status().ToString();
  return std::move(est).value();
}

// Every fringe length from 0 to 2·kMaxSimdWidth + 1 — no full block, one
// block plus every tail, two blocks plus one — in the left fringe, the
// right fringe and a narrow query's single scan.
TEST(SimdIdentityKernelFringeTest, EveryFringeLengthUpToTwoBlocksPlusOne) {
  if (SupportedVectorTiers().empty()) {
    GTEST_SKIP() << "host has no vector tier; scalar path is the reference";
  }
  const double h = 1.0;
  for (int len = 0; len <= 2 * kMaxSimdWidth + 1; ++len) {
    // Fringe samples of [50, 60] lie in [49, 51) and (59, 61]; a few
    // samples elsewhere keep the fully-covered count and the far tails
    // non-empty.
    std::vector<double> sample = {10.0, 20.0, 55.0, 80.0, 90.0};
    for (int j = 0; j < len; ++j) {
      const double offset = 2.0 * (j + 0.5) / (len + 1);
      sample.push_back(49.0 + offset);
      sample.push_back(59.0 + offset);
    }
    const KernelEstimator est = MakeKernel(sample, h, BoundaryPolicy::kNone);
    const std::vector<RangeQuery> queries = {
        {50.0, 60.0}, {50.0, 50.5}, {49.25, 60.75}, {48.0, 62.0}};
    ExpectBitIdentical(est, queries, "fringe length " + std::to_string(len));
  }
}

// The skip tests at equality: b − x == h and a − x == −h exactly (the
// quotient is exactly ±1), and the wide/narrow switch at b − a == 2h, on
// both sides of it.
TEST(SimdIdentityKernelFringeTest, ExactBandwidthEdges) {
  if (SupportedVectorTiers().empty()) {
    GTEST_SKIP() << "host has no vector tier; scalar path is the reference";
  }
  const double h = 2.0;
  std::vector<double> sample;
  for (int i = 0; i <= 400; ++i) sample.push_back(0.25 * i);  // exact grid
  for (const BoundaryPolicy policy :
       {BoundaryPolicy::kNone, BoundaryPolicy::kReflection,
        BoundaryPolicy::kBoundaryKernel}) {
    const KernelEstimator est = MakeKernel(sample, h, policy);
    std::vector<RangeQuery> queries;
    for (double a = 20.0; a < 24.0; a += 0.25) {
      queries.push_back({a, a + 2.0 * h});  // b − a == 2h exactly
      queries.push_back({a, std::nextafter(a + 2.0 * h, 0.0)});  // narrow
      queries.push_back({a, std::nextafter(a + 2.0 * h, kInf)});  // wide
      queries.push_back({a, a + h});      // b − x == h for x == a
      queries.push_back({a, a + 10.0});   // a − x == −h for x == a + h
      queries.push_back({a + 0.125, a + 7.875});  // no sample at ±h
    }
    ExpectBitIdentical(est, queries, est.name());
  }
}

// Queries inside, straddling and spanning the boundary strips, where the
// interior CdfSum is empty, partial or both-sided.
TEST(SimdIdentityKernelFringeTest, QueriesInsideBoundaryStrips) {
  if (SupportedVectorTiers().empty()) {
    GTEST_SKIP() << "host has no vector tier; scalar path is the reference";
  }
  const KernelEstimator est = MakeKernel(MixtureSample(1500, 81), 5.0,
                                         BoundaryPolicy::kBoundaryKernel);
  const std::vector<RangeQuery> queries = {
      {0.0, 5.0},   {1.0, 3.0},   {0.5, 4.99}, {2.0, 8.0},  {4.0, 6.0},
      {5.0, 10.0},  {96.0, 99.0}, {95.0, 100.0}, {92.0, 97.0}, {94.0, 96.0},
      {3.0, 97.0},  {0.0, 100.0}, {-5.0, 2.0}, {98.0, 120.0}};
  ExpectBitIdentical(est, queries, est.name());
}

// Non-finite bounds: ±inf clamps to the domain, NaN survives the clamp and
// runs the fringe scan, which must reproduce the scalar NaN bit for bit.
TEST(SimdIdentityKernelFringeTest, NonFiniteBounds) {
  if (SupportedVectorTiers().empty()) {
    GTEST_SKIP() << "host has no vector tier; scalar path is the reference";
  }
  const std::vector<RangeQuery> queries = {
      {-kInf, 50.0}, {50.0, kInf},  {-kInf, kInf}, {kInf, kInf},
      {-kInf, -kInf}, {kNan, 50.0}, {10.0, kNan},  {kNan, kNan},
      {kNan, kInf},  {-kInf, kNan}};
  const auto sample = MixtureSample(1500, 82);
  for (const BoundaryPolicy policy :
       {BoundaryPolicy::kNone, BoundaryPolicy::kReflection,
        BoundaryPolicy::kBoundaryKernel}) {
    const KernelEstimator est = MakeKernel(sample, 2.5, policy);
    ExpectBitIdentical(est, queries, est.name());
  }
  HybridEstimatorOptions options;
  auto hybrid = HybridEstimator::Create(sample, kDomain, options);
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
  ExpectBitIdentical(*hybrid, queries, hybrid->name());
}

// --- The headline line-up, pinned ---

// FNV-1a over the bytes of a double's bit pattern.
uint64_t FnvAdd(uint64_t hash, double value) {
  uint64_t bits = std::bit_cast<uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    hash ^= bits & 0xff;
    hash *= 0x100000001b3ull;
    bits >>= 8;
  }
  return hash;
}

// The kernel estimator (normal-scale bandwidth under each boundary policy,
// and the catalog's direct-plug-in boundary-kernel configuration) and the
// boundary-kernel hybrid, each built from a 2,000-record sample of every
// headline file and asked a seeded workload of 64 queries per paper band
// (1/2/5/10% of the domain). Every answer must be bit-identical across
// tiers, single and batch, and the digest of the scalar answers is pinned
// to the value the per-sample scalar scan gave before the vector fringe
// scan existed: the reference itself did not move.
TEST(SimdIdentityLineupTest, HeadlineLineupDigestIsPinned) {
  std::vector<EstimatorConfig> lineup;
  for (const BoundaryPolicy policy :
       {BoundaryPolicy::kNone, BoundaryPolicy::kReflection,
        BoundaryPolicy::kBoundaryKernel}) {
    EstimatorConfig config;
    config.kind = EstimatorKind::kKernel;
    config.boundary = policy;
    lineup.push_back(config);
  }
  EstimatorConfig dpi_kernel;
  dpi_kernel.kind = EstimatorKind::kKernel;
  dpi_kernel.smoothing = SmoothingRule::kDirectPlugIn;
  dpi_kernel.boundary = BoundaryPolicy::kBoundaryKernel;
  lineup.push_back(dpi_kernel);
  EstimatorConfig hybrid;
  hybrid.kind = EstimatorKind::kHybrid;
  hybrid.boundary = BoundaryPolicy::kBoundaryKernel;
  lineup.push_back(hybrid);

  uint64_t digest = 0xcbf29ce484222325ull;
  size_t answers = 0;
  const std::vector<std::string> files = HeadlineFileNames();
  for (size_t f = 0; f < files.size(); ++f) {
    auto data = MakePaperDataset(files[f]);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    Rng rng(500 + f);
    const std::vector<double> sample =
        SampleWithoutReplacement(data->values(), 2000, rng);
    std::vector<RangeQuery> queries;
    for (const double band : {0.01, 0.02, 0.05, 0.10}) {
      WorkloadConfig workload;
      workload.query_fraction = band;
      workload.num_queries = 64;
      const auto drawn = GenerateWorkload(*data, workload, rng);
      queries.insert(queries.end(), drawn.begin(), drawn.end());
    }
    for (const EstimatorConfig& config : lineup) {
      auto est = BuildEstimator(sample, data->domain(), config);
      ASSERT_TRUE(est.ok()) << est.status().ToString();
      const std::string label = files[f] + " " + (*est)->name();
      {
        ScopedSimdTier scalar(SimdTier::kScalar);
        for (const RangeQuery& q : queries) {
          digest = FnvAdd(digest, (*est)->EstimateSelectivity(q));
          ++answers;
        }
      }
      ExpectBitIdentical(**est, queries, label);
    }
  }
  EXPECT_EQ(answers, 8u * 5u * 256u);
  EXPECT_EQ(digest, 0x8a46119f8ce6b93aull)
      << "digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace selest
