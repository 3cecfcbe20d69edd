#include "src/density/histogram_density.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/domain.h"
#include "src/est/equi_width_histogram.h"
#include "src/est/estimator_snapshot.h"
#include "src/util/random.h"
#include "src/util/simd.h"

namespace selest {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(BinnedDensityTest, CreateValidatesInput) {
  EXPECT_FALSE(BinnedDensity::Create({0.0}, {}, 1.0).ok());
  EXPECT_FALSE(BinnedDensity::Create({0.0, 1.0}, {1.0, 2.0}, 3.0).ok());
  EXPECT_FALSE(BinnedDensity::Create({1.0, 0.0}, {1.0}, 1.0).ok());
  EXPECT_FALSE(BinnedDensity::Create({0.0, 1.0}, {-1.0}, 1.0).ok());
  EXPECT_FALSE(BinnedDensity::Create({0.0, 1.0}, {1.0}, 0.0).ok());
  EXPECT_TRUE(BinnedDensity::Create({0.0, 1.0}, {1.0}, 1.0).ok());
}

// Non-finite values would make the running counts and interior widths
// disagree with formula (4): inf − inf in a count difference, inf/inf in
// a fully covered bin.
TEST(BinnedDensityTest, CreateRejectsNonFiniteValues) {
  EXPECT_FALSE(BinnedDensity::Create({0.0, kInf}, {1.0}, 1.0).ok());
  EXPECT_FALSE(BinnedDensity::Create({-kInf, 0.0}, {1.0}, 1.0).ok());
  EXPECT_FALSE(BinnedDensity::Create({0.0, kNaN, 1.0}, {1.0, 1.0}, 2.0).ok());
  EXPECT_FALSE(BinnedDensity::Create({0.0, 1.0}, {kInf}, 1.0).ok());
  EXPECT_FALSE(BinnedDensity::Create({0.0, 1.0}, {kNaN}, 1.0).ok());
  EXPECT_FALSE(BinnedDensity::Create({0.0, 1.0, 2.0}, {1e308, 1e308}, 1.0)
                   .ok());  // each count finite, their sum not
  EXPECT_FALSE(BinnedDensity::Create({0.0, 1.0}, {1.0}, kInf).ok());
}

TEST(BinnedDensityTest, DensityOfSingleBin) {
  auto bins = BinnedDensity::Create({0.0, 4.0}, {10.0}, 10.0);
  ASSERT_TRUE(bins.ok());
  EXPECT_DOUBLE_EQ(bins->Density(2.0), 0.25);
  EXPECT_DOUBLE_EQ(bins->Density(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(bins->Density(5.0), 0.0);
}

TEST(BinnedDensityTest, SelectivityFullCoverageIsOne) {
  auto bins = BinnedDensity::Create({0.0, 1.0, 2.0}, {3.0, 7.0}, 10.0);
  ASSERT_TRUE(bins.ok());
  EXPECT_DOUBLE_EQ(bins->Selectivity(0.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(bins->Selectivity(-5.0, 5.0), 1.0);
}

TEST(BinnedDensityTest, SelectivityOfExactBin) {
  auto bins = BinnedDensity::Create({0.0, 1.0, 2.0}, {3.0, 7.0}, 10.0);
  ASSERT_TRUE(bins.ok());
  EXPECT_DOUBLE_EQ(bins->Selectivity(0.0, 1.0), 0.3);
  EXPECT_DOUBLE_EQ(bins->Selectivity(1.0, 2.0), 0.7);
}

TEST(BinnedDensityTest, SelectivityOfPartialBinIsProRata) {
  auto bins = BinnedDensity::Create({0.0, 10.0}, {10.0}, 10.0);
  ASSERT_TRUE(bins.ok());
  // Uniform-in-bin assumption: a quarter of the bin holds a quarter of the
  // mass (formula (4)'s ψ).
  EXPECT_DOUBLE_EQ(bins->Selectivity(0.0, 2.5), 0.25);
  EXPECT_DOUBLE_EQ(bins->Selectivity(4.0, 6.0), 0.2);
}

TEST(BinnedDensityTest, SelectivitySpanningBins) {
  auto bins =
      BinnedDensity::Create({0.0, 2.0, 4.0, 6.0}, {2.0, 4.0, 2.0}, 8.0);
  ASSERT_TRUE(bins.ok());
  // Half of bin 0 + all of bin 1 + half of bin 2 = 1 + 4 + 1 = 6 of 8.
  EXPECT_DOUBLE_EQ(bins->Selectivity(1.0, 5.0), 0.75);
}

TEST(BinnedDensityTest, EmptyAndInvertedRanges) {
  auto bins = BinnedDensity::Create({0.0, 1.0}, {5.0}, 5.0);
  ASSERT_TRUE(bins.ok());
  EXPECT_DOUBLE_EQ(bins->Selectivity(2.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(bins->Selectivity(0.7, 0.2), 0.0);
}

TEST(BinnedDensityTest, AtomBinContributesFullyWhenCovered) {
  // Middle bin has zero width at position 1.0 with count 4.
  auto bins =
      BinnedDensity::Create({0.0, 1.0, 1.0, 2.0}, {3.0, 4.0, 3.0}, 10.0);
  ASSERT_TRUE(bins.ok());
  EXPECT_NEAR(bins->Selectivity(0.99, 1.01),
              4.0 / 10.0 + 0.01 * 3.0 / 10.0 + 0.01 * 3.0 / 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(bins->Selectivity(1.0, 1.0), 0.4);
  EXPECT_DOUBLE_EQ(bins->Selectivity(1.5, 2.0), 0.15);
}

TEST(BinnedDensityTest, FromSampleCountsCorrectly) {
  const std::vector<double> sample{0.5, 1.5, 1.6, 2.5, 2.6, 2.7};
  auto bins = BinnedDensity::FromSample(sample, {0.0, 1.0, 2.0, 3.0});
  ASSERT_TRUE(bins.ok());
  EXPECT_DOUBLE_EQ(bins->counts()[0], 1.0);
  EXPECT_DOUBLE_EQ(bins->counts()[1], 2.0);
  EXPECT_DOUBLE_EQ(bins->counts()[2], 3.0);
  EXPECT_DOUBLE_EQ(bins->total_count(), 6.0);
}

TEST(BinnedDensityTest, FromSampleEdgeValues) {
  // Left edge goes to the first bin; interior edges go to the bin they
  // close (bins are (c_i, c_{i+1}]).
  const std::vector<double> sample{0.0, 1.0, 2.0};
  auto bins = BinnedDensity::FromSample(sample, {0.0, 1.0, 2.0});
  ASSERT_TRUE(bins.ok());
  EXPECT_DOUBLE_EQ(bins->counts()[0], 2.0);  // 0.0 and 1.0
  EXPECT_DOUBLE_EQ(bins->counts()[1], 1.0);  // 2.0
}

TEST(BinnedDensityTest, FromSampleClampsOutliersIntoEndBins) {
  const std::vector<double> sample{-5.0, 0.5, 99.0};
  auto bins = BinnedDensity::FromSample(sample, {0.0, 1.0, 2.0});
  ASSERT_TRUE(bins.ok());
  EXPECT_DOUBLE_EQ(bins->counts()[0], 2.0);
  EXPECT_DOUBLE_EQ(bins->counts()[1], 1.0);
}

TEST(BinnedDensityTest, FromSampleRejectsEmpty) {
  EXPECT_FALSE(BinnedDensity::FromSample({}, {0.0, 1.0}).ok());
}

TEST(BinnedDensityTest, SelectivityAdditivity) {
  auto bins =
      BinnedDensity::Create({0.0, 2.0, 4.0, 6.0}, {1.0, 2.0, 3.0}, 6.0);
  ASSERT_TRUE(bins.ok());
  const double whole = bins->Selectivity(0.5, 5.5);
  const double split =
      bins->Selectivity(0.5, 3.0) + bins->Selectivity(3.0, 5.5);
  EXPECT_NEAR(whole, split, 1e-12);
}

TEST(BinnedDensityTest, StorageBytes) {
  auto bins = BinnedDensity::Create({0.0, 1.0, 2.0}, {1.0, 1.0}, 2.0);
  ASSERT_TRUE(bins.ok());
  EXPECT_EQ(bins->StorageBytes(), sizeof(double) * 5);
}

// Formula (4) as the bin walk computed it before the running counts: every
// bin from the lower-bound bin on whose low edge is <= b, summed left to
// right. Kept as the reference the summation contract is stated against.
double WalkMass(const BinnedDensity& bins, double a, double b) {
  const AlignedDoubles& edges = bins.edges();
  const AlignedDoubles& counts = bins.counts();
  double mass = 0.0;
  const size_t lower = static_cast<size_t>(
      std::lower_bound(edges.begin(), edges.end(), a) - edges.begin());
  for (size_t i = lower == 0 ? 0 : lower - 1;
       i < counts.size() && edges[i] <= b; ++i) {
    const double lo = edges[i];
    const double hi = edges[i + 1];
    const double width = hi - lo;
    if (width <= 0.0) {
      if (lo >= a && lo <= b) mass += counts[i];
      continue;
    }
    const double overlap = std::min(b, hi) - std::max(a, lo);
    if (overlap <= 0.0) continue;
    mass += counts[i] * (overlap / width);
  }
  return mass;
}

double WalkSelectivity(const BinnedDensity& bins, double a, double b) {
  if (a > b) return 0.0;
  return std::clamp(WalkMass(bins, a, b) / bins.total_count(), 0.0, 1.0);
}

// The span the walk above visits.
BinnedDensity::BinSpan SearchSpan(const BinnedDensity& bins, double a,
                                  double b) {
  const AlignedDoubles& edges = bins.edges();
  const size_t k = bins.num_bins();
  const size_t lower = static_cast<size_t>(
      std::lower_bound(edges.begin(), edges.end(), a) - edges.begin());
  const size_t first = lower == 0 ? 0 : lower - 1;
  size_t end = first;
  while (end < k && edges[end] <= b) ++end;
  return {first, end};
}

// DESIGN.md §12's bound on |Selectivity − WalkSelectivity|:
// (3k + 6) · 2⁻⁵³ · Σcounts / n.
double SummationBound(const BinnedDensity& bins) {
  double sum = 0.0;
  for (double c : bins.counts()) sum += c;
  const double k = static_cast<double>(bins.num_bins());
  return (3.0 * k + 6.0) * std::ldexp(1.0, -53) * sum / bins.total_count();
}

// Query bounds that stress the locate and the partial bins: every edge and
// its two neighbouring doubles, random points inside and just outside the
// edge range, and the non-finite values.
std::vector<double> ProbePoints(const BinnedDensity& bins, Rng& rng) {
  const AlignedDoubles& edges = bins.edges();
  std::vector<double> points = {kInf, -kInf, kNaN};
  for (double e : edges) {
    points.push_back(e);
    points.push_back(std::nextafter(e, -kInf));
    points.push_back(std::nextafter(e, kInf));
  }
  const double lo = edges.front();
  const double span = std::max(edges.back() - lo, 1.0);
  for (int i = 0; i < 64; ++i) {
    points.push_back(lo + span * (1.2 * rng.NextDouble() - 0.1));
  }
  return points;
}

std::vector<std::pair<double, double>> ProbeQueries(const BinnedDensity& bins,
                                                    Rng& rng) {
  const std::vector<double> points = ProbePoints(bins, rng);
  std::vector<std::pair<double, double>> queries;
  for (int i = 0; i < 2000; ++i) {
    // Both orders occur, so inverted queries are covered too.
    queries.emplace_back(points[rng.NextUint64(points.size())],
                         points[rng.NextUint64(points.size())]);
  }
  return queries;
}

BinnedDensity Histogram(std::vector<double> edges, std::vector<double> counts,
                        double total) {
  auto bins = BinnedDensity::Create(std::move(edges), std::move(counts), total);
  EXPECT_TRUE(bins.ok()) << bins.status().ToString();
  return std::move(bins).value();
}

// Seeded histogram shapes: integer counts on uniform edges (equi-width),
// duplicate edges (atoms), non-integer counts whose total is not their
// sum (wavelet reconstructions, ASH shifts), counts spanning many orders
// of magnitude, skewed edges (equi-depth) and edges jittered around a
// grid.
std::vector<BinnedDensity> PropertyHistograms() {
  std::vector<BinnedDensity> out;
  Rng rng(16);
  for (int k : {1, 2, 3, 8, 64, 1000}) {
    std::vector<double> edges;
    std::vector<double> counts;
    for (int i = 0; i <= k; ++i) edges.push_back(-5.0 + 0.37 * i);
    double total = 0.0;
    for (int i = 0; i < k; ++i) {
      counts.push_back(static_cast<double>(rng.NextUint64(50)));
      total += counts.back();
    }
    out.push_back(Histogram(edges, counts, std::max(total, 1.0)));

    std::vector<double> fractional;
    for (int i = 0; i < k; ++i) fractional.push_back(3.0 * rng.NextDouble());
    out.push_back(Histogram(edges, fractional, 0.7 * k + 0.1));

    std::vector<double> wide;
    for (int i = 0; i < k; ++i) {
      wide.push_back(std::ldexp(rng.NextDouble(), rng.NextInt64(-30, 30)));
    }
    out.push_back(Histogram(edges, wide, 1.0));

    // Edges within ±0.45 bins of a grid fit it; within ±0.9 some edges
    // leave the cells [i − 1, i + 1) the grid locate relies on.
    for (double jitter : {0.9, 1.8}) {
      std::vector<double> jittered;
      for (int i = 0; i <= k; ++i) {
        jittered.push_back(1e3 + i + jitter * (rng.NextDouble() - 0.5));
      }
      std::sort(jittered.begin(), jittered.end());
      out.push_back(Histogram(jittered, counts, std::max(total, 1.0)));
    }
  }
  for (int k : {5, 50, 500}) {
    // Quantile-like edges of a skewed distribution: many edges share a
    // cell of the uniform map, others have cells to themselves.
    std::vector<double> edges;
    for (int i = 0; i <= k; ++i) {
      edges.push_back(std::exp(12.0 * rng.NextDouble()));
    }
    std::sort(edges.begin(), edges.end());
    std::vector<double> counts(k, 40.0);
    out.push_back(Histogram(edges, counts, 40.0 * k));
  }
  for (int k : {4, 9, 200}) {
    std::vector<double> edges = {0.0};
    std::vector<double> counts;
    double total = 0.0;
    for (int i = 0; i < k; ++i) {
      // About a third of the bins are atoms (a repeated edge).
      const double step = rng.NextUint64(3) == 0 ? 0.0 : rng.NextDouble();
      edges.push_back(edges.back() + step);
      counts.push_back(static_cast<double>(1 + rng.NextUint64(20)));
      total += counts.back();
    }
    out.push_back(Histogram(edges, counts, total));
  }
  out.push_back(Histogram({2.0, 2.0}, {5.0}, 5.0));            // one atom
  out.push_back(Histogram({0.0, 1.0, 1.0, 1.0, 2.0},           // stacked
                          {1.0, 2.0, 3.0, 4.0}, 10.0));        // atoms
  return out;
}

TEST(BinnedDensityTest, SelectivityStaysWithinSummationBoundOfTheBinWalk) {
  Rng rng(7);
  int grids = 0;
  for (const BinnedDensity& bins : PropertyHistograms()) {
    grids += bins.has_grid() ? 1 : 0;
    const double bound = SummationBound(bins);
    for (const auto& [a, b] : ProbeQueries(bins, rng)) {
      const double got = bins.Selectivity(a, b);
      const double want = WalkSelectivity(bins, a, b);
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got)) << a << " " << b;
        continue;
      }
      ASSERT_LE(std::abs(got - want), bound)
          << "k=" << bins.num_bins() << " [" << a << ", " << b << "]";
      const BinnedDensity::BinSpan span = bins.Locate(a, b);
      const BinnedDensity::BinSpan want_span = SearchSpan(bins, a, b);
      if (a <= b) {
        ASSERT_EQ(span.first, want_span.first) << a << " " << b;
        ASSERT_EQ(span.end, want_span.end) << a << " " << b;
      }
    }
    // MassBelow is the walk's mass from the first edge, unnormalized.
    for (double x : ProbePoints(bins, rng)) {
      const double want = x < bins.edges().front()
                              ? 0.0
                              : WalkMass(bins, bins.edges().front(), x);
      if (std::isnan(want)) continue;
      EXPECT_LE(std::abs(bins.MassBelow(x) - want),
                bound * bins.total_count())
          << x;
    }
  }
  // Both locates are exercised: the equi-width and jittered shapes above
  // reach the grid, the skewed and atom shapes the guide.
  EXPECT_GE(grids, 8);
  EXPECT_LE(grids, static_cast<int>(PropertyHistograms().size()) - 8);
}

// histogram_block on every vector tier this host runs answers exactly what
// Selectivity answers, on the same shapes and probes.
TEST(BinnedDensityTest, SelectivityBlockIsBitIdenticalOnEveryTier) {
  Rng rng(11);
  const std::vector<BinnedDensity> histograms = PropertyHistograms();
  for (const SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512}) {
    const SimdOps* ops = SimdOpsForTier(tier);
    if (ops == nullptr) continue;
    const size_t w = static_cast<size_t>(ops->width);
    AlignedDoubles a(w), b(w), out(w);
    for (const BinnedDensity& bins : histograms) {
      const auto queries = ProbeQueries(bins, rng);
      for (size_t q = 0; q + w <= queries.size(); q += w) {
        for (size_t lane = 0; lane < w; ++lane) {
          a[lane] = queries[q + lane].first;
          b[lane] = queries[q + lane].second;
        }
        bins.SelectivityBlock(*ops, a.data(), b.data(), out.data());
        for (size_t lane = 0; lane < w; ++lane) {
          const double want = bins.Selectivity(a[lane], b[lane]);
          ASSERT_TRUE(std::memcmp(&out[lane], &want, sizeof(double)) == 0)
              << SimdTierName(tier) << " k=" << bins.num_bins() << " ["
              << a[lane] << ", " << b[lane] << "]: " << out[lane]
              << " != " << want;
        }
      }
    }
  }
}

// Every equi-width histogram (each ASH shift included) locates its bins
// arithmetically, and the located span is the binary search's, at every
// edge and one double either side, before and after folding rows in and
// after a snapshot round-trip.
TEST(BinnedDensityTest, EquiWidthGridLocateMatchesTheBinarySearch) {
  Rng rng(3);
  std::vector<double> sample(500);
  const std::vector<Domain> domains = {ContinuousDomain(0.0, 1.0),
                                       ContinuousDomain(-3.7, 1e6),
                                       ContinuousDomain(1e9, 1e9 + 1.0)};
  for (const Domain& domain : domains) {
    for (double& x : sample) x = domain.lo + domain.width() * rng.NextDouble();
    for (int num_bins : {3, 7, 64, 1000}) {
      const double width = domain.width() / num_bins;
      for (double shift : {0.0, 0.1 * width, 0.5 * width, 0.9 * width}) {
        auto built =
            EquiWidthHistogram::Create(sample, domain, num_bins, shift);
        ASSERT_TRUE(built.ok()) << built.status().ToString();
        auto folded = std::make_unique<EquiWidthHistogram>(*built);
        std::vector<double> rows(200);
        for (double& x : rows) {
          x = domain.lo + domain.width() * (1.4 * rng.NextDouble() - 0.2);
        }
        ASSERT_TRUE(folded->FoldRows(rows).ok());
        auto bytes = SnapshotEstimator(*folded);
        ASSERT_TRUE(bytes.ok());
        auto loaded = LoadEstimatorSnapshot(*bytes);
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        const auto* reloaded =
            dynamic_cast<const EquiWidthHistogram*>(loaded->get());
        ASSERT_NE(reloaded, nullptr);
        for (const BinnedDensity* bins :
             {&built->bins(), &folded->bins(), &reloaded->bins()}) {
          ASSERT_TRUE(bins->has_grid())
              << num_bins << " bins, shift " << shift;
          const std::vector<double> points = ProbePoints(*bins, rng);
          for (double a : points) {
            for (double b : {a, std::nextafter(a, kInf), domain.hi, kInf}) {
              const BinnedDensity::BinSpan got = bins->Locate(a, b);
              const BinnedDensity::BinSpan want = SearchSpan(*bins, a, b);
              ASSERT_EQ(got.first, want.first) << a << " " << b;
              ASSERT_EQ(got.end, want.end) << a << " " << b;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace selest
