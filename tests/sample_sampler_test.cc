#include "src/sample/sampler.h"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace selest {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
  return v;
}

// True when `sample` is a sub-multiset of `population`.
bool IsSubMultiset(std::vector<double> sample, std::vector<double> population) {
  std::sort(sample.begin(), sample.end());
  std::sort(population.begin(), population.end());
  return std::includes(population.begin(), population.end(), sample.begin(),
                       sample.end());
}

TEST(SampleWithoutReplacementTest, ExactSize) {
  Rng rng(1);
  const auto population = Iota(1000);
  EXPECT_EQ(SampleWithoutReplacement(population, 100, rng).size(), 100u);
  EXPECT_EQ(SampleWithoutReplacement(population, 0, rng).size(), 0u);
  EXPECT_EQ(SampleWithoutReplacement(population, 1000, rng).size(), 1000u);
}

TEST(SampleWithoutReplacementTest, NoDuplicateIndices) {
  Rng rng(2);
  const auto population = Iota(500);  // distinct values ⇒ distinct picks
  auto sample = SampleWithoutReplacement(population, 250, rng);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(std::adjacent_find(sample.begin(), sample.end()), sample.end());
}

TEST(SampleWithoutReplacementTest, SampleIsSubsetOfPopulation) {
  Rng rng(3);
  std::vector<double> population{1.5, 1.5, 2.0, 7.0, 9.0, 9.0, 9.0};
  const auto sample = SampleWithoutReplacement(population, 4, rng);
  EXPECT_TRUE(IsSubMultiset(sample, population));
}

TEST(SampleWithoutReplacementTest, FullSampleIsPermutation) {
  Rng rng(4);
  const auto population = Iota(64);
  auto sample = SampleWithoutReplacement(population, 64, rng);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(sample, population);
}

TEST(SampleWithoutReplacementTest, RoughlyUniformInclusion) {
  // Each of 20 elements should appear in a 10-of-20 sample about half of
  // the trials.
  const auto population = Iota(20);
  std::map<double, int> inclusion;
  Rng rng(5);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (double v : SampleWithoutReplacement(population, 10, rng)) {
      ++inclusion[v];
    }
  }
  for (const auto& [value, count] : inclusion) {
    EXPECT_NEAR(static_cast<double>(count) / trials, 0.5, 0.03)
        << "element " << value;
  }
}

TEST(ReservoirSampleTest, ExactSizeAndSubset) {
  Rng rng(6);
  const auto population = Iota(300);
  const auto sample = ReservoirSample(population, 50, rng);
  EXPECT_EQ(sample.size(), 50u);
  EXPECT_TRUE(IsSubMultiset(sample, population));
}

TEST(ReservoirSampleTest, RoughlyUniformInclusion) {
  const auto population = Iota(20);
  std::map<double, int> inclusion;
  Rng rng(7);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (double v : ReservoirSample(population, 10, rng)) ++inclusion[v];
  }
  for (const auto& [value, count] : inclusion) {
    EXPECT_NEAR(static_cast<double>(count) / trials, 0.5, 0.03)
        << "element " << value;
  }
}

TEST(BernoulliSampleTest, RateZeroAndOne) {
  Rng rng(8);
  const auto population = Iota(100);
  EXPECT_TRUE(BernoulliSample(population, 0.0, rng).empty());
  EXPECT_EQ(BernoulliSample(population, 1.0, rng).size(), 100u);
}

TEST(BernoulliSampleTest, ExpectedSize) {
  Rng rng(9);
  const auto population = Iota(100000);
  const auto sample = BernoulliSample(population, 0.1, rng);
  EXPECT_NEAR(static_cast<double>(sample.size()), 10000.0, 500.0);
}

TEST(SamplerDeathTest, OversizedSampleAborts) {
  Rng rng(10);
  const auto population = Iota(10);
  EXPECT_DEATH(SampleWithoutReplacement(population, 11, rng), "SELEST_CHECK");
  EXPECT_DEATH(ReservoirSample(population, 11, rng), "SELEST_CHECK");
}

// --- DecayingReservoir (the live server's per-column ingest sample) -------

TEST(DecayingReservoirTest, UnderfullHoldsTheStreamVerbatim) {
  DecayingReservoir reservoir(10);
  const auto stream = Iota(6);
  reservoir.AddBatch(stream);
  EXPECT_EQ(reservoir.size(), 6u);
  EXPECT_EQ(reservoir.items_seen(), 6u);
  const auto values = reservoir.values();
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(values[i], stream[i]);
  }
}

TEST(DecayingReservoirTest, FullReservoirStaysAtCapacity) {
  DecayingReservoir reservoir(16, 0.0, 3);
  reservoir.AddBatch(Iota(1000));
  EXPECT_EQ(reservoir.size(), 16u);
  EXPECT_EQ(reservoir.items_seen(), 1000u);
  EXPECT_TRUE(IsSubMultiset(
      {reservoir.values().begin(), reservoir.values().end()}, Iota(1000)));
}

TEST(DecayingReservoirTest, SameSeedSameStreamIsDeterministic) {
  DecayingReservoir a(8, 0.0, 5);
  DecayingReservoir b(8, 0.0, 5);
  a.AddBatch(Iota(500));
  b.AddBatch(Iota(500));
  const auto va = a.values();
  const auto vb = b.values();
  ASSERT_EQ(va.size(), vb.size());
  for (size_t i = 0; i < va.size(); ++i) EXPECT_EQ(va[i], vb[i]);
}

TEST(DecayingReservoirTest, AlgorithmRIsRoughlyUniform) {
  // Every element of a 20-item stream should land in a 10-slot reservoir
  // with probability 1/2 (the classic Algorithm R guarantee).
  const auto population = Iota(20);
  std::map<double, int> inclusion;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    DecayingReservoir reservoir(10, 0.0, static_cast<uint64_t>(t + 1));
    reservoir.AddBatch(population);
    for (double v : reservoir.values()) ++inclusion[v];
  }
  for (const auto& [value, count] : inclusion) {
    EXPECT_NEAR(static_cast<double>(count) / trials, 0.5, 0.03)
        << "element " << value;
  }
}

TEST(DecayingReservoirTest, DecayBiasesTowardRecentItems) {
  // With decay on, late items displace early ones at a fixed rate, so the
  // tail of the stream is over-represented relative to Algorithm R. The
  // extreme makes it deterministic: decay 1.0 and capacity 1 always holds
  // the newest item.
  DecayingReservoir newest_only(1, 1.0, 7);
  newest_only.AddBatch(Iota(100));
  ASSERT_EQ(newest_only.size(), 1u);
  EXPECT_EQ(newest_only.values()[0], 99.0);

  // Statistically: the mean of a decaying reservoir over an increasing
  // stream exceeds the uniform-sample mean.
  double decayed_sum = 0.0;
  double uniform_sum = 0.0;
  const auto stream = Iota(2000);
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    DecayingReservoir decayed(50, 0.2, static_cast<uint64_t>(t + 1));
    DecayingReservoir uniform(50, 0.0, static_cast<uint64_t>(t + 1));
    decayed.AddBatch(stream);
    uniform.AddBatch(stream);
    for (double v : decayed.values()) decayed_sum += v;
    for (double v : uniform.values()) uniform_sum += v;
  }
  EXPECT_GT(decayed_sum, uniform_sum);
}

}  // namespace
}  // namespace selest
