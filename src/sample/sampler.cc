#include "src/sample/sampler.h"

#include <unordered_set>

#include "src/util/check.h"

namespace selest {

StatusOr<std::vector<double>> TrySampleWithoutReplacement(
    std::span<const double> population, size_t sample_size, Rng& rng) {
  if (sample_size > population.size()) {
    return InvalidArgumentError(
        "cannot sample " + std::to_string(sample_size) +
        " values without replacement from a population of " +
        std::to_string(population.size()));
  }
  const size_t n = population.size();
  // Floyd's algorithm over indices: for j = n-k .. n-1 pick t in [0, j];
  // insert t, or j if t was already chosen.
  std::unordered_set<size_t> chosen;
  chosen.reserve(sample_size * 2);
  std::vector<double> sample;
  sample.reserve(sample_size);
  for (size_t j = n - sample_size; j < n; ++j) {
    const size_t t = static_cast<size_t>(rng.NextUint64(j + 1));
    const size_t pick = chosen.insert(t).second ? t : j;
    if (pick != t) chosen.insert(pick);
    sample.push_back(population[pick]);
  }
  return sample;
}

std::vector<double> SampleWithoutReplacement(std::span<const double> population,
                                             size_t sample_size, Rng& rng) {
  auto sample = TrySampleWithoutReplacement(population, sample_size, rng);
  SELEST_CHECK(sample.ok());
  return std::move(sample).value();
}

StatusOr<std::vector<double>> TryReservoirSample(
    std::span<const double> population, size_t sample_size, Rng& rng) {
  if (sample_size > population.size()) {
    return InvalidArgumentError(
        "reservoir of " + std::to_string(sample_size) +
        " exceeds the population of " + std::to_string(population.size()));
  }
  std::vector<double> reservoir(population.begin(),
                                population.begin() + sample_size);
  for (size_t i = sample_size; i < population.size(); ++i) {
    const size_t j = static_cast<size_t>(rng.NextUint64(i + 1));
    if (j < sample_size) reservoir[j] = population[i];
  }
  return reservoir;
}

std::vector<double> ReservoirSample(std::span<const double> population,
                                    size_t sample_size, Rng& rng) {
  auto sample = TryReservoirSample(population, sample_size, rng);
  SELEST_CHECK(sample.ok());
  return std::move(sample).value();
}

StatusOr<std::vector<double>> TryBernoulliSample(
    std::span<const double> population, double rate, Rng& rng) {
  if (!(rate >= 0.0 && rate <= 1.0)) {
    return InvalidArgumentError("Bernoulli rate must be in [0, 1]");
  }
  std::vector<double> sample;
  for (double v : population) {
    if (rng.NextDouble() < rate) sample.push_back(v);
  }
  return sample;
}

std::vector<double> BernoulliSample(std::span<const double> population,
                                    double rate, Rng& rng) {
  auto sample = TryBernoulliSample(population, rate, rng);
  SELEST_CHECK(sample.ok());
  return std::move(sample).value();
}

DecayingReservoir::DecayingReservoir(size_t capacity, double decay,
                                     uint64_t seed)
    : capacity_(capacity), decay_(decay), rng_(seed) {
  SELEST_CHECK_GT(capacity, 0u);
  SELEST_CHECK(decay >= 0.0 && decay <= 1.0);
  values_.reserve(capacity);
}

void DecayingReservoir::Add(double value) {
  ++items_seen_;
  if (values_.size() < capacity_) {
    values_.push_back(value);
    return;
  }
  if (decay_ > 0.0) {
    // Recency bias: admit with fixed probability, landing on a uniform slot.
    if (rng_.NextDouble() < decay_) {
      values_[static_cast<size_t>(rng_.NextUint64(capacity_))] = value;
    }
    return;
  }
  // Algorithm R: admit the t-th item with probability capacity/t.
  const uint64_t j = rng_.NextUint64(items_seen_);
  if (j < capacity_) values_[static_cast<size_t>(j)] = value;
}

void DecayingReservoir::AddBatch(std::span<const double> values) {
  for (double v : values) Add(v);
}

}  // namespace selest
