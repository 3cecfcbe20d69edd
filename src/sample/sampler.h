// Random sampling of relations.
//
// Every nonparametric estimator in the paper is built from a small random
// sample of the relation — §5.1.1 draws 2,000 of 100,000+ records "in a
// random fashion without replacement". This module provides that, plus a
// single-pass reservoir variant for streams and Bernoulli sampling for
// completeness.
#ifndef SELEST_SAMPLE_SAMPLER_H_
#define SELEST_SAMPLE_SAMPLER_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/util/random.h"
#include "src/util/status.h"

namespace selest {

// The Try* forms are Status-first: a sample size exceeding the population
// (reachable whenever the population is an externally supplied data file)
// or a rate outside [0, 1] is an error, never an abort. The plain forms
// keep the historical aborting contract for call sites that already hold
// the precondition.

// Draws `sample_size` elements uniformly without replacement. Uses Floyd's
// algorithm: O(sample_size) time and space regardless of population size.
// Requires sample_size <= population.size(). Order of the result is random.
StatusOr<std::vector<double>> TrySampleWithoutReplacement(
    std::span<const double> population, size_t sample_size, Rng& rng);
std::vector<double> SampleWithoutReplacement(std::span<const double> population,
                                             size_t sample_size, Rng& rng);

// Algorithm R reservoir sampling: one pass, O(population) time, suitable
// when the population is only available as a stream. Produces a uniform
// sample without replacement. Requires sample_size <= population.size().
StatusOr<std::vector<double>> TryReservoirSample(
    std::span<const double> population, size_t sample_size, Rng& rng);
std::vector<double> ReservoirSample(std::span<const double> population,
                                    size_t sample_size, Rng& rng);

// Keeps each element independently with probability `rate` (0 <= rate <= 1).
// The sample size is binomial, not fixed.
StatusOr<std::vector<double>> TryBernoulliSample(
    std::span<const double> population, double rate, Rng& rng);
std::vector<double> BernoulliSample(std::span<const double> population,
                                    double rate, Rng& rng);

// A fixed-capacity sample of an unbounded stream: the live server's
// ingest-side sample of every column, which rebuilds the kinds that cannot
// fold rows and answers OnlineEstimate, and the streaming build's sample
// of every kind but equi-width (est/streaming_build.h).
//
// With decay == 0 this is exactly Algorithm R: after t items every item is
// resident with probability capacity/t (uniform over the whole stream).
// With decay in (0, 1], once the reservoir is full each arriving item
// replaces a uniformly random slot with probability `decay`, so residence
// probabilities fall geometrically with age — a recency-biased sample for
// workloads whose distribution drifts (Aggarwal's biased reservoir, with a
// fixed fill rate). Deterministic for a given (seed, stream) pair.
class DecayingReservoir {
 public:
  // `capacity` must be positive; `decay` in [0, 1].
  DecayingReservoir(size_t capacity, double decay = 0.0, uint64_t seed = 1);

  void Add(double value);
  void AddBatch(std::span<const double> values);

  // The resident sample, in slot order (not sorted, not insertion order).
  std::span<const double> values() const { return values_; }
  size_t size() const { return values_.size(); }
  size_t capacity() const { return capacity_; }
  double decay() const { return decay_; }
  // Stream length observed so far.
  uint64_t items_seen() const { return items_seen_; }

 private:
  size_t capacity_;
  double decay_;
  Rng rng_;
  uint64_t items_seen_ = 0;
  std::vector<double> values_;
};

}  // namespace selest

#endif  // SELEST_SAMPLE_SAMPLER_H_
