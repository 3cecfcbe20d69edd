// Streaming (out-of-core) estimator construction over a ColumnSource.
//
// BuildEstimator (estimator_factory.h) takes a materialized sample span;
// this layer builds the same estimators from a chunk stream without ever
// holding the column in memory. Three paths (DESIGN.md §13):
//
//   * kDomainOnly — the uniform baseline needs only the domain; no data
//     pass at all beyond the source's declared row count.
//   * kOnePassFold — equi-width: the bin edges are fixed by
//     (domain, bin count), so the counts are folded chunk by chunk over
//     ALL rows (FoldRows is exact), giving an estimator built from the
//     full column at one chunk of resident memory. Only equi-width folds
//     here: the chunk-invariance contract below needs an exact fold (the
//     equi-depth fold drifts with the chunk boundaries), and a sampling
//     fold would hold every row. A data-dependent smoothing rule (h-NS,
//     h-DPI) resolves the bin count from the reservoir sample first,
//     which costs one extra sampling pass; with SmoothingRule::kFixed the
//     build is a single pass.
//   * kReservoirSample — every other kind (sampling, equi-depth,
//     max-diff, ash, kernel, hybrid, v-optimal, adaptive-kernel,
//     wavelet): one sequential pass fills a DecayingReservoir and the
//     estimator is built from the reservoir content via BuildEstimator.
//     This is the paper's own protocol (§5.1 builds every estimator from
//     a fixed-size sample), reached without materializing the column.
//
// Bit-identity contract (enforced by the `stream` ctest label): the
// reservoir is sequential and deterministic in (seed, stream), and count
// folds are order-independent exact integer adds, so the built estimator
// is a pure function of the row stream — chunk boundaries never leak into
// the result. In particular, when the source holds at most
// options.sample_size rows the reservoir is the whole column in insertion
// order and every path reproduces BuildEstimator over the materialized
// rows byte for byte.
#ifndef SELEST_EST_STREAMING_BUILD_H_
#define SELEST_EST_STREAMING_BUILD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/data/column_source.h"
#include "src/est/estimator_factory.h"
#include "src/est/selectivity_estimator.h"
#include "src/util/status.h"

namespace selest {

enum class StreamingBuildPath {
  kDomainOnly,
  kOnePassFold,
  kReservoirSample,
};

const char* StreamingBuildPathName(StreamingBuildPath path);

// Which path BuildEstimatorStreaming takes for `kind`.
StreamingBuildPath StreamingPathFor(EstimatorKind kind);

struct StreamingBuildOptions {
  // Reservoir capacity; the paper's protocol samples 2000 records (§5.1).
  size_t sample_size = 2000;
  // Seed of the reservoir's replacement RNG. Deterministic: the same
  // (seed, stream) always yields the same sample.
  uint64_t seed = 1;
  // Exponential decay of the reservoir (sample/sampler.h); 0 keeps the
  // classic uniform Algorithm R.
  double reservoir_decay = 0.0;
};

struct StreamingBuild {
  std::unique_ptr<SelectivityEstimator> estimator;
  StreamingBuildPath path = StreamingBuildPath::kReservoirSample;
  // Rows streamed from the source (equals source.rows()).
  uint64_t rows_seen = 0;
  // The reservoir content the build used (empty for kDomainOnly). Returned
  // so callers sharing one source across many configs can reuse it, e.g.
  // for workload generation.
  std::vector<double> sample;
};

// Builds the configured estimator from `source` without materializing it.
// Resets the source before each pass (kOnePassFold under a data-dependent
// smoothing rule is the only config that streams twice). Fails like
// BuildEstimator on malformed domains, non-finite rows, an empty source
// (except kUniform), and unresolvable smoothing parameters; honors the
// "est/build" fault point.
StatusOr<StreamingBuild> BuildEstimatorStreaming(
    ColumnSource& source, const EstimatorConfig& config,
    const StreamingBuildOptions& options = {});

}  // namespace selest

#endif  // SELEST_EST_STREAMING_BUILD_H_
