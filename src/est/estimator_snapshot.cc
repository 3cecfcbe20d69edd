#include "src/est/estimator_snapshot.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/est/adaptive_kernel_estimator.h"
#include "src/est/average_shifted_histogram.h"
#include "src/est/equi_depth_histogram.h"
#include "src/est/equi_width_histogram.h"
#include "src/est/guarded_estimator.h"
#include "src/est/hybrid_estimator.h"
#include "src/est/kernel_estimator.h"
#include "src/est/max_diff_histogram.h"
#include "src/est/sampling_estimator.h"
#include "src/est/uniform_estimator.h"
#include "src/est/v_optimal_histogram.h"
#include "src/est/wavelet_histogram.h"
#include "src/feedback/feedback_histogram.h"
#include "src/feedback/reconstructed_distribution.h"
#include "src/online/online_learning.h"

namespace selest {

void WriteDomain(ByteWriter& writer, const Domain& domain) {
  writer.WriteDouble(domain.lo);
  writer.WriteDouble(domain.hi);
  writer.WriteU32(domain.discrete ? 1 : 0);
  writer.WriteU32(static_cast<uint32_t>(domain.bits));
}

StatusOr<Domain> ReadDomain(ByteReader& reader) {
  Domain domain;
  SELEST_ASSIGN_OR_RETURN(domain.lo, reader.ReadDouble());
  SELEST_ASSIGN_OR_RETURN(domain.hi, reader.ReadDouble());
  SELEST_ASSIGN_OR_RETURN(const uint32_t discrete, reader.ReadU32());
  SELEST_ASSIGN_OR_RETURN(const uint32_t bits, reader.ReadU32());
  if (!std::isfinite(domain.lo) || !std::isfinite(domain.hi) ||
      !(domain.lo < domain.hi)) {
    return InvalidArgumentError("snapshot domain is not a finite range");
  }
  if (discrete > 1 || bits > 62) {
    return InvalidArgumentError("snapshot domain flags out of range");
  }
  domain.discrete = discrete != 0;
  domain.bits = static_cast<int>(bits);
  return domain;
}

bool IsFiniteAndSorted(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double x) { return std::isfinite(x); }) &&
         std::is_sorted(values.begin(), values.end());
}

void WriteBinnedDensity(ByteWriter& writer, const BinnedDensity& bins) {
  writer.WriteDoubleVector(bins.edges());
  writer.WriteDoubleVector(bins.counts());
  writer.WriteDouble(bins.total_count());
}

StatusOr<BinnedDensity> ReadBinnedDensity(ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(std::vector<double> edges,
                          reader.ReadDoubleVector());
  SELEST_ASSIGN_OR_RETURN(std::vector<double> counts,
                          reader.ReadDoubleVector());
  SELEST_ASSIGN_OR_RETURN(const double total_count, reader.ReadDouble());
  // BinnedDensity::Create re-validates the histogram invariants (edge
  // monotonicity, count shape, positive total), so a corrupted payload that
  // survives the CRC still cannot build an inconsistent histogram.
  return BinnedDensity::Create(std::move(edges), std::move(counts),
                               total_count);
}

void WriteKernel(ByteWriter& writer, const Kernel& kernel) {
  writer.WriteU32(static_cast<uint32_t>(kernel.type()));
}

StatusOr<Kernel> ReadKernel(ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(const uint32_t raw, reader.ReadU32());
  if (raw > static_cast<uint32_t>(KernelType::kGaussian)) {
    return InvalidArgumentError("snapshot kernel type " + std::to_string(raw) +
                                " is unknown");
  }
  return Kernel(static_cast<KernelType>(raw));
}

void WriteBoundaryPolicy(ByteWriter& writer, BoundaryPolicy policy) {
  writer.WriteU32(static_cast<uint32_t>(policy));
}

StatusOr<BoundaryPolicy> ReadBoundaryPolicy(ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(const uint32_t raw, reader.ReadU32());
  if (raw > static_cast<uint32_t>(BoundaryPolicy::kBoundaryKernel)) {
    return InvalidArgumentError("snapshot boundary policy " +
                                std::to_string(raw) + " is unknown");
  }
  return static_cast<BoundaryPolicy>(raw);
}

Status SerializeEstimator(const SelectivityEstimator& estimator,
                          ByteWriter& writer) {
  const EstimatorTag tag = estimator.SnapshotTypeTag();
  if (tag == EstimatorTag::kNone) {
    return FailedPreconditionError("estimator \"" + estimator.name() +
                                   "\" does not support snapshots");
  }
  writer.WriteU32(static_cast<uint32_t>(tag));
  return estimator.SerializeState(writer);
}

namespace {

// Deserializes a value-type estimator and hoists it onto the heap as the
// base-class pointer the catalog serves.
template <typename T, typename... Args>
StatusOr<std::unique_ptr<SelectivityEstimator>> LoadConcrete(
    ByteReader& reader, Args&&... args) {
  auto state = T::DeserializeState(reader, std::forward<Args>(args)...);
  if (!state.ok()) return state.status();
  return std::unique_ptr<SelectivityEstimator>(
      std::make_unique<T>(std::move(state).value()));
}

// The guarded estimator holds atomics (non-movable), so it is built in
// place from its public constructor instead of via DeserializeState.
StatusOr<std::unique_ptr<SelectivityEstimator>> LoadGuarded(ByteReader& reader,
                                                            int depth) {
  SELEST_ASSIGN_OR_RETURN(const Domain domain, ReadDomain(reader));
  SELEST_ASSIGN_OR_RETURN(const uint32_t length, reader.ReadU32());
  constexpr uint32_t kMaxChainLength = 64;
  if (length > kMaxChainLength) {
    return InvalidArgumentError("snapshot guarded chain of " +
                                std::to_string(length) +
                                " links exceeds the sanity bound");
  }
  std::vector<std::unique_ptr<SelectivityEstimator>> chain;
  chain.reserve(length);
  for (uint32_t i = 0; i < length; ++i) {
    SELEST_ASSIGN_OR_RETURN(std::unique_ptr<SelectivityEstimator> link,
                            DeserializeEstimator(reader, depth + 1));
    chain.push_back(std::move(link));
  }
  // Degradation counters restart at zero: they describe a serving
  // lifetime, not the estimator's state.
  return std::unique_ptr<SelectivityEstimator>(
      std::make_unique<GuardedEstimator>(std::move(chain), domain));
}

}  // namespace

StatusOr<std::unique_ptr<SelectivityEstimator>> DeserializeEstimator(
    ByteReader& reader, int depth) {
  if (depth > kMaxSnapshotDepth) {
    return InvalidArgumentError("snapshot nests estimators deeper than " +
                                std::to_string(kMaxSnapshotDepth));
  }
  SELEST_ASSIGN_OR_RETURN(const uint32_t raw_tag, reader.ReadU32());
  switch (static_cast<EstimatorTag>(raw_tag)) {
    case EstimatorTag::kUniform:
      return LoadConcrete<UniformEstimator>(reader);
    case EstimatorTag::kSampling:
      return LoadConcrete<SamplingEstimator>(reader);
    case EstimatorTag::kEquiWidth:
      return LoadConcrete<EquiWidthHistogram>(reader);
    case EstimatorTag::kEquiDepth:
      return LoadConcrete<EquiDepthHistogram>(reader);
    case EstimatorTag::kMaxDiff:
      return LoadConcrete<MaxDiffHistogram>(reader);
    case EstimatorTag::kVOptimal:
      return LoadConcrete<VOptimalHistogram>(reader);
    case EstimatorTag::kWavelet:
      return LoadConcrete<WaveletHistogram>(reader);
    case EstimatorTag::kAverageShifted:
      return LoadConcrete<AverageShiftedHistogram>(reader);
    case EstimatorTag::kKernel:
      return LoadConcrete<KernelEstimator>(reader);
    case EstimatorTag::kAdaptiveKernel:
      return LoadConcrete<AdaptiveKernelEstimator>(reader);
    case EstimatorTag::kHybrid:
      return LoadConcrete<HybridEstimator>(reader);
    case EstimatorTag::kGuarded:
      return LoadGuarded(reader, depth);
    case EstimatorTag::kFeedback:
      return LoadConcrete<FeedbackHistogram>(reader);
    case EstimatorTag::kReconstructed:
      return LoadConcrete<ReconstructedDistributionEstimator>(reader);
    case EstimatorTag::kOnlineLearning:
      return LoadConcrete<OnlineLearningEstimator>(reader);
    case EstimatorTag::kNone:
      break;
  }
  return InvalidArgumentError("snapshot estimator type tag " +
                              std::to_string(raw_tag) + " is unknown");
}

StatusOr<std::vector<uint8_t>> SnapshotEstimator(
    const SelectivityEstimator& estimator) {
  ByteWriter writer;
  SELEST_RETURN_IF_ERROR(SerializeEstimator(estimator, writer));
  // The payload's leading u32 is the type tag; the envelope repeats it so
  // stores can route snapshots without parsing payloads.
  return WrapSnapshot(static_cast<uint32_t>(estimator.SnapshotTypeTag()),
                      writer.bytes());
}

StatusOr<std::unique_ptr<SelectivityEstimator>> LoadEstimatorSnapshot(
    std::span<const uint8_t> bytes) {
  SELEST_ASSIGN_OR_RETURN(SnapshotView view, UnwrapSnapshot(bytes));
  ByteReader reader(std::move(view.payload));
  SELEST_ASSIGN_OR_RETURN(std::unique_ptr<SelectivityEstimator> estimator,
                          DeserializeEstimator(reader));
  if (static_cast<uint32_t>(estimator->SnapshotTypeTag()) != view.type_tag) {
    // The envelope tag is outside the payload CRC; a flip there is data
    // loss the checksum cannot witness.
    return DataLossError("snapshot envelope tag " +
                         std::to_string(view.type_tag) +
                         " does not match payload estimator \"" +
                         estimator->name() + "\"");
  }
  if (!reader.AtEnd()) {
    return InvalidArgumentError("snapshot payload has " +
                                std::to_string(reader.remaining()) +
                                " trailing bytes");
  }
  return estimator;
}

StatusOr<std::unique_ptr<SelectivityEstimator>> CloneEstimator(
    const SelectivityEstimator& estimator) {
  SELEST_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                          SnapshotEstimator(estimator));
  return LoadEstimatorSnapshot(bytes);
}

}  // namespace selest
