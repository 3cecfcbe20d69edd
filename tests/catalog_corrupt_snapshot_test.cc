// Corrupt-snapshot robustness: damaged snapshot bytes and files must
// surface as Status (never a crash), with the code the envelope contract
// promises, and the serving catalog must degrade to a rebuild + write-back
// when its durable tier is damaged. Runs under both sanitizer presets via
// the `robustness` and `catalog` labels.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <filesystem>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/catalog/statistics_catalog.h"
#include "src/data/domain.h"
#include "src/est/estimator_factory.h"
#include "src/est/estimator_snapshot.h"
#include "src/est/adaptive_kernel_estimator.h"
#include "src/est/equi_width_histogram.h"
#include "src/est/hybrid_estimator.h"
#include "src/est/kernel_estimator.h"
#include "src/est/sampling_estimator.h"
#include "src/util/random.h"
#include "src/util/serialize.h"

namespace selest {
namespace {

// A per-test snapshot directory, cleared up front so state persisted by a
// previous run (snapshots survive on purpose) cannot skew the counters.
std::string FreshDir(const std::string& name) {
  // Suffixed with the pid: each gtest case runs as its own ctest process,
  // and concurrent cases of the same binary must not share a directory.
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

std::vector<double> MakeSample(size_t n, const Domain& domain,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<double> sample;
  sample.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    sample.push_back(
        domain.Quantize(domain.lo + rng.NextDouble() * domain.width()));
  }
  return sample;
}

std::vector<uint8_t> MakeSnapshot(EstimatorKind kind = EstimatorKind::kEquiWidth) {
  const Domain domain = BitDomain(12);
  EstimatorConfig config;
  config.kind = kind;
  auto estimator = BuildEstimator(MakeSample(256, domain, 3), domain, config);
  EXPECT_TRUE(estimator.ok());
  auto bytes = SnapshotEstimator(*estimator.value());
  EXPECT_TRUE(bytes.ok());
  return bytes.value();
}

// Envelope layout constants (util/serialize.h): magic u32 | version u32 |
// type tag u32 | payload size u64 | payload | CRC32.
constexpr size_t kVersionOffset = 4;
constexpr size_t kHeaderTagOffset = 8;
constexpr size_t kHeaderBytes = 20;

TEST(CorruptSnapshotTest, TruncationAtEveryPrefixLengthIsStatusNotCrash) {
  const std::vector<uint8_t> bytes = MakeSnapshot();
  // Every truncation point, not just a sample: the reader must never run
  // past the end no matter where the bytes stop.
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    auto result = LoadEstimatorSnapshot(cut);
    ASSERT_FALSE(result.ok()) << "prefix length " << keep;
  }
  // Truncation below the fixed envelope is specifically kOutOfRange.
  std::vector<uint8_t> tiny(bytes.begin(), bytes.begin() + 10);
  EXPECT_EQ(LoadEstimatorSnapshot(tiny).status().code(),
            StatusCode::kOutOfRange);
}

TEST(CorruptSnapshotTest, FlippedPayloadByteIsDataLoss) {
  std::vector<uint8_t> bytes = MakeSnapshot();
  bytes[kHeaderBytes + 3] ^= 0x40;  // inside the payload, behind the CRC
  auto result = LoadEstimatorSnapshot(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(CorruptSnapshotTest, FlippedCrcByteIsDataLoss) {
  std::vector<uint8_t> bytes = MakeSnapshot();
  bytes[bytes.size() - 1] ^= 0x01;  // the stored checksum itself
  auto result = LoadEstimatorSnapshot(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(CorruptSnapshotTest, FutureFormatVersionIsFailedPrecondition) {
  std::vector<uint8_t> bytes = MakeSnapshot();
  bytes[kVersionOffset] = static_cast<uint8_t>(kSnapshotFormatVersion + 9);
  auto result = LoadEstimatorSnapshot(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CorruptSnapshotTest, WrongHeaderTypeTagIsDataLoss) {
  // The payload CRC cannot see the header, so a flipped header tag is only
  // caught by the cross-check against the deserialized estimator's tag.
  std::vector<uint8_t> bytes = MakeSnapshot();
  bytes[kHeaderTagOffset] = static_cast<uint8_t>(EstimatorTag::kSampling);
  auto result = LoadEstimatorSnapshot(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(CorruptSnapshotTest, BadMagicIsDataLoss) {
  std::vector<uint8_t> bytes = MakeSnapshot();
  bytes[0] ^= 0xFF;
  EXPECT_EQ(LoadEstimatorSnapshot(bytes).status().code(),
            StatusCode::kDataLoss);
}

TEST(CorruptSnapshotTest, TrailingBytesAreInvalidArgument) {
  std::vector<uint8_t> bytes = MakeSnapshot();
  bytes.push_back(0x00);
  EXPECT_EQ(LoadEstimatorSnapshot(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CorruptSnapshotTest, EveryEstimatorKindSurvivesPayloadFlips) {
  // Flips that pass the CRC are impossible, but flips the test applies
  // before re-checksumming probe the payload validators: re-wrap a damaged
  // payload with a fresh (valid) CRC and require Status, never a crash or
  // an invalid estimator.
  for (EstimatorKind kind :
       {EstimatorKind::kUniform, EstimatorKind::kSampling,
        EstimatorKind::kEquiWidth, EstimatorKind::kEquiDepth,
        EstimatorKind::kMaxDiff, EstimatorKind::kVOptimal,
        EstimatorKind::kWavelet, EstimatorKind::kAverageShifted,
        EstimatorKind::kKernel, EstimatorKind::kAdaptiveKernel,
        EstimatorKind::kHybrid, EstimatorKind::kFeedback,
        EstimatorKind::kReconstructed, EstimatorKind::kOnlineLearning}) {
    const std::vector<uint8_t> bytes = MakeSnapshot(kind);
    auto view = UnwrapSnapshot(bytes);
    ASSERT_TRUE(view.ok());
    for (size_t i = 0; i < view->payload.size();
         i += std::max<size_t>(1, view->payload.size() / 64)) {
      std::vector<uint8_t> payload = view->payload;
      payload[i] ^= 0x80;
      const std::vector<uint8_t> rewrapped =
          WrapSnapshot(view->type_tag, payload);
      auto result = LoadEstimatorSnapshot(rewrapped);
      // Either the damage was semantically harmless (a sample value
      // changed) or it is rejected — but it never crashes and a returned
      // estimator is always usable.
      if (result.ok()) {
        (void)result.value()->EstimateSelectivity(0.25, 0.75);
      }
    }
  }
}

// A kernel payload in KernelEstimator::SerializeState's layout over [0, 1]:
// h = 0.1, no boundary treatment, `sorted` as the sample strip and
// `left_strip` as the left strip table's nodes.
void WriteKernelPayload(ByteWriter& writer, const std::vector<double>& sorted,
                        const std::vector<double>& left_strip = {}) {
  writer.WriteDoubleVector(sorted);
  writer.WriteU64(sorted.size());
  WriteDomain(writer, ContinuousDomain(0.0, 1.0));
  writer.WriteDouble(0.1);
  WriteKernel(writer, Kernel(KernelType::kEpanechnikov));
  WriteBoundaryPolicy(writer, BoundaryPolicy::kNone);
  writer.WriteU32(64);
  writer.WriteDouble(0.0);  // left strip [0, 0.1]
  writer.WriteDouble(0.1);
  writer.WriteDoubleVector(left_strip);
  writer.WriteDouble(0.9);  // right strip [0.9, 1], no nodes
  writer.WriteDouble(1.0);
  writer.WriteDoubleVector(std::vector<double>{});
}

// The kernel record alone, as a checksummed snapshot.
std::vector<uint8_t> KernelSnapshot(const std::vector<double>& sorted,
                                    const std::vector<double>& left_strip) {
  ByteWriter writer;
  writer.WriteU32(static_cast<uint32_t>(EstimatorTag::kKernel));
  WriteKernelPayload(writer, sorted, left_strip);
  return WrapSnapshot(static_cast<uint32_t>(EstimatorTag::kKernel),
                      writer.bytes());
}

// The same kernel record as the only cell of a hybrid over [0, 1].
std::vector<uint8_t> HybridSnapshot(const std::vector<double>& sorted,
                                    const std::vector<double>& left_strip) {
  ByteWriter writer;
  writer.WriteU32(static_cast<uint32_t>(EstimatorTag::kHybrid));
  writer.WriteDoubleVector(std::vector<double>{0.0, 1.0});
  writer.WriteU32(1);
  WriteDomain(writer, ContinuousDomain(0.0, 1.0));
  writer.WriteDouble(1.0);
  WriteKernelPayload(writer, sorted, left_strip);
  return WrapSnapshot(static_cast<uint32_t>(EstimatorTag::kHybrid),
                      writer.bytes());
}

TEST(CorruptSnapshotTest, KernelPayloadCraftingDecodes) {
  // Control for the damage cases below: the crafted layout is valid.
  const std::vector<double> sorted = {0.05, 0.1, 0.3, 0.7};
  const std::vector<double> strip = {0.0, 0.25, 0.5};
  ByteWriter writer;
  WriteKernelPayload(writer, sorted, strip);
  ByteReader reader(writer.TakeBytes());
  auto direct = KernelEstimator::DeserializeState(reader);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_TRUE(LoadEstimatorSnapshot(KernelSnapshot(sorted, strip)).ok());
  EXPECT_TRUE(LoadEstimatorSnapshot(HybridSnapshot(sorted, strip)).ok());
}

// std::is_sorted compares with <, which is false against NaN, so a strip
// like {0.1, NaN, 0.05, 0.7} passes it; before finiteness was checked this
// decoded and EstimateSelectivity(0, 0.2) answered 0.75. Non-finite samples
// and strip-table nodes are kInvalidArgument (DESIGN.md §8), directly and
// through a hybrid cell.
TEST(CorruptSnapshotTest, NonFiniteKernelSamplesAndStripNodesAreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> good_sorted = {0.05, 0.1, 0.3, 0.7};
  const std::vector<double> good_strip = {0.0, 0.25, 0.5};
  const std::vector<std::pair<std::vector<double>, std::vector<double>>>
      damaged = {
          {{0.1, nan, 0.05, 0.7}, good_strip},
          {{nan, 0.1, 0.3, 0.7}, good_strip},
          {{0.05, 0.1, 0.3, inf}, good_strip},
          {{-inf, 0.1, 0.3, 0.7}, good_strip},
          {good_sorted, {0.0, nan, 0.5}},
          {good_sorted, {0.0, 0.25, inf}},
      };
  for (const auto& [sorted, strip] : damaged) {
    ByteWriter writer;
    WriteKernelPayload(writer, sorted, strip);
    ByteReader reader(writer.TakeBytes());
    auto direct = KernelEstimator::DeserializeState(reader);
    ASSERT_FALSE(direct.ok());
    EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument)
        << direct.status().ToString();
    EXPECT_EQ(LoadEstimatorSnapshot(KernelSnapshot(sorted, strip))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(LoadEstimatorSnapshot(HybridSnapshot(sorted, strip))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

// Payload writers for the other three readers of sorted arrays, over
// [0, 1]. Sampling: the sorted sample alone.
void WriteSamplingPayload(ByteWriter& writer,
                          const std::vector<double>& sorted) {
  writer.WriteDoubleVector(sorted);
}

// Adaptive kernel: `sorted`, a 0.1 bandwidth per sample, base bandwidth
// 0.1, Epanechnikov.
void WriteAdaptiveKernelPayload(ByteWriter& writer,
                                const std::vector<double>& sorted) {
  writer.WriteDoubleVector(sorted);
  writer.WriteDoubleVector(std::vector<double>(sorted.size(), 0.1));
  writer.WriteDouble(0.1);
  WriteDomain(writer, ContinuousDomain(0.0, 1.0));
  WriteKernel(writer, Kernel(KernelType::kEpanechnikov));
}

// Hybrid: `partition` as the edge list, then one kernel cell over [0, 1].
void WriteHybridPayload(ByteWriter& writer,
                        const std::vector<double>& partition) {
  writer.WriteDoubleVector(partition);
  writer.WriteU32(1);
  WriteDomain(writer, ContinuousDomain(0.0, 1.0));
  writer.WriteDouble(1.0);
  WriteKernelPayload(writer, {0.05, 0.1, 0.3, 0.7});
}

// Equi-width over `edges`, one row per bin, bin width 0.5.
void WriteEquiWidthEdgesPayload(ByteWriter& writer,
                                const std::vector<double>& edges) {
  writer.WriteDoubleVector(edges);
  writer.WriteDoubleVector(std::vector<double>(edges.size() - 1, 1.0));
  writer.WriteDouble(static_cast<double>(edges.size() - 1));
  writer.WriteDouble(0.5);
}

// Equi-width over [0, 1] in two bins holding `counts`.
void WriteEquiWidthCountsPayload(ByteWriter& writer,
                                 const std::vector<double>& counts) {
  writer.WriteDoubleVector(std::vector<double>{0.0, 0.5, 1.0});
  writer.WriteDoubleVector(counts);
  writer.WriteDouble(2.0);
  writer.WriteDouble(0.5);
}

// `good` decodes (the control), and every array in `damaged` is
// kInvalidArgument, directly and as a checksummed snapshot.
template <typename Estimator>
void ExpectNonFiniteRejected(
    EstimatorTag tag,
    void (*write)(ByteWriter&, const std::vector<double>&),
    const std::vector<double>& good,
    const std::vector<std::vector<double>>& damaged) {
  const auto decode = [write](const std::vector<double>& values) {
    ByteWriter writer;
    write(writer, values);
    ByteReader reader(writer.TakeBytes());
    return Estimator::DeserializeState(reader);
  };
  const auto snapshot = [write, tag](const std::vector<double>& values) {
    ByteWriter writer;
    writer.WriteU32(static_cast<uint32_t>(tag));
    write(writer, values);
    return WrapSnapshot(static_cast<uint32_t>(tag), writer.bytes());
  };
  auto control = decode(good);
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  ASSERT_TRUE(LoadEstimatorSnapshot(snapshot(good)).ok());
  for (const std::vector<double>& values : damaged) {
    auto direct = decode(values);
    ASSERT_FALSE(direct.ok());
    EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument)
        << direct.status().ToString();
    EXPECT_EQ(LoadEstimatorSnapshot(snapshot(values)).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// The first damaged array of each case below is unsorted around a NaN,
// which std::is_sorted accepts; the rest are sorted but not finite.
TEST(CorruptSnapshotTest, NonFiniteSamplingSampleIsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ExpectNonFiniteRejected<SamplingEstimator>(
      EstimatorTag::kSampling, WriteSamplingPayload, {0.05, 0.1, 0.3, 0.7},
      {{0.1, nan, 0.05, 0.7},
       {nan, 0.1, 0.3, 0.7},
       {0.05, 0.1, 0.3, inf},
       {-inf, 0.1, 0.3, 0.7}});
}

TEST(CorruptSnapshotTest, NonFiniteAdaptiveKernelSamplesAreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ExpectNonFiniteRejected<AdaptiveKernelEstimator>(
      EstimatorTag::kAdaptiveKernel, WriteAdaptiveKernelPayload,
      {0.05, 0.1, 0.3, 0.7},
      {{0.1, nan, 0.05, 0.7},
       {nan, 0.1, 0.3, 0.7},
       {0.05, 0.1, 0.3, inf},
       {-inf, 0.1, 0.3, 0.7}});
}

TEST(CorruptSnapshotTest, NonFiniteHybridPartitionEdgesAreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ExpectNonFiniteRejected<HybridEstimator>(
      EstimatorTag::kHybrid, WriteHybridPayload, {0.0, 0.5, 1.0},
      {{0.5, nan, 0.0, 1.0},
       {nan, 0.5, 1.0},
       {0.0, 0.5, inf},
       {-inf, 0.5, 1.0}});
}

// Every binned kind reads its histogram through ReadBinnedDensity, which
// BinnedDensity::Create validates: a NaN edge passes the pairwise order
// check, and a non-finite count would poison the derived running counts.
TEST(CorruptSnapshotTest, NonFiniteHistogramEdgesAndCountsAreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ExpectNonFiniteRejected<EquiWidthHistogram>(
      EstimatorTag::kEquiWidth, WriteEquiWidthEdgesPayload, {0.0, 0.5, 1.0},
      {{0.5, nan, 0.0, 1.0}, {nan, 0.5, 1.0}, {0.0, 0.5, inf},
       {-inf, 0.5, 1.0}});
  ExpectNonFiniteRejected<EquiWidthHistogram>(
      EstimatorTag::kEquiWidth, WriteEquiWidthCountsPayload, {1.0, 1.0},
      {{nan, 1.0}, {1.0, inf}, {1e308, 1e308}});
}

TEST(CorruptSnapshotTest, CatalogRebuildsThroughCorruptSnapshot) {
  const std::string dir = FreshDir("selest_corrupt_catalog");
  const Domain domain = BitDomain(12);
  const std::vector<double> sample = MakeSample(512, domain, 11);
  EstimatorConfig config;
  config.kind = EstimatorKind::kEquiDepth;

  CatalogKey key;
  {
    // First catalog: cold build, write-back.
    Catalog catalog(InDirectory(dir));
    auto registered =
        catalog.RegisterColumn("orders", "amount", domain, sample, config);
    ASSERT_TRUE(registered.ok());
    key = registered.value();
    ASSERT_TRUE(catalog.Warm(key).ok());
    EXPECT_EQ(catalog.serve_stats().rebuilds, 1u);
    EXPECT_EQ(catalog.serve_stats().writebacks, 1u);
  }

  // Damage the snapshot file in place: flip a payload byte.
  std::string path;
  {
    Catalog catalog(InDirectory(dir));
    auto registered =
        catalog.RegisterColumn("orders", "amount", domain, sample, config);
    ASSERT_TRUE(registered.ok());
    path = catalog.store()->PathFor(key);
  }
  {
    auto bytes = ReadBytesFromFile(path);
    ASSERT_TRUE(bytes.ok());
    bytes.value()[bytes.value().size() / 2] ^= 0x20;
    ASSERT_TRUE(WriteBytesToFile(path, bytes.value()).ok());
  }

  // Second catalog: the corrupt snapshot is counted, the estimate is
  // served from a rebuild, and the repaired snapshot is written back.
  Catalog catalog(InDirectory(dir));
  auto registered =
      catalog.RegisterColumn("orders", "amount", domain, sample, config);
  ASSERT_TRUE(registered.ok());
  auto estimate = catalog.Estimate(key, RangeQuery{10.0, 200.0});
  ASSERT_TRUE(estimate.ok());
  const CatalogServeStats stats = catalog.serve_stats();
  EXPECT_EQ(stats.snapshot_errors, 1u);
  EXPECT_EQ(stats.rebuilds, 1u);
  EXPECT_EQ(stats.writebacks, 1u);
  EXPECT_EQ(stats.snapshot_loads, 0u);

  // The write-back repaired the file: a third catalog loads it cleanly.
  Catalog repaired(InDirectory(dir));
  auto reregistered =
      repaired.RegisterColumn("orders", "amount", domain, sample, config);
  ASSERT_TRUE(reregistered.ok());
  ASSERT_TRUE(repaired.Estimate(key, RangeQuery{10.0, 200.0}).ok());
  EXPECT_EQ(repaired.serve_stats().snapshot_loads, 1u);
  EXPECT_EQ(repaired.serve_stats().rebuilds, 0u);
}

TEST(CorruptSnapshotTest, CatalogRebuildsThroughTruncatedFile) {
  const std::string dir = FreshDir("selest_truncated_catalog");
  const Domain domain = BitDomain(10);
  const std::vector<double> sample = MakeSample(256, domain, 21);
  EstimatorConfig config;  // default equi-width

  Catalog warm(InDirectory(dir));
  auto key = warm.RegisterColumn("t", "x", domain, sample, config);
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(warm.Warm(key.value()).ok());
  const std::string path = warm.store()->PathFor(key.value());

  auto bytes = ReadBytesFromFile(path);
  ASSERT_TRUE(bytes.ok());
  bytes.value().resize(bytes.value().size() / 3);
  ASSERT_TRUE(WriteBytesToFile(path, bytes.value()).ok());

  Catalog catalog(InDirectory(dir));
  auto reregistered = catalog.RegisterColumn("t", "x", domain, sample, config);
  ASSERT_TRUE(reregistered.ok());
  ASSERT_TRUE(catalog.Estimate("t", "x", RangeQuery{1.0, 100.0}).ok());
  EXPECT_EQ(catalog.serve_stats().snapshot_errors, 1u);
  EXPECT_EQ(catalog.serve_stats().rebuilds, 1u);
}

TEST(CorruptSnapshotTest, MissingSnapshotIsARebuildNotAnError) {
  const std::string dir = FreshDir("selest_missing_catalog");
  const Domain domain = BitDomain(10);
  const std::vector<double> sample = MakeSample(256, domain, 31);
  Catalog catalog(InDirectory(dir));
  auto key =
      catalog.RegisterColumn("t", "x", domain, sample, EstimatorConfig{});
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(catalog.Estimate(key.value(), RangeQuery{1.0, 50.0}).ok());
  const CatalogServeStats stats = catalog.serve_stats();
  EXPECT_EQ(stats.snapshot_errors, 0u);  // absence is not corruption
  EXPECT_EQ(stats.rebuilds, 1u);
  EXPECT_EQ(stats.writebacks, 1u);
}

}  // namespace
}  // namespace selest
