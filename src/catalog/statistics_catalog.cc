#include "src/catalog/statistics_catalog.h"

#include <cmath>

#include "src/est/estimator_snapshot.h"
#include "src/sample/sampler.h"

namespace selest {
namespace {

constexpr uint32_t kFormatVersion = 1;

}  // namespace

void ColumnStatistics::Serialize(ByteWriter& writer) const {
  writer.WriteU32(kFormatVersion);
  writer.WriteString(column);
  writer.WriteDouble(domain.lo);
  writer.WriteDouble(domain.hi);
  writer.WriteU32(domain.discrete ? 1 : 0);
  writer.WriteU32(static_cast<uint32_t>(domain.bits));
  writer.WriteU64(num_records);
  writer.WriteU32(static_cast<uint32_t>(config.kind));
  writer.WriteU32(static_cast<uint32_t>(config.smoothing));
  writer.WriteDouble(config.fixed_smoothing);
  writer.WriteU32(static_cast<uint32_t>(config.dpi_stages));
  writer.WriteU32(static_cast<uint32_t>(config.ash_shifts));
  writer.WriteU32(static_cast<uint32_t>(config.kernel));
  writer.WriteU32(static_cast<uint32_t>(config.boundary));
  writer.WriteDoubleVector(sample);
}

StatusOr<ColumnStatistics> ColumnStatistics::Deserialize(ByteReader& reader) {
  auto version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (version.value() != kFormatVersion) {
    return InvalidArgumentError("unsupported catalog format version " +
                                std::to_string(version.value()));
  }
  ColumnStatistics statistics;
  auto column = reader.ReadString();
  if (!column.ok()) return column.status();
  statistics.column = std::move(column).value();

  auto lo = reader.ReadDouble();
  if (!lo.ok()) return lo.status();
  auto hi = reader.ReadDouble();
  if (!hi.ok()) return hi.status();
  auto discrete = reader.ReadU32();
  if (!discrete.ok()) return discrete.status();
  auto bits = reader.ReadU32();
  if (!bits.ok()) return bits.status();
  if (!(lo.value() < hi.value()) || !std::isfinite(lo.value()) ||
      !std::isfinite(hi.value())) {
    return InvalidArgumentError("corrupt catalog entry: bad domain");
  }
  statistics.domain.lo = lo.value();
  statistics.domain.hi = hi.value();
  statistics.domain.discrete = discrete.value() != 0;
  statistics.domain.bits = static_cast<int>(bits.value());

  auto num_records = reader.ReadU64();
  if (!num_records.ok()) return num_records.status();
  statistics.num_records = num_records.value();

  auto kind = reader.ReadU32();
  if (!kind.ok()) return kind.status();
  if (kind.value() > static_cast<uint32_t>(EstimatorKind::kOnlineLearning)) {
    return InvalidArgumentError("corrupt catalog entry: bad estimator kind");
  }
  statistics.config.kind = static_cast<EstimatorKind>(kind.value());
  auto smoothing = reader.ReadU32();
  if (!smoothing.ok()) return smoothing.status();
  if (smoothing.value() > static_cast<uint32_t>(SmoothingRule::kFixed)) {
    return InvalidArgumentError("corrupt catalog entry: bad smoothing rule");
  }
  statistics.config.smoothing = static_cast<SmoothingRule>(smoothing.value());
  auto fixed = reader.ReadDouble();
  if (!fixed.ok()) return fixed.status();
  statistics.config.fixed_smoothing = fixed.value();
  auto dpi_stages = reader.ReadU32();
  if (!dpi_stages.ok()) return dpi_stages.status();
  statistics.config.dpi_stages = static_cast<int>(dpi_stages.value());
  auto ash_shifts = reader.ReadU32();
  if (!ash_shifts.ok()) return ash_shifts.status();
  statistics.config.ash_shifts = static_cast<int>(ash_shifts.value());
  auto kernel = reader.ReadU32();
  if (!kernel.ok()) return kernel.status();
  if (kernel.value() > static_cast<uint32_t>(KernelType::kGaussian)) {
    return InvalidArgumentError("corrupt catalog entry: bad kernel type");
  }
  statistics.config.kernel = static_cast<KernelType>(kernel.value());
  auto boundary = reader.ReadU32();
  if (!boundary.ok()) return boundary.status();
  if (boundary.value() >
      static_cast<uint32_t>(BoundaryPolicy::kBoundaryKernel)) {
    return InvalidArgumentError("corrupt catalog entry: bad boundary policy");
  }
  statistics.config.boundary =
      static_cast<BoundaryPolicy>(boundary.value());

  auto sample = reader.ReadDoubleVector();
  if (!sample.ok()) return sample.status();
  statistics.sample = std::move(sample).value();
  return statistics;
}

Status StatisticsCatalog::AnalyzeColumn(const Dataset& column,
                                        const EstimatorConfig& config,
                                        size_t sample_size, Rng& rng) {
  if (sample_size == 0 || sample_size > column.size()) {
    return InvalidArgumentError("sample_size must be in [1, column size]");
  }
  ColumnStatistics statistics;
  statistics.column = column.name();
  statistics.domain = column.domain();
  statistics.num_records = column.size();
  statistics.config = config;
  statistics.sample =
      SampleWithoutReplacement(column.values(), sample_size, rng);
  return InstallStatistics(std::move(statistics));
}

Status StatisticsCatalog::InstallStatistics(ColumnStatistics statistics) {
  auto estimator = BuildEstimator(statistics.sample, statistics.domain,
                                  statistics.config);
  if (!estimator.ok()) return estimator.status();
  Entry entry;
  const std::string name = statistics.column;
  entry.statistics = std::move(statistics);
  entry.estimator = std::move(estimator).value();
  entries_.insert_or_assign(name, std::move(entry));
  return Status::Ok();
}

const StatisticsCatalog::Entry* StatisticsCatalog::Find(
    const std::string& column) const {
  const auto it = entries_.find(column);
  return it == entries_.end() ? nullptr : &it->second;
}

StatusOr<double> StatisticsCatalog::EstimateSelectivity(
    const std::string& column, const RangeQuery& query) const {
  const Entry* entry = Find(column);
  if (entry == nullptr) {
    return NotFoundError("no statistics for column '" + column + "'");
  }
  return entry->estimator->EstimateSelectivity(query);
}

StatusOr<double> StatisticsCatalog::EstimateResultSize(
    const std::string& column, const RangeQuery& query) const {
  const Entry* entry = Find(column);
  if (entry == nullptr) {
    return NotFoundError("no statistics for column '" + column + "'");
  }
  const double records = static_cast<double>(entry->statistics.num_records) +
                         static_cast<double>(entry->modifications);
  return entry->estimator->EstimateSelectivity(query) * records;
}

Status StatisticsCatalog::RecordModifications(const std::string& column,
                                              size_t count) {
  const auto it = entries_.find(column);
  if (it == entries_.end()) {
    return NotFoundError("no statistics for column '" + column + "'");
  }
  it->second.modifications += count;
  return Status::Ok();
}

StatusOr<double> StatisticsCatalog::Staleness(
    const std::string& column) const {
  const Entry* entry = Find(column);
  if (entry == nullptr) {
    return NotFoundError("no statistics for column '" + column + "'");
  }
  if (entry->statistics.num_records == 0) return 1.0;
  return static_cast<double>(entry->modifications) /
         static_cast<double>(entry->statistics.num_records);
}

bool StatisticsCatalog::HasColumn(const std::string& column) const {
  return Find(column) != nullptr;
}

std::vector<std::string> StatisticsCatalog::ColumnNames() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

StatusOr<const ColumnStatistics*> StatisticsCatalog::Statistics(
    const std::string& column) const {
  const Entry* entry = Find(column);
  if (entry == nullptr) {
    return NotFoundError("no statistics for column '" + column + "'");
  }
  return &entry->statistics;
}

std::vector<uint8_t> StatisticsCatalog::SaveToBytes() const {
  ByteWriter writer;
  writer.WriteU64(entries_.size());
  for (const auto& [name, entry] : entries_) {
    entry.statistics.Serialize(writer);
  }
  return writer.TakeBytes();
}

StatusOr<std::unique_ptr<StatisticsCatalog>> StatisticsCatalog::LoadFromBytes(
    std::vector<uint8_t> bytes) {
  ByteReader reader(std::move(bytes));
  auto count = reader.ReadU64();
  if (!count.ok()) return count.status();
  auto catalog = std::make_unique<StatisticsCatalog>();
  for (uint64_t i = 0; i < count.value(); ++i) {
    auto statistics = ColumnStatistics::Deserialize(reader);
    if (!statistics.ok()) return statistics.status();
    Status status = catalog->InstallStatistics(std::move(statistics).value());
    if (!status.ok()) return status;
  }
  if (!reader.AtEnd()) {
    return InvalidArgumentError("trailing bytes after catalog payload");
  }
  return catalog;
}

// ---------------------------------------------------------------------------
// Catalog: the build-once/serve-many layer.
// ---------------------------------------------------------------------------

Catalog::Catalog(CatalogOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_shards) {
  if (!options_.snapshot_directory.empty()) {
    store_.emplace(options_.snapshot_directory);
  }
}

StatusOr<CatalogKey> Catalog::RegisterColumn(const std::string& relation,
                                             const std::string& attribute,
                                             const Domain& domain,
                                             std::span<const double> sample,
                                             const EstimatorConfig& config) {
  if (relation.empty() || attribute.empty()) {
    return InvalidArgumentError(
        "catalog registration needs non-empty relation and attribute names");
  }
  auto registration = std::make_shared<Registration>();
  registration->domain = domain;
  registration->sample.assign(sample.begin(), sample.end());
  registration->config = config;
  registration->key =
      CatalogKey{relation, attribute, FingerprintConfig(config)};
  const CatalogKey key = registration->key;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    registry_[key] = std::move(registration);
    default_keys_.emplace(std::make_pair(relation, attribute), key);
  }
  return key;
}

std::shared_ptr<const Catalog::Registration> Catalog::FindRegistration(
    const CatalogKey& key) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto it = registry_.find(key);
  return it == registry_.end() ? nullptr : it->second;
}

StatusOr<std::unique_ptr<SelectivityEstimator>> Catalog::LoadSnapshotWithRetry(
    const CatalogKey& key) {
  std::unique_ptr<SelectivityEstimator> loaded;
  size_t attempts = 0;
  const Status status = RetryWithBackoff(
      options_.retry,
      [&]() -> Status {
        auto result = store_->Get(key);
        if (!result.ok()) return result.status();
        loaded = std::move(result).value();
        return Status::Ok();
      },
      &attempts);
  if (attempts > 1) {
    snapshot_retries_.fetch_add(attempts - 1, std::memory_order_relaxed);
  }
  if (!status.ok()) return status;
  return loaded;
}

Status Catalog::PutSnapshotWithRetry(const CatalogKey& key,
                                     const SelectivityEstimator& estimator) {
  size_t attempts = 0;
  const Status status = RetryWithBackoff(
      options_.retry, [&]() { return store_->Put(key, estimator); },
      &attempts);
  if (attempts > 1) {
    snapshot_retries_.fetch_add(attempts - 1, std::memory_order_relaxed);
  }
  return status;
}

StatusOr<std::shared_ptr<const SelectivityEstimator>> Catalog::GetEstimator(
    const CatalogKey& key) {
  const std::shared_ptr<const Registration> registration =
      FindRegistration(key);
  if (registration == nullptr) {
    return NotFoundError("no catalog registration for " + key.relation + "." +
                         key.attribute);
  }
  if (std::shared_ptr<const SelectivityEstimator> cached = cache_.Lookup(key);
      cached != nullptr) {
    return cached;
  }
  // Cold miss: prefer the disk snapshot; any damage (kDataLoss and
  // friends) is counted and degrades to a rebuild.
  if (store_.has_value()) {
    auto loaded = LoadSnapshotWithRetry(key);
    if (loaded.ok()) {
      std::shared_ptr<const SelectivityEstimator> estimator =
          std::move(loaded).value();
      snapshot_loads_.fetch_add(1, std::memory_order_relaxed);
      cache_.Insert(key, estimator);
      return estimator;
    }
    if (loaded.status().code() != StatusCode::kNotFound) {
      snapshot_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  SELEST_ASSIGN_OR_RETURN(
      std::unique_ptr<SelectivityEstimator> rebuilt,
      BuildEstimator(registration->sample, registration->domain,
                     registration->config));
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const SelectivityEstimator> estimator = std::move(rebuilt);
  if (store_.has_value()) {
    const Status written = PutSnapshotWithRetry(key, *estimator);
    if (written.ok()) {
      writebacks_.fetch_add(1, std::memory_order_relaxed);
    } else {
      snapshot_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  cache_.Insert(key, estimator);
  return estimator;
}

StatusOr<double> Catalog::Estimate(const CatalogKey& key,
                                   const RangeQuery& query) {
  SELEST_ASSIGN_OR_RETURN(
      const std::shared_ptr<const SelectivityEstimator> estimator,
      GetEstimator(key));
  estimates_.fetch_add(1, std::memory_order_relaxed);
  return estimator->EstimateSelectivity(query);
}

StatusOr<double> Catalog::Estimate(const std::string& relation,
                                   const std::string& attribute,
                                   const RangeQuery& query) {
  CatalogKey key;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    const auto it = default_keys_.find(std::make_pair(relation, attribute));
    if (it == default_keys_.end()) {
      return NotFoundError("no catalog registration for " + relation + "." +
                           attribute);
    }
    key = it->second;
  }
  return Estimate(key, query);
}

Status Catalog::ObserveTrueSelectivity(const CatalogKey& key,
                                       const RangeQuery& query,
                                       double true_selectivity) {
  // One write-back at a time: two racing clone-swaps would each start from
  // the same served state and the later Insert would drop the earlier
  // observation.
  std::lock_guard<std::mutex> lock(feedback_mutex_);
  SELEST_ASSIGN_OR_RETURN(
      const std::shared_ptr<const SelectivityEstimator> current,
      GetEstimator(key));
  if (!current->SupportsFeedback()) {
    feedback_rejected_.fetch_add(1, std::memory_order_relaxed);
    return FailedPreconditionError("estimator \"" + current->name() +
                                   "\" for " + key.relation + "." +
                                   key.attribute +
                                   " does not accept query feedback");
  }
  // Clone through a snapshot round-trip: the resident instance may be mid-
  // estimate on another thread, so the observation lands on a private copy
  // that replaces it atomically in the cache (readers holding the old
  // shared_ptr finish against the previous state).
  SELEST_ASSIGN_OR_RETURN(std::unique_ptr<SelectivityEstimator> clone,
                          CloneEstimator(*current));
  SELEST_RETURN_IF_ERROR(
      clone->ObserveTrueSelectivity(query, true_selectivity));
  std::shared_ptr<const SelectivityEstimator> updated = std::move(clone);
  cache_.Insert(key, updated);
  feedback_applied_.fetch_add(1, std::memory_order_relaxed);
  // Persist the adapted state so a cold miss (or a restart) serves the
  // learned estimator, not the build-time prior.
  if (store_.has_value()) {
    const Status written = PutSnapshotWithRetry(key, *updated);
    if (written.ok()) {
      writebacks_.fetch_add(1, std::memory_order_relaxed);
    } else {
      snapshot_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::Ok();
}

Status Catalog::ObserveTrueSelectivity(const std::string& relation,
                                       const std::string& attribute,
                                       const RangeQuery& query,
                                       double true_selectivity) {
  CatalogKey key;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    const auto it = default_keys_.find(std::make_pair(relation, attribute));
    if (it == default_keys_.end()) {
      return NotFoundError("no catalog registration for " + relation + "." +
                           attribute);
    }
    key = it->second;
  }
  return ObserveTrueSelectivity(key, query, true_selectivity);
}

Status Catalog::Warm(const CatalogKey& key) {
  SELEST_ASSIGN_OR_RETURN(
      const std::shared_ptr<const SelectivityEstimator> estimator,
      GetEstimator(key));
  // GetEstimator writes back only on rebuild; a cache hit for a key whose
  // snapshot was deleted out-of-band still needs persisting here.
  if (store_.has_value() && !store_->Contains(key)) {
    const Status written = PutSnapshotWithRetry(key, *estimator);
    if (written.ok()) {
      writebacks_.fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    }
    snapshot_errors_.fetch_add(1, std::memory_order_relaxed);
    return written;
  }
  return Status::Ok();
}

Status Catalog::WarmAll() {
  std::vector<CatalogKey> keys;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    keys.reserve(registry_.size());
    for (const auto& [key, registration] : registry_) keys.push_back(key);
  }
  Status first_error;
  for (const CatalogKey& key : keys) {
    const Status status = Warm(key);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

CatalogServeStats Catalog::serve_stats() const {
  CatalogServeStats stats;
  stats.estimates = estimates_.load(std::memory_order_relaxed);
  stats.snapshot_loads = snapshot_loads_.load(std::memory_order_relaxed);
  stats.snapshot_errors = snapshot_errors_.load(std::memory_order_relaxed);
  stats.rebuilds = rebuilds_.load(std::memory_order_relaxed);
  stats.writebacks = writebacks_.load(std::memory_order_relaxed);
  stats.snapshot_retries =
      snapshot_retries_.load(std::memory_order_relaxed);
  stats.feedback_applied = feedback_applied_.load(std::memory_order_relaxed);
  stats.feedback_rejected =
      feedback_rejected_.load(std::memory_order_relaxed);
  return stats;
}

CacheStats Catalog::cache_stats() const { return cache_.stats(); }

size_t Catalog::num_registrations() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  return registry_.size();
}

}  // namespace selest

