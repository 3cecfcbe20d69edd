#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "src/eval/paper_data.h"
#include "src/query/workload.h"

namespace selest::perfbench {

namespace {

constexpr uint64_t kLinearLimit = 4096;  // 1 ns buckets below this
constexpr int kLinearBits = 12;          // log2(kLinearLimit)
constexpr int kSubBits = 8;              // 256 sub-buckets per octave
constexpr size_t kNumBuckets =
    kLinearLimit + (64 - kLinearBits) * (size_t{1} << kSubBits);

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kNumBuckets, 0) {}

size_t LatencyHistogram::BucketOf(uint64_t ns) {
  if (ns < kLinearLimit) return static_cast<size_t>(ns);
  const int msb = 63 - std::countl_zero(ns);
  const uint64_t sub = (ns >> (msb - kSubBits)) & ((1u << kSubBits) - 1);
  return kLinearLimit +
         static_cast<size_t>(msb - kLinearBits) * (size_t{1} << kSubBits) +
         static_cast<size_t>(sub);
}

double LatencyHistogram::BucketLow(size_t bucket) {
  if (bucket < kLinearLimit) return static_cast<double>(bucket);
  const size_t rel = bucket - kLinearLimit;
  const int msb = static_cast<int>(rel >> kSubBits) + kLinearBits;
  const double sub = static_cast<double>(rel & ((1u << kSubBits) - 1));
  return std::ldexp(1.0 + sub / (1u << kSubBits), msb);
}

double LatencyHistogram::BucketHigh(size_t bucket) {
  if (bucket < kLinearLimit) return static_cast<double>(bucket) + 1.0;
  const size_t rel = bucket - kLinearLimit;
  const int msb = static_cast<int>(rel >> kSubBits) + kLinearBits;
  const double sub = static_cast<double>(rel & ((1u << kSubBits) - 1));
  return std::ldexp(1.0 + (sub + 1.0) / (1u << kSubBits), msb);
}

void LatencyHistogram::Add(uint64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double target = p * static_cast<double>(count_);
  double below = 0.0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double in_bucket = static_cast<double>(buckets_[i]);
    if (below + in_bucket >= target) {
      const double fraction =
          std::clamp((target - below) / in_bucket, 0.0, 1.0);
      return BucketLow(i) + fraction * (BucketHigh(i) - BucketLow(i));
    }
    below += in_bucket;
  }
  return BucketHigh(kNumBuckets - 1);
}

FastestRepeats::FastestRepeats(size_t slices) : slices_(slices) {}

void FastestRepeats::Finish(size_t slice, uint64_t loop_ns) {
  ++repeats_;
  Slice& kept = slices_[slice];
  sorted_ = current_;
  std::nth_element(sorted_.begin(), sorted_.begin() + sorted_.size() / 2,
                   sorted_.end());
  const uint64_t median = sorted_.empty() ? 0 : sorted_[sorted_.size() / 2];
  if (median < kept.median_ns) {
    kept.median_ns = median;
    kept.by_median = current_;
  }
  if (loop_ns < kept.loop_ns) {
    kept.loop_ns = loop_ns;
    kept.by_time = current_;
  }
  current_.clear();
}

double FastestRepeats::P50() const {
  LatencyHistogram latency;
  for (const Slice& slice : slices_) {
    for (const uint64_t ns : slice.by_median) latency.Add(ns);
  }
  return latency.Percentile(0.50);
}

double FastestRepeats::P99() const {
  LatencyHistogram latency;
  for (const Slice& slice : slices_) {
    for (const uint64_t ns : slice.by_time) latency.Add(ns);
  }
  return latency.Percentile(0.99);
}

double FastestRepeats::PerSecond() const {
  uint64_t estimates = 0, ns = 0;
  for (const Slice& slice : slices_) {
    estimates += slice.by_time.size();
    ns += slice.loop_ns;
  }
  return static_cast<double>(estimates) / (static_cast<double>(ns) * 1e-9);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<uint32_t> ZipfSequence(size_t n, double s, size_t length,
                                   Rng& rng) {
  std::vector<double> weight(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
    total += weight[r];
  }
  // Largest remainder: floor of each exact share, then one more to the
  // ranks with the largest fractional parts (ties to the lower rank).
  std::vector<size_t> count(n);
  std::vector<std::pair<double, size_t>> remainder(n);
  size_t assigned = 0;
  for (size_t r = 0; r < n; ++r) {
    const double exact = weight[r] / total * static_cast<double>(length);
    count[r] = static_cast<size_t>(exact);
    assigned += count[r];
    remainder[r] = {exact - static_cast<double>(count[r]), r};
  }
  std::stable_sort(remainder.begin(), remainder.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  for (size_t i = 0; assigned < length; ++i, ++assigned) {
    ++count[remainder[i % n].second];
  }
  std::vector<uint32_t> sequence;
  sequence.reserve(length);
  for (size_t r = 0; r < n; ++r) {
    sequence.insert(sequence.end(), count[r], static_cast<uint32_t>(r));
  }
  for (size_t i = sequence.size(); i > 1; --i) {
    std::swap(sequence[i - 1], sequence[rng.NextUint64(i)]);
  }
  return sequence;
}

Dataset PaperFile(const std::string& name, uint64_t seed) {
  StatusOr<Dataset> data = MakePaperDataset(name, seed);
  if (!data.ok()) {
    std::fprintf(stderr, "paper file %s: %s\n", name.c_str(),
                 data.status().ToString().c_str());
    std::abort();
  }
  return std::move(data).value();
}

std::vector<RangeQuery> MixedBandQueries(const Dataset& data, size_t count,
                                         Rng& rng) {
  static constexpr double kBands[] = {0.01, 0.02, 0.05, 0.10};
  std::vector<RangeQuery> queries;
  if (count == 0) return queries;
  WorkloadConfig config;
  config.num_queries = (count + 3) / 4;
  std::vector<std::vector<RangeQuery>> files;
  for (const double band : kBands) {
    config.query_fraction = band;
    files.push_back(GenerateWorkload(data, config, rng));
  }
  size_t order[] = {0, 1, 2, 3};
  for (size_t group = 0; queries.size() < count; ++group) {
    for (size_t i = 4; i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextUint64(i)]);
    }
    for (const size_t band : order) queries.push_back(files[band][group]);
  }
  queries.resize(count);
  return queries;
}

void MrePool::Add(const ErrorReport& report) {
  sum_ += report.mean_relative_error * static_cast<double>(report.evaluated);
  count_ += report.evaluated;
}

double MrePool::value() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

void Digest::Add(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xff;
    hash_ *= 1099511628211ull;
  }
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool ValidSelectivity(double value) {
  return std::isfinite(value) && value >= 0.0 && value <= 1.0;
}

double PeakRssMib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DirectoryBytes(const std::string& directory) {
  std::error_code ec;
  uint64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(directory, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

const std::vector<std::string>& TraceLayers() {
  static const std::vector<std::string> layers{
      "client", "live_server", "catalog", "durability",
      "est",    "feedback",    "exec",    "trace"};
  return layers;
}

namespace {

size_t LayerIndex(const char* layer) {
  const std::vector<std::string>& layers = TraceLayers();
  for (size_t i = 0; i < layers.size(); ++i) {
    if (layers[i] == layer) return i;
  }
  return 0;  // unknown layers are charged to the client
}

constexpr const char* kSetupKind = "setup";
// Bound of the in-memory span dump; self times cover every request.
constexpr size_t kMaxDumpSpans = 200000;

}  // namespace

void Tracer::BeginRequest(const char* kind) {
  open_.clear();
  kind_ = kind;
  next_id_ = 1;
  root_start_ = NowNs();
}

uint32_t Tracer::Call(const char* layer, const char* name, uint64_t start_ns,
                      uint64_t end_ns) {
  const uint32_t id = ++next_id_;
  open_.push_back(Span{request_count_, id, 1, SpanRole::kCall, layer, name,
                       start_ns, end_ns});
  return id;
}

void Tracer::Split(uint32_t parent, const char* layer, const char* name,
                   uint64_t start_ns, uint64_t end_ns) {
  open_.push_back(Span{request_count_, ++next_id_, parent, SpanRole::kSplit,
                       layer, name, start_ns, end_ns});
}

void Tracer::Probe(uint32_t parent, const char* layer, const char* name,
                   uint64_t start_ns, uint64_t end_ns) {
  open_.push_back(Span{request_count_, ++next_id_, parent, SpanRole::kProbe,
                       layer, name, start_ns, end_ns});
}

Tracer::KindStats* Tracer::FindKind(const char* kind) {
  for (KindStats& stats : kinds_) {
    if (stats.kind == kind) return &stats;
  }
  const size_t layers = TraceLayers().size();
  kinds_.push_back(KindStats{kind, 0, std::vector<double>(layers, 0.0),
                             std::vector<LatencyHistogram>(layers),
                             LatencyHistogram()});
  return &kinds_.back();
}

const Tracer::KindStats* Tracer::FindKind(const std::string& kind) const {
  for (const KindStats& stats : kinds_) {
    if (stats.kind == kind) return &stats;
  }
  return nullptr;
}

void Tracer::EndRequest() {
  const uint64_t root_end = NowNs();
  const Span root{request_count_, 1,     0,           SpanRole::kRoot,
                  "client",       kind_, root_start_, root_end};
  static const size_t kTraceLayer = LayerIndex("trace");
  const size_t layers = TraceLayers().size();
  double self[16] = {};
  bool present[16] = {};
  double children = 0.0;
  uint64_t path = 0;
  for (const Span& span : open_) {
    const double d = static_cast<double>(span.duration());
    children += d;
    const size_t layer =
        span.role == SpanRole::kProbe ? kTraceLayer : LayerIndex(span.layer);
    present[layer] = true;
    if (span.role != SpanRole::kCall) {
      self[layer] += d;
      continue;
    }
    path += span.duration();
    double splits = 0.0;
    for (const Span& other : open_) {
      if (other.parent == span.id && other.role == SpanRole::kSplit) {
        splits += static_cast<double>(other.duration());
      }
    }
    self[layer] += d - splits;
  }
  self[0] += static_cast<double>(root.duration()) - children;
  present[0] = true;

  KindStats* stats = FindKind(kind_);
  ++stats->requests;
  stats->path_ns.Add(path);
  for (size_t i = 0; i < layers; ++i) {
    if (!present[i]) continue;
    stats->total_ns[i] += self[i];
    stats->self_ns[i].Add(
        self[i] > 0.0 ? static_cast<uint64_t>(std::llround(self[i])) : 0);
  }
  ++request_count_;

  if (dump_.size() + open_.size() + 1 <= kMaxDumpSpans) {
    dump_.push_back(root);
    dump_.insert(dump_.end(), open_.begin(), open_.end());
  } else {
    dropped_spans_ += open_.size() + 1;
  }
}

uint64_t Tracer::LoopRequests() const {
  uint64_t requests = 0;
  for (const KindStats& stats : kinds_) {
    if (stats.kind != kSetupKind) requests += stats.requests;
  }
  return requests;
}

double Tracer::SelfNsPerRequest(const std::string& layer) const {
  const uint64_t requests = LoopRequests();
  if (requests == 0) return 0.0;
  const size_t index = LayerIndex(layer.c_str());
  double total = 0.0;
  for (const KindStats& stats : kinds_) {
    if (stats.kind != kSetupKind) total += stats.total_ns[index];
  }
  return total / static_cast<double>(requests);
}

double Tracer::PathP50(const std::string& kind) const {
  const KindStats* stats = FindKind(kind);
  return stats == nullptr ? 0.0 : stats->path_ns.Percentile(0.5);
}

uint64_t Tracer::KindRequests(const std::string& kind) const {
  const KindStats* stats = FindKind(kind);
  return stats == nullptr ? 0 : stats->requests;
}

bool Tracer::Write(const std::string& directory) const {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  std::ofstream spans(directory + "/spans.csv");
  if (!spans) return false;
  static const char* kRoles[] = {"root", "call", "split", "probe"};
  spans << "request,span,parent,role,layer,name,start_ns,end_ns\n";
  for (const Span& s : dump_) {
    spans << s.request << ',' << s.id << ',' << s.parent << ','
          << kRoles[static_cast<int>(s.role)] << ',' << s.layer << ','
          << s.name << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
  std::ofstream table(directory + "/self_times.csv");
  if (!table) return false;
  table << "# requests=" << request_count_ << " dumped_spans=" << dump_.size()
        << " dropped_spans=" << dropped_spans_ << "\n";
  table << "# self time per layer and request kind; a probe's time is "
           "charged to the trace layer\n";
  table << "kind,requests,layer,requests_with_layer,total_self_ns,"
           "self_ns_per_request,self_ns_p50,share_of_kind\n";
  const std::vector<std::string>& layers = TraceLayers();
  for (const KindStats& stats : kinds_) {
    double all = 0.0;
    for (double ns : stats.total_ns) all += ns;
    for (size_t i = 0; i < layers.size(); ++i) {
      if (stats.self_ns[i].count() == 0) continue;
      table << stats.kind << ',' << stats.requests << ',' << layers[i] << ','
            << stats.self_ns[i].count() << ',' << stats.total_ns[i] << ','
            << stats.total_ns[i] / static_cast<double>(stats.requests) << ','
            << stats.self_ns[i].Percentile(0.5) << ','
            << (all > 0.0 ? stats.total_ns[i] / all : 0.0) << '\n';
    }
  }
  return static_cast<bool>(spans) && static_cast<bool>(table);
}

Metric PerCycle(uint64_t total, size_t cycles) {
  return Metric{static_cast<double>(total) / static_cast<double>(cycles),
                "count", cycles};
}

void AddTraceMetrics(const Tracer& tracer, double untraced_ns_per_estimate,
                     double traced_ns_per_estimate, uint64_t traced_estimates,
                     double untraced_p50_ns, const std::string& results_dir,
                     WorkloadResult& result) {
  auto& layer = result.per_layer;
  const double overhead = traced_ns_per_estimate - untraced_ns_per_estimate;
  layer["trace.overhead_ns_per_request"] = {overhead, "ns", traced_estimates};
  layer["trace.overhead_share"] = {overhead / untraced_ns_per_estimate,
                                   "ratio", traced_estimates};
  const double path = tracer.PathP50("estimate");
  const double gap = std::abs(path - untraced_p50_ns) / untraced_p50_ns;
  layer["trace.path_gap"] = {gap, "ratio", tracer.KindRequests("estimate")};
  result.Check(gap <= kPathGapBound,
               "trace.path_gap " + std::to_string(gap) + " above its bound " +
                   std::to_string(kPathGapBound));
  for (const std::string& name : TraceLayers()) {
    layer["self." + name + ".ns_per_request"] = {
        tracer.SelfNsPerRequest(name), "ns", tracer.LoopRequests()};
  }
  result.context["trace.path_ns"] = std::to_string(path);
  result.context["trace.untraced_p50_ns"] = std::to_string(untraced_p50_ns);
  if (!tracer.Write(results_dir)) {
    result.Check(false, "could not write the span dump");
  }
}

void WorkloadResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

}  // namespace selest::perfbench
