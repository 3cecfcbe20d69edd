// Shared client-side machinery of the end-to-end benchmark: clocks,
// latency histograms, the seeded input generators, the span tracer and the
// result record every workload fills in.
//
// Everything here runs in the benchmark client. The library is only ever
// reached through its public API, so every timing in this benchmark is
// taken around a public call.
#ifndef SELEST_PERFBENCH_HARNESS_H_
#define SELEST_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/eval/metrics.h"
#include "src/query/range_query.h"
#include "src/util/random.h"

namespace selest::perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Latency histogram: 1 ns buckets below 4096 ns, then 256 log-linear
// sub-buckets per power of two (< 0.4% relative width). Percentiles
// interpolate linearly inside the bucket holding the rank, so a pooled
// percentile over millions of calls keeps its fractional digits.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(uint64_t ns);
  // p in [0, 1]; 0 when empty.
  double Percentile(double p) const;
  uint64_t count() const { return count_; }

 private:
  static size_t BucketOf(uint64_t ns);
  static double BucketLow(size_t bucket);
  static double BucketHigh(size_t bucket);
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// Median of a small sample (setup repetitions, recovery cycles).
double Median(std::vector<double> values);

// The end-to-end latency and rate metrics of a run. A run repeats the same
// work many times: a read-hot pass over its op list, or a catalog-feedback
// or ingest-durable cycle (every cycle replays the same ops from the same
// fresh state). Each repeat is cut into slices, so slice k of one repeat
// is the same work as slice k of every other. On a shared host other
// tenants only ever slow a slice down, and they come and go many times a
// second: the same slice runs at one speed or about a third slower, and a
// run's pooled median moves with how much of the run was slow. So each
// slice keeps its fastest repeats, and a metric is taken over the kept
// repeats together, one per slice: the whole unit of work as it runs when
// nothing else gets in the way. The p50 comes from each slice's repeat
// with the lowest median latency; the p99 and the rate from its repeat
// with the least loop time, which a stall anywhere in the slice lengthens.
// (On ingest-durable a slice's few kernel-column reads take most of its
// time, so its least loop time says little about its median.)
class FastestRepeats {
 public:
  explicit FastestRepeats(size_t slices);
  // One estimate of the slice in progress.
  void Add(uint64_t latency_ns) { current_.push_back(latency_ns); }
  // Ends a repeat of `slice` that took `loop_ns` of loop time.
  void Finish(size_t slice, uint64_t loop_ns);
  double P50() const;
  double P99() const;
  // Estimates per second of the kept repeats' loop time.
  double PerSecond() const;
  // Repeats seen, over all slices.
  uint64_t repeats() const { return repeats_; }

 private:
  struct Slice {
    // The latencies of the repeat with the lowest median, and of the one
    // with the least loop time.
    std::vector<uint64_t> by_median, by_time;
    uint64_t median_ns = std::numeric_limits<uint64_t>::max();
    uint64_t loop_ns = std::numeric_limits<uint64_t>::max();
  };
  std::vector<uint64_t> current_, sorted_;
  std::vector<Slice> slices_;
  uint64_t repeats_ = 0;
};

// `length` ranks in [0, n) with Zipf(s) popularity, P(rank r) proportional
// to 1 / (r + 1)^s. The counts are exact (largest remainder), only the
// order is drawn from `rng`: every seed serves the same popularity mix.
std::vector<uint32_t> ZipfSequence(size_t n, double s, size_t length,
                                   Rng& rng);

// The column data a workload registers is its fixed data set: the paper's
// Table 2 data files (eval/paper_data), generated from this seed, not from
// --seed. The run's seed drives everything the client sends — op order,
// query positions and widths, which column a read goes to — so runs with
// different seeds compare estimators built from the same data.
inline constexpr uint64_t kDataSeed = 1999;

// The paper data file `name` generated with `seed`; aborts on an unknown
// name (the benchmark only asks for registered files).
Dataset PaperFile(const std::string& name, uint64_t seed);

// `count` range queries over `data` with the paper's widths mixed in equal
// shares (1/2/5/10% of the domain, §5.1.2): one GenerateWorkload per width
// (positions centred on a record, never empty). Every four consecutive
// queries hold one of each width, in a seeded order, so the mix is exact
// in any stretch of the list: a query's cost grows with its width, and a
// run's tail percentiles should not depend on how the seed happened to
// bunch the wide ones.
std::vector<RangeQuery> MixedBandQueries(const Dataset& data, size_t count,
                                         Rng& rng);

// The paper's mean relative error pooled over several ErrorReports
// (AccumulateReport per column or registration): every evaluated query
// counts once.
class MrePool {
 public:
  void Add(const ErrorReport& report);
  double value() const;
  size_t count() const { return count_; }

 private:
  double sum_ = 0.0;
  size_t count_ = 0;
};

// FNV-1a digest of the generated operation sequence.
class Digest {
 public:
  void Add(uint64_t word);
  void AddDouble(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

bool BitEqual(double a, double b);
// An answer every estimate must satisfy: finite and inside [0, 1].
bool ValidSelectivity(double value);

double PeakRssMib();

// Total bytes of regular files under `directory` (0 when absent).
uint64_t DirectoryBytes(const std::string& directory);

// ---------------------------------------------------------------------------
// Tracing. A span is recorded around every public call the client makes.
// Roles:
//   kCall  — a call the untraced client makes too;
//   kSplit — a call made only when tracing that re-runs the part of its
//            parent call that belongs to another layer on the same inputs
//            (the estimator kernel on the served instance, the WAL append
//            of an ingested batch, a snapshot clone). Its duration is
//            subtracted from the parent's self time;
//   kProbe — a lookup made only when tracing (to find the served instance
//            or classify a cache miss); pure tracing overhead, charged to
//            the "trace" layer.
// Every call span's parent is the request's root span; splits and probes
// name the call they belong to. Self time: root = its duration minus every
// other span of the request; call = duration minus its splits; split =
// duration; probe = duration (layer "trace"). The self times of one request
// sum to its root duration exactly.
// ---------------------------------------------------------------------------
enum class SpanRole { kRoot, kCall, kSplit, kProbe };

struct Span {
  uint64_t request = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 for the root
  SpanRole role = SpanRole::kCall;
  const char* layer = "";
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t duration() const { return end_ns - start_ns; }
};

// The layers a span can be charged to, in report order.
const std::vector<std::string>& TraceLayers();

class Tracer {
 public:
  // Opens a request of the given kind ("setup", "estimate", "ingest", ...).
  // `kind` must be a string literal.
  void BeginRequest(const char* kind);
  // Records a completed call; returns its span id (parent of its splits).
  uint32_t Call(const char* layer, const char* name, uint64_t start_ns,
                uint64_t end_ns);
  void Split(uint32_t parent, const char* layer, const char* name,
             uint64_t start_ns, uint64_t end_ns);
  void Probe(uint32_t parent, const char* layer, const char* name,
             uint64_t start_ns, uint64_t end_ns);
  // Closes the request: computes self times and keeps spans for the dump.
  void EndRequest();

  // Requests of the workload's loop (every kind but "setup").
  uint64_t LoopRequests() const;
  // Mean self time of `layer` per loop request, ns.
  double SelfNsPerRequest(const std::string& layer) const;
  // p50 over requests of `kind` of their blocking path: the summed self
  // times of every layer but client and trace, which equals the time spent
  // in the request's calls. 0 when the kind never ran.
  double PathP50(const std::string& kind) const;
  uint64_t KindRequests(const std::string& kind) const;

  // Writes spans.csv and self_times.csv under `directory`.
  bool Write(const std::string& directory) const;

 private:
  struct KindStats {
    std::string kind;
    uint64_t requests = 0;
    std::vector<double> total_ns;           // per layer
    std::vector<LatencyHistogram> self_ns;  // per layer, per request
    LatencyHistogram path_ns;
  };
  KindStats* FindKind(const char* kind);
  const KindStats* FindKind(const std::string& kind) const;

  uint64_t request_count_ = 0;
  uint32_t next_id_ = 0;
  uint64_t root_start_ = 0;
  const char* kind_ = "";
  std::vector<Span> open_;
  std::vector<Span> dump_;
  uint64_t dropped_spans_ = 0;
  std::vector<KindStats> kinds_;
};

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;     // scratch for WAL / snapshots, removed at exit
  std::string results_dir;  // where results, spans and self times go
};

struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  // timing sample count (0 for non-timings)
};

struct WorkloadResult {
  uint64_t attempted = 0;  // public calls + correctness checks
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  // End-to-end metrics (untraced phase).
  std::map<std::string, Metric> end_to_end;
  // Metrics that apply to this workload only; reported by name and unit
  // but kept out of BENCHMARK.json's set, which every workload must fill.
  std::map<std::string, Metric> workload_only;
  // Per-layer metrics (traced runs).
  std::map<std::string, Metric> per_layer;
  // Context recorded with the numbers (sizes, digest, policy).
  std::map<std::string, std::string> context;

  void Check(bool ok, const std::string& what);
};

// `total` counted over `cycles` cycles, as a per-cycle count.
Metric PerCycle(uint64_t total, size_t cycles);

// The largest accepted trace.path_gap. The blocking path of a traced
// estimate is its Estimate call: the est share is a re-run of the kernel on
// the served instance and the serving layer's share is the call minus that
// re-run, so the layers add up to the call by construction. The gap against
// the pooled p50 of the interleaved untraced estimates therefore measures
// how much tracing perturbs the call itself; above this bound the traced
// figures no longer describe the untraced run and the run fails.
inline constexpr double kPathGapBound = 0.25;

// The tracing metrics every traced run reports and the span dump: the
// overhead (traced minus untraced loop time per estimate), the gap between
// the traced estimate's blocking path and the pooled untraced p50
// `untraced_p50_ns` (checked against kPathGapBound), and each layer's self
// time per loop request.
void AddTraceMetrics(const Tracer& tracer, double untraced_ns_per_estimate,
                     double traced_ns_per_estimate, uint64_t traced_estimates,
                     double untraced_p50_ns, const std::string& results_dir,
                     WorkloadResult& result);

// Runs the timed loop `step` until `seconds` have elapsed (at least
// `min_steps` steps) and returns the wall time spent inside it.
template <typename Step>
uint64_t RunFor(double seconds, uint64_t min_steps, Step&& step) {
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  const uint64_t start = NowNs();
  uint64_t steps = 0;
  while (steps < min_steps || NowNs() - start < budget) {
    step(steps);
    ++steps;
  }
  return NowNs() - start;
}

WorkloadResult RunReadHot(const RunConfig& config);
WorkloadResult RunCatalogFeedback(const RunConfig& config);
WorkloadResult RunIngestDurable(const RunConfig& config);

}  // namespace selest::perfbench

#endif  // SELEST_PERFBENCH_HARNESS_H_
