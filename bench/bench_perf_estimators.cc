// Micro-benchmark: per-query estimation cost, plus the Fig. 12 sweep
// wall-clock across thread counts.
//
// §3.2 gives the kernel selectivity estimator a Θ(n) scan cost and notes
// that a search-tree organization reduces it to O(log n + k). The sorted-
// sample implementation realizes the latter; Algorithm 1 is the Θ(n)
// literal transcription. Histograms cost O(log k + bins touched).
//
// BM_Fig12SweepWallClock tracks the parallel trajectory: its JSON output
// (--benchmark_format=json) carries `threads`, `speedup_vs_serial`, and
// `mre_bit_identical` counters so successive BENCH_*.json files record how
// the parallel runner scales — and that parallelism never changed a
// result.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/data/domain.h"
#include "src/est/equi_depth_histogram.h"
#include "src/est/equi_width_histogram.h"
#include "src/est/estimator_factory.h"
#include "src/est/guarded_estimator.h"
#include "src/est/kernel_estimator.h"
#include "src/est/sampling_estimator.h"
#include "src/eval/paper_data.h"
#include "src/eval/parallel_experiment.h"
#include "src/smoothing/normal_scale.h"
#include "src/util/random.h"
#include "src/util/simd.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 1.0e6);

std::vector<double> MakeSample(size_t n) {
  Rng rng(42);
  std::vector<double> sample(n);
  for (double& x : sample) x = kDomain.width() * rng.NextDouble();
  return sample;
}

// One percent queries at rotating positions.
RangeQuery NextQuery(Rng& rng) {
  const double width = 0.01 * kDomain.width();
  const double a = (kDomain.width() - width) * rng.NextDouble();
  return {a, a + width};
}

// Fixed bandwidth well under half the query width so the Algorithm 1
// variant's b − a >= 2h precondition holds at every sample size.
constexpr double kBenchBandwidth = 2000.0;

// Single-query benches for the kernel and hybrid: times estimates on the
// active tier, then answers the same 256 queries one at a time under the
// scalar tier and under each vector tier this host supports, five rounds
// with the tiers interleaved, keeping each tier's fastest round (a short
// pass is easily disturbed on a shared host). `speedup_avx2_vs_scalar` and
// `speedup_avx512_vs_scalar` are scalar time over vector time; a tier the
// host lacks reports no counter.
void SingleQueryBench(benchmark::State& state, const SelectivityEstimator& est,
                      uint64_t seed) {
  Rng rng(seed);
  for (auto _ : state) {
    const RangeQuery q = NextQuery(rng);
    benchmark::DoNotOptimize(est.EstimateSelectivity(q.a, q.b));
  }
  std::vector<RangeQuery> queries(256);
  for (RangeQuery& q : queries) q = NextQuery(rng);
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  for (const SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512}) {
    if (SimdTierSupported(tier)) tiers.push_back(tier);
  }
  std::vector<double> best(tiers.size(), 1e300);
  for (int round = 0; round < 5; ++round) {
    for (size_t t = 0; t < tiers.size(); ++t) {
      ScopedSimdTier scoped(tiers[t]);
      double acc = 0.0;
      const auto t0 = std::chrono::steady_clock::now();
      for (const RangeQuery& q : queries) {
        acc += est.EstimateSelectivity(q.a, q.b);
      }
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(acc);
      best[t] = std::min(best[t],
                         std::chrono::duration<double>(t1 - t0).count());
    }
  }
  for (size_t t = 1; t < tiers.size(); ++t) {
    state.counters[std::string("speedup_") + SimdTierName(tiers[t]) +
                   "_vs_scalar"] = best[t] > 0.0 ? best[0] / best[t] : 0.0;
  }
}

KernelEstimator MakeKernel(const std::vector<double>& sample, double bandwidth,
                           BoundaryPolicy boundary) {
  KernelEstimatorOptions options;
  options.bandwidth = bandwidth;
  options.boundary = boundary;
  return KernelEstimator::Create(sample, kDomain, options).value();
}

void BM_KernelIndexed(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  SingleQueryBench(state,
                   MakeKernel(sample, kBenchBandwidth, BoundaryPolicy::kNone),
                   1);
}
BENCHMARK(BM_KernelIndexed)->Range(1 << 10, 1 << 20);

void BM_KernelAlgorithm1LinearScan(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  KernelEstimatorOptions options;
  options.bandwidth = kBenchBandwidth;
  auto est = KernelEstimator::Create(sample, kDomain, options);
  Rng rng(2);
  for (auto _ : state) {
    const RangeQuery q = NextQuery(rng);
    benchmark::DoNotOptimize(est->EstimateSelectivityAlgorithm1(q.a, q.b));
  }
}
BENCHMARK(BM_KernelAlgorithm1LinearScan)->Range(1 << 10, 1 << 20);

// BM_KernelBoundaryKernels differs from BM_KernelIndexed in two factors:
// the bandwidth (normal scale rather than a fixed 2,000) and the boundary
// policy. This row changes the bandwidth alone, so each factor has its own
// row: Indexed → IndexedNormalScale is the bandwidth, IndexedNormalScale →
// BoundaryKernels the boundary treatment.
void BM_KernelIndexedNormalScale(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  SingleQueryBench(state,
                   MakeKernel(sample, NormalScaleBandwidth(sample, kDomain),
                              BoundaryPolicy::kNone),
                   7);
}
BENCHMARK(BM_KernelIndexedNormalScale)->Range(1 << 10, 1 << 18);

void BM_KernelBoundaryKernels(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  SingleQueryBench(state,
                   MakeKernel(sample, NormalScaleBandwidth(sample, kDomain),
                              BoundaryPolicy::kBoundaryKernel),
                   3);
}
BENCHMARK(BM_KernelBoundaryKernels)->Range(1 << 10, 1 << 18);

// The hybrid (factory defaults: boundary-kernel cells) on the paper's
// 2,000-record sample and on a 2^16 one. Builds are cached: the benchmark
// body runs several times per row.
void BM_HybridIndexed(benchmark::State& state) {
  static auto* cache =
      new std::map<int64_t, std::unique_ptr<SelectivityEstimator>>();
  std::unique_ptr<SelectivityEstimator>& slot = (*cache)[state.range(0)];
  if (slot == nullptr) {
    EstimatorConfig config;
    config.kind = EstimatorKind::kHybrid;
    auto built = BuildEstimator(
        MakeSample(static_cast<size_t>(state.range(0))), kDomain, config);
    if (!built.ok()) {
      std::fprintf(stderr, "hybrid build failed: %s\n",
                   built.status().ToString().c_str());
      std::exit(1);
    }
    slot = std::move(built).value();
  }
  SingleQueryBench(state, *slot, 8);
}
BENCHMARK(BM_HybridIndexed)->Arg(2000)->Arg(1 << 16);

void BM_EquiWidthHistogram(benchmark::State& state) {
  const auto sample = MakeSample(2000);
  auto est = EquiWidthHistogram::Create(sample, kDomain,
                                        static_cast<int>(state.range(0)));
  Rng rng(4);
  for (auto _ : state) {
    const RangeQuery q = NextQuery(rng);
    benchmark::DoNotOptimize(est->EstimateSelectivity(q.a, q.b));
  }
}
BENCHMARK(BM_EquiWidthHistogram)->Range(8, 8 << 10);

// Equi-depth on a skewed sample (u³ spread over the domain): its quantile
// edges are far from a uniform grid, so its bins are located through the
// guide table rather than the equi-width arithmetic (DESIGN.md §12).
void BM_EquiDepthHistogram(benchmark::State& state) {
  std::vector<double> sample = MakeSample(2000);
  for (double& x : sample) {
    const double u = x / kDomain.width();
    x = kDomain.width() * u * u * u;
  }
  auto est = EquiDepthHistogram::Create(sample, kDomain,
                                        static_cast<int>(state.range(0)));
  if (!est.ok()) {
    std::fprintf(stderr, "equi-depth build failed: %s\n",
                 est.status().ToString().c_str());
    std::exit(1);
  }
  Rng rng(4);
  for (auto _ : state) {
    const RangeQuery q = NextQuery(rng);
    benchmark::DoNotOptimize(est->EstimateSelectivity(q.a, q.b));
  }
}
BENCHMARK(BM_EquiDepthHistogram)->Range(8, 8 << 10);

// --- Guarded-vs-raw overhead on the kernel hot path ---
//
// Per healthy query the guard adds one relaxed counter increment, two NaN
// tests, a domain clamp, and a finiteness check on the answer. The
// robustness budget is <5% on the kernel hot path; `guard_overhead_pct`
// records the measured figure (raw and guarded timed back to back on the
// same pre-generated query stream each iteration).
void BM_KernelGuardedOverhead(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  KernelEstimatorOptions options;
  options.bandwidth = kBenchBandwidth;
  // Both sides dispatch through the SelectivityEstimator base, exactly as
  // the experiment runners call estimators; the delta is then the guard
  // alone, not a devirtualization artifact.
  auto raw_kernel = KernelEstimator::Create(sample, kDomain, options);
  const std::unique_ptr<SelectivityEstimator> raw =
      std::make_unique<KernelEstimator>(std::move(raw_kernel).value());
  auto inner = KernelEstimator::Create(sample, kDomain, options);
  std::vector<std::unique_ptr<SelectivityEstimator>> chain;
  chain.push_back(
      std::make_unique<KernelEstimator>(std::move(inner).value()));
  const GuardedEstimator guarded(std::move(chain), kDomain);

  Rng rng(6);
  std::vector<RangeQuery> queries(4096);
  for (RangeQuery& q : queries) q = NextQuery(rng);

  double raw_seconds = 0.0;
  double guarded_seconds = 0.0;
  for (auto _ : state) {
    double acc = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const RangeQuery& q : queries) {
      acc += raw->EstimateSelectivity(q.a, q.b);
    }
    const auto t1 = std::chrono::steady_clock::now();
    for (const RangeQuery& q : queries) {
      acc += guarded.EstimateSelectivity(q.a, q.b);
    }
    const auto t2 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(acc);
    raw_seconds += std::chrono::duration<double>(t1 - t0).count();
    guarded_seconds += std::chrono::duration<double>(t2 - t1).count();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * queries.size()));
  state.counters["guard_overhead_pct"] =
      raw_seconds > 0.0
          ? 100.0 * (guarded_seconds - raw_seconds) / raw_seconds
          : 0.0;
}
BENCHMARK(BM_KernelGuardedOverhead)->Arg(1 << 11)->Arg(1 << 16);

void BM_SamplingEstimator(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  auto est = SamplingEstimator::Create(sample);
  Rng rng(5);
  for (auto _ : state) {
    const RangeQuery q = NextQuery(rng);
    benchmark::DoNotOptimize(est->EstimateSelectivity(q.a, q.b));
  }
}
BENCHMARK(BM_SamplingEstimator)->Range(1 << 10, 1 << 20);

// --- The SIMD batch paths (DESIGN.md §12) ---
//
// Each batch benchmark times EstimateSelectivityBatch under the scalar
// tier and under one vector tier back to back on the same pre-generated
// query stream. Both sides take the identical pool fan-out, so
// `speedup_vs_scalar` isolates the vector kernels (per-thread throughput;
// run with SELEST_THREADS=1 for clean single-thread numbers), and
// `bit_identical` re-asserts the exactness contract on every iteration.
// Unsupported tiers report skipped, so one BENCH_estimators.json diffs
// cleanly across hosts of different ISA generations.
//
// Note the scalar tier is itself post-PR code (branch-free searches, SoA
// strips), i.e. a harder baseline than the `std::lower_bound` chains the
// seed shipped. Where a benchmark supplies a `prepr` functor — a faithful
// replica of the seed's per-query algorithm — the extra
// `speedup_vs_prepr` counter reports the vector tier against that
// original baseline too.

SimdTier TierFromArg(int64_t arg) {
  return arg == 2 ? SimdTier::kAvx512 : SimdTier::kAvx2;
}

void BatchTierSpeedup(benchmark::State& state, const SelectivityEstimator& est,
                      size_t num_queries,
                      const std::function<double(const RangeQuery&)>& prepr =
                          nullptr) {
  const SimdTier tier = TierFromArg(state.range(0));
  if (!SimdTierSupported(tier)) {
    state.SkipWithError("simd tier not supported on this host");
    return;
  }
  Rng rng(9);
  std::vector<RangeQuery> queries(num_queries);
  for (RangeQuery& q : queries) q = NextQuery(rng);
  std::vector<double> scalar_out(queries.size());
  std::vector<double> vector_out(queries.size());

  double scalar_seconds = 0.0;
  double vector_seconds = 0.0;
  double prepr_seconds = 0.0;
  bool identical = true;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      ScopedSimdTier scoped(SimdTier::kScalar);
      est.EstimateSelectivityBatch(queries, scalar_out);
    }
    const auto t1 = std::chrono::steady_clock::now();
    {
      ScopedSimdTier scoped(tier);
      est.EstimateSelectivityBatch(queries, vector_out);
    }
    const auto t2 = std::chrono::steady_clock::now();
    scalar_seconds += std::chrono::duration<double>(t1 - t0).count();
    vector_seconds += std::chrono::duration<double>(t2 - t1).count();
    for (size_t i = 0; i < queries.size(); ++i) {
      // Exact comparison: the SIMD contract is bit-identity.
      if (scalar_out[i] != vector_out[i]) identical = false;
    }
    benchmark::DoNotOptimize(vector_out.data());
    if (prepr) {
      double acc = 0.0;
      const auto t3 = std::chrono::steady_clock::now();
      for (const RangeQuery& q : queries) acc += prepr(q);
      const auto t4 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(acc);
      prepr_seconds += std::chrono::duration<double>(t4 - t3).count();
    }
  }
  if (!identical) {
    state.SkipWithError("vector tier diverged from the scalar batch");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
  state.counters["simd_width"] =
      static_cast<double>(SimdOpsForTier(tier)->width);
  state.counters["bit_identical"] = identical ? 1.0 : 0.0;
  state.counters["speedup_vs_scalar"] =
      vector_seconds > 0.0 ? scalar_seconds / vector_seconds : 0.0;
  if (prepr) {
    state.counters["speedup_vs_prepr"] =
        vector_seconds > 0.0 ? prepr_seconds / vector_seconds : 0.0;
  }
}

constexpr size_t kBatchSampleSize = 1 << 16;
constexpr size_t kBatchQueries = 4096;

// Two bin-count regimes: tens of bins is the paper's own configuration
// (h-NS on small samples; 1% queries touch 1–2 bins), while 1024 bins
// spans ~11 bins a query. Both answer from the two partial bins and one
// running-count difference (DESIGN.md §12), so the cost does not grow
// with the bins spanned; `speedup_vs_prepr` is measured against a replica
// of the seed's per-bin walk.
void BM_BatchEquiWidth(benchmark::State& state) {
  static auto* cache = new std::map<int64_t, const EquiWidthHistogram*>();
  const EquiWidthHistogram*& slot = (*cache)[state.range(1)];
  if (slot == nullptr) {
    auto built = EquiWidthHistogram::Create(MakeSample(kBatchSampleSize),
                                            kDomain,
                                            static_cast<int>(state.range(1)));
    if (!built.ok()) {
      std::fprintf(stderr, "equi-width build failed: %s\n",
                   built.status().ToString().c_str());
      std::exit(1);
    }
    slot = new EquiWidthHistogram(std::move(built).value());
  }
  const EquiWidthHistogram* est = slot;
  // The seed's BinnedDensity::Selectivity, std::lower_bound and all — the
  // pre-PR scalar baseline the acceptance speedup is quoted against.
  const auto prepr = [est](const RangeQuery& q) {
    const auto& edges = est->bins().edges();
    const auto& counts = est->bins().counts();
    if (q.a > q.b) return 0.0;
    double mass = 0.0;
    const size_t first = static_cast<size_t>(
        std::lower_bound(edges.begin(), edges.end(), q.a) - edges.begin());
    size_t i = first == 0 ? 0 : first - 1;
    for (; i < counts.size() && edges[i] <= q.b; ++i) {
      const double lo = edges[i];
      const double hi = edges[i + 1];
      const double width = hi - lo;
      if (width <= 0.0) {
        if (lo >= q.a && lo <= q.b) mass += counts[i];
        continue;
      }
      const double overlap = std::min(q.b, hi) - std::max(q.a, lo);
      if (overlap <= 0.0) continue;
      mass += counts[i] * (overlap / width);
    }
    return std::clamp(mass / est->bins().total_count(), 0.0, 1.0);
  };
  BatchTierSpeedup(state, *est, kBatchQueries, prepr);
}
BENCHMARK(BM_BatchEquiWidth)
    ->ArgNames({"tier", "bins"})
    ->Args({1, 64})
    ->Args({2, 64})
    ->Args({1, 1024})
    ->Args({2, 1024})
    ->Unit(benchmark::kMicrosecond);

void BM_BatchKernel(benchmark::State& state) {
  static const auto* est = [] {
    KernelEstimatorOptions options;
    options.bandwidth = kBenchBandwidth;
    auto built =
        KernelEstimator::Create(MakeSample(kBatchSampleSize), kDomain, options);
    return new KernelEstimator(std::move(built).value());
  }();
  BatchTierSpeedup(state, *est, kBatchQueries);
}
BENCHMARK(BM_BatchKernel)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_BatchKernelBoundary(benchmark::State& state) {
  static const auto* est = [] {
    const auto sample = MakeSample(kBatchSampleSize);
    KernelEstimatorOptions options;
    options.bandwidth = NormalScaleBandwidth(sample, kDomain);
    options.boundary = BoundaryPolicy::kBoundaryKernel;
    auto built = KernelEstimator::Create(sample, kDomain, options);
    return new KernelEstimator(std::move(built).value());
  }();
  BatchTierSpeedup(state, *est, kBatchQueries);
}
BENCHMARK(BM_BatchKernelBoundary)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_BatchSampling(benchmark::State& state) {
  static const auto* est = [] {
    auto built = SamplingEstimator::Create(MakeSample(kBatchSampleSize));
    return new SamplingEstimator(std::move(built).value());
  }();
  BatchTierSpeedup(state, *est, kBatchQueries);
}
BENCHMARK(BM_BatchSampling)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_BatchHybrid(benchmark::State& state) {
  static const SelectivityEstimator* est = [] {
    EstimatorConfig config;
    config.kind = EstimatorKind::kHybrid;
    auto built = BuildEstimator(MakeSample(kBatchSampleSize), kDomain, config);
    if (!built.ok()) {
      std::fprintf(stderr, "hybrid build failed: %s\n",
                   built.status().ToString().c_str());
      std::exit(1);
    }
    return built.value().release();
  }();
  BatchTierSpeedup(state, *est, kBatchQueries);
}
BENCHMARK(BM_BatchHybrid)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// --- The Fig. 12 sweep across thread counts ---
//
// One full sweep = the four headline configs of Fig. 12 (equi-width h-NS,
// kernel h-DPI2 with boundary kernels, hybrid, ASH-10) built from the
// standard 2,000-record sample and scored on the 1,000-query file of one
// headline data file — builds and evaluation both included: the plain-build
// source fanned out across configs, then the sweep.

struct Fig12Workload {
  Dataset data;
  ExperimentSetup setup;
  std::vector<EstimatorConfig> configs;

  Fig12Workload(Dataset d, const ProtocolConfig& protocol) : data(std::move(d)) {
    setup = MakeSetup(data, protocol);
  }
};

std::vector<StatusOr<ErrorReport>> RunFig12Sweep(
    const Fig12Workload& workload, const ParallelExecOptions& options) {
  return RunSweep(workload.setup,
                  BuildEstimators(workload.setup, workload.configs, options),
                  options);
}

const Fig12Workload& GetFig12Workload() {
  static const Fig12Workload* workload = [] {
    auto data = MakePaperDataset("n(20)");
    if (!data.ok()) {
      std::fprintf(stderr, "loading n(20) failed: %s\n",
                   data.status().ToString().c_str());
      std::exit(1);
    }
    ProtocolConfig protocol;
    protocol.seed = 17;
    auto* out = new Fig12Workload(std::move(data).value(), protocol);

    EstimatorConfig ewh;
    ewh.kind = EstimatorKind::kEquiWidth;
    out->configs.push_back(ewh);
    EstimatorConfig kernel;
    kernel.kind = EstimatorKind::kKernel;
    kernel.smoothing = SmoothingRule::kDirectPlugIn;
    kernel.boundary = BoundaryPolicy::kBoundaryKernel;
    out->configs.push_back(kernel);
    EstimatorConfig hybrid;
    hybrid.kind = EstimatorKind::kHybrid;
    hybrid.boundary = BoundaryPolicy::kBoundaryKernel;
    out->configs.push_back(hybrid);
    EstimatorConfig ash;
    ash.kind = EstimatorKind::kAverageShifted;
    ash.ash_shifts = 10;
    out->configs.push_back(ash);
    return out;
  }();
  return *workload;
}

// Serial reference: per-sweep wall-clock and the per-config MREs every
// parallel run must reproduce bit-identically.
struct SerialBaseline {
  double seconds_per_sweep = 0.0;
  std::vector<double> mres;
};

const SerialBaseline& GetSerialBaseline() {
  static const SerialBaseline* baseline = [] {
    const Fig12Workload& workload = GetFig12Workload();
    const ParallelExecOptions serial{1};
    // Warm-up run sorts the ground-truth cache and faults in the sample.
    auto warm = RunFig12Sweep(workload, serial);
    auto* out = new SerialBaseline();
    for (const auto& report : warm) {
      if (!report.ok()) {
        std::fprintf(stderr, "fig12 config failed: %s\n",
                     report.status().ToString().c_str());
        std::exit(1);
      }
      out->mres.push_back(report->mean_relative_error);
    }
    constexpr int kReps = 3;
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      auto reports = RunFig12Sweep(workload, serial);
      benchmark::DoNotOptimize(reports);
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    out->seconds_per_sweep = elapsed.count() / kReps;
    return out;
  }();
  return *baseline;
}

void BM_Fig12SweepWallClock(benchmark::State& state) {
  const Fig12Workload& workload = GetFig12Workload();
  const SerialBaseline& baseline = GetSerialBaseline();
  ParallelExecOptions options;
  options.threads = static_cast<size_t>(state.range(0));

  double seconds = 0.0;
  size_t iterations = 0;
  bool identical = true;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto reports = RunFig12Sweep(workload, options);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    seconds += elapsed.count();
    ++iterations;
    for (size_t c = 0; c < reports.size(); ++c) {
      // Exact comparison: the determinism contract is bit-identity.
      if (!reports[c].ok() ||
          reports[c]->mean_relative_error != baseline.mres[c]) {
        identical = false;
      }
    }
    benchmark::DoNotOptimize(reports);
  }
  if (!identical) {
    state.SkipWithError("MRE diverged from the serial baseline");
  }
  state.counters["threads"] = static_cast<double>(options.threads);
  state.counters["mre_bit_identical"] = identical ? 1.0 : 0.0;
  state.counters["speedup_vs_serial"] =
      iterations > 0 && seconds > 0.0
          ? baseline.seconds_per_sweep / (seconds / iterations)
          : 0.0;
}
BENCHMARK(BM_Fig12SweepWallClock)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace selest

// Custom main instead of benchmark_main (mirrors bench_perf_catalog):
// unless the caller already chose a report destination, results also land
// in BENCH_estimators.json so every run leaves a machine-readable artifact
// that tools/bench_diff.py can compare against a previous build's file.
// The host's detected SIMD tier and selest's build type are recorded in
// the JSON context block.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_estimators.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  benchmark::AddCustomContext("simd_tier",
                              selest::SimdTierName(selest::ActiveSimdTier()));
  benchmark::AddCustomContext("selest_build_type", SELEST_BUILD_TYPE);
  int arg_count = static_cast<int>(args.size());
  benchmark::Initialize(&arg_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(arg_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
