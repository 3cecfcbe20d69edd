// catalog-feedback: estimates through Catalog::Estimate with a snapshot
// directory, over the paper's Fig. 12 line-up plus the three query-driven
// kinds, each built from a 2,000-row sample. There are more registrations
// than cache entries, so Zipf popularity drives a steady share of misses
// and snapshot loads; every estimate on a query-driven column is followed
// by Catalog::ObserveTrueSelectivity with the exact truth.
//
// The query-driven estimators grow their state with every observation, so
// a run repeats one seeded cycle — a fresh catalog and snapshot directory,
// set-up, then the op list's prefix once — until its time is up: every
// cycle does the same work from the same state, so slice k of one cycle
// repeats slice k of every other (FastestRepeats).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/catalog/statistics_catalog.h"
#include "src/est/estimator_factory.h"
#include "src/est/estimator_snapshot.h"
#include "src/eval/paper_data.h"
#include "src/query/ground_truth.h"
#include "src/sample/sampler.h"

namespace selest::perfbench {
namespace {

// Sizes, and where each comes from (perfbench/README.md, "Where the sizes
// come from"). The columns are Fig. 12's eight headline files: 80
// registrations.
constexpr size_t kSampleRows = 2000;  // §5.1: 2,000-record samples
// The serving cache: one LRU two entries short of the registrations (an
// assumption). The two coldest keys, and whatever they push out, miss:
// about 0.35% of the estimates, some 115 snapshot loads per pass. With
// CatalogOptions' default (64 entries in 8 shards) about 3.3% miss, the
// estimate p99 is a snapshot load, and its file-system latency spread
// 28% between runs of the same code.
constexpr size_t kCacheCapacity = 78;
constexpr size_t kCacheShards = 1;
// The op list; the first (untimed) cycle runs all of it once and scores
// the answers, every timed cycle runs its prefix kCyclePasses times after
// one set-up (both assumptions). The set-up's eight kernel builds take
// about as long as one pass; four passes give each slice more repeats.
constexpr size_t kOps = 65536;
constexpr size_t kCycleOps = 32768;
constexpr size_t kCyclePasses = 4;
// Slices of a pass (FastestRepeats): 1,024 estimates, about 4 ms. Slice k
// of a later pass of a cycle is the same work as slice k of its first:
// the same estimates, on the same instances except the query-driven ones,
// whose estimates cost the same however many observations they hold.
constexpr size_t kSliceOps = 1024;
// Key popularity (an assumption).
constexpr double kZipfSkew = 1.25;

const char* kRelation = "cat";

// The paper's Fig. 12 line-up (and the histograms it is drawn from) plus
// the three query-driven kinds, in popularity order: the µs-scale kernel
// and hybrid estimates hold the median, and the query-driven keys, each
// estimate on which is followed by a feedback write-back, are the least
// popular.
std::vector<EstimatorConfig> LineUp() {
  std::vector<EstimatorConfig> configs;
  const auto add = [&](EstimatorKind kind) -> EstimatorConfig& {
    EstimatorConfig config;
    config.kind = kind;
    configs.push_back(config);
    return configs.back();
  };
  EstimatorConfig& kernel = add(EstimatorKind::kKernel);
  kernel.smoothing = SmoothingRule::kDirectPlugIn;
  kernel.boundary = BoundaryPolicy::kBoundaryKernel;
  add(EstimatorKind::kHybrid).boundary = BoundaryPolicy::kBoundaryKernel;
  add(EstimatorKind::kAverageShifted).ash_shifts = 10;
  add(EstimatorKind::kSampling);
  add(EstimatorKind::kMaxDiff);
  add(EstimatorKind::kEquiDepth);
  add(EstimatorKind::kEquiWidth);
  add(EstimatorKind::kFeedback);
  add(EstimatorKind::kReconstructed);
  add(EstimatorKind::kOnlineLearning);
  return configs;
}

bool QueryDriven(EstimatorKind kind) {
  return kind == EstimatorKind::kFeedback ||
         kind == EstimatorKind::kReconstructed ||
         kind == EstimatorKind::kOnlineLearning;
}

struct Registration {
  size_t column = 0;
  EstimatorConfig config;
};

struct Op {
  uint32_t registration = 0;
  RangeQuery query;
  size_t truth = 0;  // exact count over the column's file
};

}  // namespace

WorkloadResult RunCatalogFeedback(const RunConfig& run) {
  WorkloadResult result;
  Rng data_rng(kDataSeed + 1);
  Rng rng(run.seed * 0x9e3779b97f4a7c15ull + 2);
  const std::vector<EstimatorConfig> lineup = LineUp();

  // Column c is Fig. 12's headline file c; its registrations are built
  // from one 2,000-record sample of it.
  const std::vector<std::string> files = HeadlineFileNames();
  const size_t num_columns = files.size();
  std::vector<Dataset> data;
  std::vector<std::vector<double>> samples;
  for (const std::string& file : files) {
    data.push_back(PaperFile(file, kDataSeed));
    samples.push_back(
        SampleWithoutReplacement(data.back().values(), kSampleRows, data_rng));
  }

  // Popularity rank r is registration r: kind r / num_columns of the
  // line-up on column r % num_columns, the same for every seed.
  std::vector<Registration> registrations;
  for (size_t k = 0; k < lineup.size(); ++k) {
    for (size_t c = 0; c < num_columns; ++c) {
      registrations.push_back(Registration{c, lineup[k]});
    }
  }
  // Each cycle-sized block of the op list holds the exact Zipf mix.
  std::vector<uint32_t> keys_drawn;
  for (size_t block = 0; block < kOps / kCycleOps; ++block) {
    const std::vector<uint32_t> draws =
        ZipfSequence(registrations.size(), kZipfSkew, kCycleOps, rng);
    keys_drawn.insert(keys_drawn.end(), draws.begin(), draws.end());
  }
  // Each column's queries are drawn over its own file.
  std::vector<size_t> per_column(num_columns, 0);
  for (const uint32_t key : keys_drawn) {
    ++per_column[registrations[key].column];
  }
  std::vector<std::vector<RangeQuery>> queries(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    queries[c] = MixedBandQueries(data[c], per_column[c], rng);
  }
  std::vector<Op> ops(kOps);
  std::vector<size_t> next(num_columns, 0);
  Digest digest;
  for (size_t i = 0; i < kOps; ++i) {
    Op& op = ops[i];
    op.registration = keys_drawn[i];
    const size_t column = registrations[op.registration].column;
    op.query = queries[column][next[column]++];
    op.truth = GroundTruth(data[column]).Count(op.query);
    digest.Add(op.registration);
    digest.AddDouble(op.query.a);
    digest.AddDouble(op.query.b);
  }

  // Traced-phase layer samples.
  struct LayerStats {
    LatencyHistogram estimate, hit_ns, miss_ns, encode_ns, decode_ns;
    std::map<std::string, LatencyHistogram> kernel_ns, observe_ns;
    std::map<std::string, std::vector<double>> build_ms;
    uint64_t estimates = 0, misses = 0, feedbacks = 0;
    double clone_ns = 0.0, feedback_total_ns = 0.0;
    CacheStats cache;        // summed over cycles
    CatalogServeStats serve;  // summed over cycles
  };
  // What the cycles of one phase measured.
  struct PhaseStats {
    size_t cycles = 0;
    LatencyHistogram estimate, feedback;
    std::vector<double> setup_s;
    // Loop time, and the part of it in feedback write-backs.
    uint64_t calls = 0, wall_ns = 0, write_ns = 0;
    std::vector<double> answers;  // scored cycles only, in op order
  };

  Tracer tracer;
  LayerStats layers;
  // The timed cycles' slices. estimates_per_s leaves out the feedback
  // write-backs: a write-back rewrites a snapshot file by rename, its
  // latency follows the file system and spreads more between runs than a
  // gated metric may (README.md).
  FastestRepeats fastest(kCycleOps / kSliceOps);
  const auto run_cycle = [&](bool traced, PhaseStats& phase, size_t num_ops,
                             size_t passes, bool score) {
    const std::string directory = run.work_dir + "/catalog";
    std::filesystem::remove_all(directory);
    CatalogOptions options;
    options.snapshot_directory = directory;
    options.cache_capacity = kCacheCapacity;
    options.cache_shards = kCacheShards;
    auto catalog = std::make_unique<Catalog>(options);
    std::vector<CatalogKey> keys(registrations.size());

    // Set-up: every registration plus WarmAll (builds and snapshot
    // write-backs). Traced, it is one request whose builds are re-run
    // after WarmAll as its est splits.
    if (traced) tracer.BeginRequest("setup");
    const uint64_t start = NowNs();
    for (size_t r = 0; r < registrations.size(); ++r) {
      const Registration& registration = registrations[r];
      const uint64_t r0 = NowNs();
      auto key = catalog->RegisterColumn(
          kRelation, "c" + std::to_string(registration.column),
          data[registration.column].domain(), samples[registration.column],
          registration.config);
      const uint64_t r1 = NowNs();
      result.Check(key.ok(), "RegisterColumn: " + key.status().ToString());
      if (key.ok()) keys[r] = key.value();
      if (traced) tracer.Call("catalog", "RegisterColumn", r0, r1);
    }
    const uint64_t w0 = NowNs();
    const Status warmed = catalog->WarmAll();
    const uint64_t w1 = NowNs();
    result.Check(warmed.ok(), "WarmAll: " + warmed.ToString());
    phase.setup_s.push_back(static_cast<double>(w1 - start) * 1e-9);
    if (traced) {
      const uint32_t id = tracer.Call("catalog", "WarmAll", w0, w1);
      for (const Registration& registration : registrations) {
        const uint64_t b0 = NowNs();
        auto built =
            BuildEstimator(samples[registration.column],
                           data[registration.column].domain(),
                           registration.config);
        const uint64_t b1 = NowNs();
        result.Check(built.ok(), "BuildEstimator failed");
        tracer.Split(id, "est", "BuildEstimator", b0, b1);
        layers.build_ms[EstimatorKindName(registration.config.kind)]
            .push_back(static_cast<double>(b1 - b0) * 1e-6);
      }
      tracer.EndRequest();
    }

    const CacheStats cache_before = catalog->cache_stats();
    uint64_t feedback_sent = 0, bad = 0, write_ns = 0;
    // Timed cycles are cut into slices of kSliceOps ops (FastestRepeats).
    const bool timed = !traced && !score;
    uint64_t slice_start = 0, slice_write_ns = 0;
    // Closes a repeat of `slice`; its loop time leaves out the feedback
    // write-backs, as estimates_per_s does.
    const auto close_slice = [&](size_t slice) {
      const uint64_t now = NowNs();
      fastest.Finish(slice, now - slice_start - slice_write_ns);
      slice_write_ns = 0;
      slice_start = now;
    };
    const uint64_t loop_start = NowNs();
    slice_start = loop_start;
    for (size_t n = 0; n < num_ops * passes; ++n) {
      const size_t i = n % num_ops;
      if (timed && n > 0 && i % kSliceOps == 0) {
        close_slice((n - 1) % num_ops / kSliceOps);
      }
      const Op& op = ops[i];
      const Registration& registration = registrations[op.registration];
      const CatalogKey& key = keys[op.registration];
      const char* kind = EstimatorKindName(registration.config.kind);
      CacheStats before;
      uint64_t c0 = 0, c1 = 0;
      if (traced) {
        tracer.BeginRequest("estimate");
        c0 = NowNs();
        before = catalog->cache_stats();
        c1 = NowNs();
      }
      const uint64_t t0 = NowNs();
      auto served = catalog->Estimate(key, op.query);
      const uint64_t t1 = NowNs();
      phase.estimate.Add(t1 - t0);
      if (timed) fastest.Add(t1 - t0);
      ++phase.calls;
      const double answer = served.ok() ? served.value() : -1.0;
      if (!ValidSelectivity(answer)) ++bad;
      if (score) phase.answers.push_back(answer);
      std::shared_ptr<const SelectivityEstimator> instance;
      if (traced) {
        layers.estimate.Add(t1 - t0);
        const uint32_t id = tracer.Call("catalog", "Estimate", t0, t1);
        tracer.Probe(id, "catalog", "cache_stats", c0, c1);
        const uint64_t c2 = NowNs();
        const CacheStats after = catalog->cache_stats();
        const uint64_t c3 = NowNs();
        tracer.Probe(id, "catalog", "cache_stats", c2, c3);
        ++layers.estimates;
        if (after.misses > before.misses) {
          ++layers.misses;
          layers.miss_ns.Add(t1 - t0);
        }
        const uint64_t g0 = NowNs();
        auto resolved = catalog->GetEstimator(key);
        const uint64_t g1 = NowNs();
        tracer.Probe(id, "catalog", "GetEstimator", g0, g1);
        layers.hit_ns.Add(g1 - g0);
        if (resolved.ok()) {
          instance = resolved.value();
          const uint64_t k0 = NowNs();
          const double direct = instance->EstimateSelectivity(op.query);
          const uint64_t k1 = NowNs();
          tracer.Split(id, "est", "EstimateSelectivity", k0, k1);
          layers.kernel_ns[kind].Add(k1 - k0);
          if (served.ok() && !BitEqual(direct, served.value())) ++bad;
        } else {
          ++bad;
        }
        tracer.EndRequest();
      }
      if (!QueryDriven(registration.config.kind)) continue;

      if (traced) tracer.BeginRequest("feedback");
      const uint64_t f0 = NowNs();
      const double truth = GroundTruth(data[registration.column])
                               .Selectivity(op.query);
      const Status observed =
          catalog->ObserveTrueSelectivity(key, op.query, truth);
      const uint64_t f1 = NowNs();
      phase.feedback.Add(f1 - f0);
      write_ns += f1 - f0;
      slice_write_ns += f1 - f0;
      ++feedback_sent;
      result.Check(observed.ok(),
                   "ObserveTrueSelectivity: " + observed.ToString());
      if (!traced) continue;
      const uint32_t id =
          tracer.Call("catalog", "ObserveTrueSelectivity", f0, f1);
      ++layers.feedbacks;
      layers.feedback_total_ns += static_cast<double>(f1 - f0);
      if (instance != nullptr) {
        // Re-run the write-back's clone and observation on the instance
        // the call started from.
        const uint64_t e0 = NowNs();
        auto bytes = SnapshotEstimator(*instance);
        const uint64_t e1 = NowNs();
        tracer.Split(id, "est", "SnapshotEstimator", e0, e1);
        layers.encode_ns.Add(e1 - e0);
        std::unique_ptr<SelectivityEstimator> clone;
        if (bytes.ok()) {
          const uint64_t d0 = NowNs();
          auto loaded = LoadEstimatorSnapshot(bytes.value());
          const uint64_t d1 = NowNs();
          tracer.Split(id, "est", "LoadEstimatorSnapshot", d0, d1);
          layers.decode_ns.Add(d1 - d0);
          layers.clone_ns += static_cast<double>((e1 - e0) + (d1 - d0));
          if (loaded.ok()) clone = std::move(loaded).value();
        }
        if (clone != nullptr) {
          const uint64_t o0 = NowNs();
          const Status private_observed =
              clone->ObserveTrueSelectivity(op.query, truth);
          const uint64_t o1 = NowNs();
          tracer.Split(id, "feedback", "ObserveTrueSelectivity", o0, o1);
          layers.observe_ns[kind].Add(o1 - o0);
          if (!private_observed.ok()) ++bad;
        } else {
          ++bad;
        }
      }
      tracer.EndRequest();
    }
    if (timed) close_slice((num_ops - 1) / kSliceOps);
    const uint64_t loop_ns = NowNs() - loop_start;
    phase.wall_ns += loop_ns;
    phase.write_ns += write_ns;

    // Every answer valid; feedback_applied equals the observations sent.
    const CatalogServeStats serve = catalog->serve_stats();
    // (Each ObserveTrueSelectivity call was counted by its own check.)
    result.attempted += num_ops * passes;
    result.failed += bad;
    if (bad > 0) result.failures.push_back("invalid or non-bit-equal answers");
    result.Check(serve.feedback_applied == feedback_sent,
                 "feedback_applied " + std::to_string(serve.feedback_applied) +
                     " != observations sent " + std::to_string(feedback_sent));
    result.Check(serve.feedback_rejected == 0, "feedback rejected");
    result.Check(serve.snapshot_errors == 0, "snapshot errors");
    if (traced) {
      const CacheStats cache = catalog->cache_stats();
      layers.cache.evictions += cache.evictions - cache_before.evictions;
      layers.serve.snapshot_loads += serve.snapshot_loads;
      layers.serve.rebuilds += serve.rebuilds;
      layers.serve.writebacks += serve.writebacks;
      layers.serve.snapshot_errors += serve.snapshot_errors;
      layers.serve.snapshot_retries += serve.snapshot_retries;
      layers.serve.feedback_applied += serve.feedback_applied;
      layers.serve.feedback_rejected += serve.feedback_rejected;
    }
    catalog.reset();
    std::filesystem::remove_all(directory);
    ++phase.cycles;
  };
  // The accuracy cycle (untimed): every answer before its own feedback.
  PhaseStats accuracy;
  run_cycle(false, accuracy, kOps, 1, true);

  // With --trace 1, untraced and traced cycles alternate, so both see the
  // same machine; the untraced cycles are the baseline of the overhead.
  PhaseStats phase, traced;
  RunFor(run.seconds, run.trace ? 2 : 1, [&](uint64_t step) {
    if (run.trace && step % 2 == 1) {
      run_cycle(true, traced, kCycleOps, kCyclePasses, false);
    } else {
      run_cycle(false, phase, kCycleOps, kCyclePasses, false);
    }
  });

  const double pooled_p50 = phase.estimate.Percentile(0.50);
  result.end_to_end["setup_s"] = {Median(phase.setup_s), "s",
                                  phase.setup_s.size()};
  result.end_to_end["estimate_p50_ns"] = {fastest.P50(), "ns",
                                          kCycleOps};
  result.end_to_end["estimate_p99_ns"] = {fastest.P99(), "ns",
                                          kCycleOps};
  result.end_to_end["estimates_per_s"] = {fastest.PerSecond(), "1/s",
                                          kCycleOps};
  // The paper's error per registration, over the accuracy cycle's answers
  // (each before its own feedback), pooled overall and per kind.
  MrePool served_mre;
  std::map<std::string, MrePool> kind_mre;
  for (size_t r = 0; r < registrations.size(); ++r) {
    const size_t column = registrations[r].column;
    std::vector<size_t> counts;
    std::vector<double> estimates;
    for (size_t i = 0; i < kOps; ++i) {
      if (ops[i].registration != r) continue;
      counts.push_back(ops[i].truth);
      estimates.push_back(accuracy.answers[i]);
    }
    const ErrorReport report =
        AccumulateReport(counts, estimates, data[column].size());
    served_mre.Add(report);
    kind_mre[EstimatorKindName(registrations[r].config.kind)].Add(report);
  }
  result.end_to_end["served_mre"] = {served_mre.value(), "ratio",
                                     served_mre.count()};
  result.end_to_end["peak_rss_mib"] = {PeakRssMib(), "MiB", 0};
  result.workload_only["feedback_p50_us"] = {
      phase.feedback.Percentile(0.50) * 1e-3, "us", phase.feedback.count()};
  result.workload_only["feedback_p99_us"] = {
      phase.feedback.Percentile(0.99) * 1e-3, "us", phase.feedback.count()};

  result.context["columns"] = std::to_string(num_columns);
  result.context["data_files"] = "Fig. 12 headline files";
  result.context["sample_rows"] = std::to_string(kSampleRows);
  result.context["registrations"] = std::to_string(registrations.size());
  result.context["cache_capacity"] = std::to_string(kCacheCapacity);
  result.context["cache_shards"] = std::to_string(kCacheShards);
  result.context["accuracy_ops"] = std::to_string(kOps);
  result.context["ops_per_cycle"] = std::to_string(kCycleOps);
  result.context["passes_per_cycle"] = std::to_string(kCyclePasses);
  result.context["ops_per_slice"] = std::to_string(kSliceOps);
  result.context["slice_repeats"] = std::to_string(fastest.repeats());
  // The pooled figures over every timed cycle, for comparison.
  result.context["pooled_estimate_p50_ns"] = std::to_string(pooled_p50);
  result.context["pooled_estimates_per_s"] = std::to_string(
      static_cast<double>(phase.calls) /
      (static_cast<double>(phase.wall_ns - phase.write_ns) * 1e-9));
  result.context["zipf_skew"] = std::to_string(kZipfSkew);
  result.context["cycles"] = std::to_string(phase.cycles);
  result.context["op_digest"] = std::to_string(digest.value());
  for (const auto& [kind, pool] : kind_mre) {
    result.context["served_mre." + kind] = std::to_string(pool.value());
  }

  if (!run.trace) return result;

  auto& layer = result.per_layer;
  layer["catalog.estimate_ns.p50"] = {layers.estimate.Percentile(0.5), "ns",
                                      layers.estimate.count()};
  layer["catalog.estimate_ns.p99"] = {layers.estimate.Percentile(0.99), "ns",
                                      layers.estimate.count()};
  layer["catalog.hit_ns.p50"] = {layers.hit_ns.Percentile(0.5), "ns",
                                 layers.hit_ns.count()};
  layer["catalog.miss_us.p50"] = {layers.miss_ns.Percentile(0.5) * 1e-3, "us",
                                  layers.miss_ns.count()};
  layer["cache.hit_ratio"] = {
      layers.estimates == 0
          ? 0.0
          : 1.0 - static_cast<double>(layers.misses) /
                      static_cast<double>(layers.estimates),
      "ratio", layers.estimates};
  const size_t n = traced.cycles;
  layer["cache.evictions"] = PerCycle(layers.cache.evictions, n);
  layer["store.snapshot_loads"] = PerCycle(layers.serve.snapshot_loads, n);
  layer["store.rebuilds"] = PerCycle(layers.serve.rebuilds, n);
  layer["store.writebacks"] = PerCycle(layers.serve.writebacks, n);
  layer["store.snapshot_errors"] = PerCycle(layers.serve.snapshot_errors, n);
  layer["store.snapshot_retries"] = PerCycle(layers.serve.snapshot_retries, n);
  for (const auto& [kind, hist] : layers.kernel_ns) {
    layer["est.kernel_ns.p50." + kind] = {hist.Percentile(0.5), "ns",
                                          hist.count()};
  }
  for (const auto& [kind, values] : layers.build_ms) {
    layer["est.build_ms." + kind] = {Median(values), "ms", values.size()};
  }
  layer["est.snapshot_encode_us"] = {layers.encode_ns.Percentile(0.5) * 1e-3,
                                     "us", layers.encode_ns.count()};
  layer["est.snapshot_decode_us"] = {layers.decode_ns.Percentile(0.5) * 1e-3,
                                     "us", layers.decode_ns.count()};
  for (const auto& [kind, hist] : layers.observe_ns) {
    layer["feedback.observe_us.p50." + kind] = {hist.Percentile(0.5) * 1e-3,
                                                "us", hist.count()};
  }
  layer["feedback.clone_share"] = {
      layers.feedback_total_ns > 0.0
          ? layers.clone_ns / layers.feedback_total_ns
          : 0.0,
      "ratio", layers.feedbacks};
  layer["feedback.applied"] = PerCycle(layers.serve.feedback_applied, n);
  layer["feedback.rejected"] = PerCycle(layers.serve.feedback_rejected, n);

  // Loop time per estimate with tracing (spans, probes, splits) and
  // without.
  AddTraceMetrics(tracer,
                  static_cast<double>(phase.wall_ns) /
                      static_cast<double>(phase.calls),
                  static_cast<double>(traced.wall_ns) /
                      static_cast<double>(traced.calls),
                  traced.calls, pooled_p50, run.results_dir, result);
  result.context["traced_cycles"] = std::to_string(traced.cycles);
  return result;
}

}  // namespace selest::perfbench
