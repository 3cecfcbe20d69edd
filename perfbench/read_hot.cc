// read-hot: estimates only, through LiveStatisticsServer::Estimate, on 64
// resident equi-width columns. No WAL, no ingest, no refresh: the serve
// path (registry lookup, generation load, staleness check) plus the
// equi-width kernel.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/catalog/live_server.h"
#include "src/est/estimator_factory.h"
#include "src/eval/paper_data.h"
#include "src/query/ground_truth.h"
#include "src/sample/sampler.h"

namespace selest::perfbench {
namespace {

// Sizes, and where each comes from (perfbench/README.md, "Where the sizes
// come from").
constexpr size_t kColumns = 64;
constexpr size_t kSampleRows = 2000;  // §5.1: 2,000-record samples
constexpr size_t kOps = 1 << 16;      // one pass: bench_perf_server's reads
constexpr double kZipfSkew = 1.0;     // column popularity (an assumption)
constexpr size_t kSetupRepeats = 15;  // fresh registrations per run
constexpr uint64_t kBitCheckEvery = 64;
// Slices of a pass (FastestRepeats): 8,192 estimates, about 2 ms.
constexpr size_t kSliceOps = 8192;

struct Op {
  uint32_t column = 0;
  RangeQuery query;
  size_t truth = 0;  // exact count
};

const char* kRelation = "hot";

std::string AttributeName(size_t column) {
  return "c" + std::to_string(column);
}

EstimatorConfig ColumnConfig() {
  EstimatorConfig config;
  config.kind = EstimatorKind::kEquiWidth;
  config.smoothing = SmoothingRule::kNormalScale;
  return config;
}

}  // namespace

WorkloadResult RunReadHot(const RunConfig& run) {
  WorkloadResult result;
  Rng data_rng(kDataSeed);
  Rng rng(run.seed * 0x9e3779b97f4a7c15ull + 1);

  // Column c is registered from its own 2,000-record sample of Fig. 12's
  // headline file c % 8 (eight columns per file) and answers for the file.
  const std::vector<std::string> names = HeadlineFileNames();
  std::vector<Dataset> files;
  for (const std::string& name : names) {
    files.push_back(PaperFile(name, kDataSeed));
  }
  std::vector<const Dataset*> data(kColumns);
  std::vector<std::vector<double>> samples(kColumns);
  std::vector<std::string> attributes(kColumns);
  for (size_t c = 0; c < kColumns; ++c) {
    data[c] = &files[c % files.size()];
    samples[c] =
        SampleWithoutReplacement(data[c]->values(), kSampleRows, data_rng);
    attributes[c] = AttributeName(c);
  }

  // The op list: Zipf-popular columns (rank r is column r, and the counts
  // are exact, so each seed serves the same popularity mix), each column's
  // queries drawn over its own data.
  const std::vector<uint32_t> columns =
      ZipfSequence(kColumns, kZipfSkew, kOps, rng);
  std::vector<size_t> per_column(kColumns, 0);
  for (const uint32_t column : columns) ++per_column[column];
  std::vector<std::vector<RangeQuery>> queries(kColumns);
  for (size_t c = 0; c < kColumns; ++c) {
    queries[c] = MixedBandQueries(*data[c], per_column[c], rng);
  }
  std::vector<Op> ops(kOps);
  std::vector<size_t> next(kColumns, 0);
  Digest digest;
  for (size_t i = 0; i < kOps; ++i) {
    Op& op = ops[i];
    op.column = columns[i];
    op.query = queries[op.column][next[op.column]++];
    op.truth = GroundTruth(*data[op.column]).Count(op.query);
    digest.Add(op.column);
    digest.AddDouble(op.query.a);
    digest.AddDouble(op.query.b);
  }

  // Set-up: register every column on a fresh server, several times; the
  // last server is the one served from.
  const EstimatorConfig config = ColumnConfig();
  std::unique_ptr<LiveStatisticsServer> server;
  // When tracing, each registration is a request whose build is re-run
  // through BuildEstimator as the est split.
  Tracer tracer;
  std::vector<double> setup_seconds;
  std::vector<double> build_ms;
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    server = std::make_unique<LiveStatisticsServer>(LiveServerOptions{});
    uint64_t traced_ns = 0;
    const uint64_t start = NowNs();
    for (size_t c = 0; c < kColumns; ++c) {
      if (run.trace) tracer.BeginRequest("setup");
      const uint64_t r0 = NowNs();
      const Status status =
          server->RegisterColumn(kRelation, attributes[c], data[c]->domain(),
                                 config, samples[c]);
      const uint64_t r1 = NowNs();
      result.Check(status.ok(), "RegisterColumn " + attributes[c] + ": " +
                                    status.ToString());
      if (!run.trace) continue;
      const uint32_t id = tracer.Call("live_server", "RegisterColumn", r0, r1);
      const uint64_t b0 = NowNs();
      auto built = BuildEstimator(samples[c], data[c]->domain(), config);
      const uint64_t b1 = NowNs();
      result.Check(built.ok(), "BuildEstimator failed");
      tracer.Split(id, "est", "BuildEstimator", b0, b1);
      build_ms.push_back(static_cast<double>(b1 - b0) * 1e-6);
      tracer.EndRequest();
      traced_ns += NowNs() - r1;
    }
    setup_seconds.push_back(
        static_cast<double>(NowNs() - start - traced_ns) * 1e-9);
  }

  // Warm pass (untimed): the accuracy pass and the correctness checks.
  std::vector<double> answers(kOps, 0.0);
  for (size_t i = 0; i < kOps; ++i) {
    const Op& op = ops[i];
    auto served = server->Estimate(kRelation, attributes[op.column], op.query);
    result.Check(served.ok(), "Estimate: " + served.status().ToString());
    answers[i] = served.ok() ? served.value() : -1.0;
    result.Check(ValidSelectivity(answers[i]), "answer outside [0, 1]");
  }
  // The paper's error, per column over that column's queries.
  MrePool served_mre;
  for (size_t c = 0; c < kColumns; ++c) {
    std::vector<size_t> counts;
    std::vector<double> estimates;
    for (size_t i = 0; i < kOps; ++i) {
      if (ops[i].column != c) continue;
      counts.push_back(ops[i].truth);
      estimates.push_back(answers[i]);
    }
    served_mre.Add(AccumulateReport(counts, estimates, data[c]->size()));
  }
  // A seeded subset of served answers must be bit-equal to the current
  // generation's estimator on the same query.
  Rng pick(run.seed ^ 0xb17c4ec5ull);
  for (size_t i = 0; i < kOps; ++i) {
    if (pick.NextUint64(kBitCheckEvery) != 0) continue;
    const Op& op = ops[i];
    auto current = server->CurrentEstimator(kRelation, attributes[op.column]);
    result.Check(current.ok(), "CurrentEstimator failed");
    if (!current.ok()) continue;
    result.Check(
        BitEqual(current.value()->EstimateSelectivity(op.query), answers[i]),
        "served answer differs from CurrentEstimator on " +
            attributes[op.column]);
  }

  // The timed closed loop: one client, the next estimate after the last.
  struct LoopStats {
    LatencyHistogram latency, resolve, kernel;
    uint64_t calls = 0, bad = 0, wall_ns = 0;
  };
  // Every untraced pass is one repeat of the same work.
  FastestRepeats fastest(kOps / kSliceOps);
  // One pass over the op list.
  const auto pass = [&](Tracer* tracer, LoopStats& loop) {
    const uint64_t start = NowNs();
    uint64_t slice_start = start;
    for (size_t i = 0; i < kOps; ++i) {
      if (tracer == nullptr && i > 0 && i % kSliceOps == 0) {
        const uint64_t now = NowNs();
        fastest.Finish(i / kSliceOps - 1, now - slice_start);
        slice_start = now;
      }
      const Op& op = ops[i];
      const std::string& attribute = attributes[op.column];
      if (tracer != nullptr) tracer->BeginRequest("estimate");
      const uint64_t t0 = NowNs();
      auto served = server->Estimate(kRelation, attribute, op.query);
      const uint64_t t1 = NowNs();
      loop.latency.Add(t1 - t0);
      if (tracer == nullptr) fastest.Add(t1 - t0);
      ++loop.calls;
      if (!served.ok() || !ValidSelectivity(served.value())) ++loop.bad;
      if (tracer == nullptr) continue;
      const uint32_t id = tracer->Call("live_server", "Estimate", t0, t1);
      const uint64_t p0 = NowNs();
      auto current = server->CurrentEstimator(kRelation, attribute);
      const uint64_t p1 = NowNs();
      tracer->Probe(id, "live_server", "CurrentEstimator", p0, p1);
      if (current.ok()) {
        const SelectivityEstimator& estimator = *current.value();
        const uint64_t k0 = NowNs();
        const double direct = estimator.EstimateSelectivity(op.query);
        const uint64_t k1 = NowNs();
        tracer->Split(id, "est", "EstimateSelectivity", k0, k1);
        loop.kernel.Add(k1 - k0);
        loop.resolve.Add(t1 - t0 > k1 - k0 ? (t1 - t0) - (k1 - k0) : 0);
        if (served.ok() && !BitEqual(direct, served.value())) ++loop.bad;
      } else {
        ++loop.bad;
      }
      tracer->EndRequest();
    }
    const uint64_t end = NowNs();
    loop.wall_ns += end - start;
    if (tracer == nullptr) {
      fastest.Finish(kOps / kSliceOps - 1, end - slice_start);
    }
  };

  // With --trace 1, untraced and traced passes alternate, so both see the
  // same machine; the untraced passes are the baseline of the overhead.
  LoopStats loop, traced;
  RunFor(run.seconds, run.trace ? 2 : 1, [&](uint64_t step) {
    if (run.trace && step % 2 == 1) {
      pass(&tracer, traced);
    } else {
      pass(nullptr, loop);
    }
  });
  result.attempted += loop.calls;
  result.failed += loop.bad;
  if (loop.bad > 0) result.failures.push_back("invalid answers in the loop");

  result.end_to_end["setup_s"] = {Median(setup_seconds), "s",
                                  setup_seconds.size()};
  result.end_to_end["estimate_p50_ns"] = {fastest.P50(), "ns",
                                          kOps};
  result.end_to_end["estimate_p99_ns"] = {fastest.P99(), "ns",
                                          kOps};
  result.end_to_end["estimates_per_s"] = {fastest.PerSecond(), "1/s", kOps};
  result.end_to_end["served_mre"] = {served_mre.value(), "ratio",
                                     served_mre.count()};
  result.end_to_end["peak_rss_mib"] = {PeakRssMib(), "MiB", 0};

  result.context["columns"] = std::to_string(kColumns);
  result.context["data_files"] = "Fig. 12 headline files, 8 columns each";
  result.context["sample_rows"] = std::to_string(kSampleRows);
  result.context["ops_per_pass"] = std::to_string(kOps);
  result.context["ops_per_slice"] = std::to_string(kSliceOps);
  result.context["slice_repeats"] = std::to_string(fastest.repeats());
  // The pooled figures over every untraced pass, for comparison.
  result.context["pooled_estimate_p50_ns"] =
      std::to_string(loop.latency.Percentile(0.50));
  result.context["pooled_estimates_per_s"] = std::to_string(
      static_cast<double>(loop.calls) /
      (static_cast<double>(loop.wall_ns) * 1e-9));
  result.context["zipf_skew"] = std::to_string(kZipfSkew);
  result.context["wal"] = "off";
  result.context["op_digest"] = std::to_string(digest.value());

  if (!run.trace) return result;

  // Traced passes: a span around every public call, the kernel re-run on
  // the served instance as the est split.
  result.attempted += traced.calls;
  result.failed += traced.bad;
  if (traced.bad > 0) {
    result.failures.push_back("traced loop: invalid or non-bit-equal answer");
  }

  auto& layer = result.per_layer;
  layer["live.estimate_ns.p50"] = {traced.latency.Percentile(0.5), "ns",
                                   traced.latency.count()};
  layer["live.estimate_ns.p99"] = {traced.latency.Percentile(0.99), "ns",
                                   traced.latency.count()};
  layer["live.resolve_ns.p50"] = {traced.resolve.Percentile(0.5), "ns",
                                  traced.resolve.count()};
  layer["est.kernel_ns.p50.equi-width"] = {traced.kernel.Percentile(0.5), "ns",
                                           traced.kernel.count()};
  layer["est.build_ms.equi-width"] = {Median(build_ms), "ms", build_ms.size()};
  // Loop time per estimate with tracing (spans, probes, splits) and
  // without.
  AddTraceMetrics(tracer,
                  static_cast<double>(loop.wall_ns) /
                      static_cast<double>(loop.calls),
                  static_cast<double>(traced.wall_ns) /
                      static_cast<double>(traced.calls),
                  traced.calls, loop.latency.Percentile(0.50),
                  run.results_dir, result);
  return result;
}

}  // namespace selest::perfbench
