// ingest-durable: durable Ingest batches interleaved with Estimate reads on
// a LiveStatisticsServer with its write-ahead log on (default flush policy:
// one fdatasync per batch), snapshot write-back of every generation, and
// background refreshes triggered by ingest volume. Fixed checkpoints wait
// for the refreshes, refresh synchronously and measure accuracy against
// every acknowledged row. Each cycle ends by dropping the server (the
// crash) and recovering every column on a fresh one.
//
// A run repeats the same seeded cycle until its time is up, so every cycle
// does the same work and slice k of one cycle repeats slice k of every
// other (FastestRepeats).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/catalog/live_server.h"
#include "src/durability/recovery_manager.h"
#include "src/durability/wal.h"
#include "src/est/estimator_factory.h"
#include "src/query/ground_truth.h"

namespace selest::perfbench {
namespace {

// Sizes, and where each comes from (perfbench/README.md, "Where the sizes
// come from"). The reservoir is LiveServerOptions' default of 2,000 rows,
// the paper's sample size.
constexpr size_t kRegistrationRows = 1 << 14;  // bench_perf_durability
constexpr size_t kBatches = 512;               // per cycle: the same
constexpr size_t kBatchRows = 256;             // the same
constexpr size_t kRefreshIngestRows = 4096;    // bench_perf_server
// Probe queries per column and checkpoint: sixteen times
// bench_perf_server's 256, so that served_mre, a function of the seed's
// probes, varies little between seeds (an assumption).
constexpr size_t kProbeQueries = 4096;
// Reads per batch (an assumption): few enough that the write path is
// most of the loop. At bench_perf_server's ratio (65,536 reads over 64
// batches of 512 rows, 512 per 256-row batch) the kernel column's reads
// alone took about 85% of it.
constexpr size_t kReadsPerBatch = 8;
constexpr size_t kCheckpoints = 4;     // per cycle: an assumption
// Slices of an untraced cycle (FastestRepeats): 16 batches and their 128
// reads.
constexpr size_t kSliceBatches = 16;

const char* kRelation = "live";

struct ColumnSpec {
  std::string attribute;
  std::string file;  // the paper data file the column streams
  EstimatorConfig config;
};

// Four of Fig. 12's headline files; the exact fold path (equi-width) on
// two of them, equi-depth's bounded-drift fold and the reservoir-rebuilt
// boundary kernel on the other two.
std::vector<ColumnSpec> Columns() {
  std::vector<ColumnSpec> columns;
  const auto add = [&](const char* file,
                       EstimatorKind kind) -> EstimatorConfig& {
    ColumnSpec spec;
    spec.attribute = "c" + std::to_string(columns.size());
    spec.file = file;
    spec.config.kind = kind;
    columns.push_back(spec);
    return columns.back().config;
  };
  add("u(20)", EstimatorKind::kEquiWidth);
  add("arap1", EstimatorKind::kEquiWidth);
  add("n(20)", EstimatorKind::kEquiDepth);
  add("e(20)", EstimatorKind::kKernel).boundary =
      BoundaryPolicy::kBoundaryKernel;
  return columns;
}

struct Read {
  uint32_t column = 0;
  RangeQuery query;
};

struct Batch {
  uint32_t column = 0;
  std::vector<double> rows;
  std::vector<Read> reads;
};

struct Checkpoint {
  // Per column: probe queries, their exact counts over every row
  // acknowledged up to this checkpoint, and that row count.
  std::vector<std::vector<RangeQuery>> queries;
  std::vector<std::vector<size_t>> counts;
  std::vector<size_t> rows;
};

// The whole seeded cycle: registration rows, batches, checkpoints.
struct CyclePlan {
  std::vector<Domain> domains;
  std::vector<std::vector<double>> initial;
  std::vector<Batch> batches;
  std::vector<Checkpoint> checkpoints;  // after every kBatches/kCheckpoints
  std::vector<uint64_t> acknowledged;   // rows per column at the end
  uint64_t digest = 0;
};

CyclePlan MakePlan(const std::vector<ColumnSpec>& columns, uint64_t seed) {
  CyclePlan plan;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
  Digest digest;
  const size_t n = columns.size();
  // Each column streams its file in record order: the registration rows,
  // then its batches, which go round-robin over the columns. A fixed order
  // keeps each column's refreshes at the same points of the cycle for every
  // seed: until its first refresh the kernel column serves its
  // registration build over all 16,384 rows, about eight times the cost of
  // a 2,000-row reservoir rebuild, and a seeded order moved the estimate
  // p99 by a third between seeds. For the same reason every batch's reads
  // go to every column equally; the seed orders them and places the
  // queries.
  std::vector<Dataset> files;
  std::vector<std::vector<double>> seen(n);
  std::vector<std::vector<RangeQuery>> read_queries(n);
  for (size_t c = 0; c < n; ++c) {
    files.push_back(PaperFile(columns[c].file, kDataSeed + 2));
    const std::vector<double>& values = files[c].values();
    plan.domains.push_back(files[c].domain());
    plan.initial.emplace_back(values.begin(),
                              values.begin() + kRegistrationRows);
    seen[c] = plan.initial[c];
    // Reads are placed over the registration rows.
    const Dataset registered(columns[c].file, files[c].domain(),
                             plan.initial[c]);
    read_queries[c] = MixedBandQueries(
        registered, kBatches * kReadsPerBatch / n + 1, rng);
  }
  std::vector<size_t> next_read(n, 0);
  for (size_t b = 0; b < kBatches; ++b) {
    Batch batch;
    batch.column = static_cast<uint32_t>(b % n);
    const std::vector<double>& values = files[batch.column].values();
    const size_t first = seen[batch.column].size();
    batch.rows.assign(values.begin() + first,
                      values.begin() + first + kBatchRows);
    std::vector<double>& target = seen[batch.column];
    target.insert(target.end(), batch.rows.begin(), batch.rows.end());
    digest.Add(batch.column);
    const std::vector<uint32_t> read_columns =
        ZipfSequence(n, 0.0, kReadsPerBatch, rng);
    for (size_t r = 0; r < kReadsPerBatch; ++r) {
      Read read;
      read.column = read_columns[r];
      read.query = read_queries[read.column][next_read[read.column]++];
      digest.Add(read.column);
      digest.AddDouble(read.query.a);
      digest.AddDouble(read.query.b);
      batch.reads.push_back(read);
    }
    plan.batches.push_back(std::move(batch));
    if ((b + 1) % (kBatches / kCheckpoints) != 0) continue;
    Checkpoint checkpoint;
    for (size_t c = 0; c < n; ++c) {
      const Dataset acknowledged(columns[c].file, files[c].domain(), seen[c]);
      const GroundTruth truth(acknowledged);
      std::vector<RangeQuery> queries =
          MixedBandQueries(acknowledged, kProbeQueries, rng);
      std::vector<size_t> counts;
      for (const RangeQuery& query : queries) {
        counts.push_back(truth.Count(query));
        digest.AddDouble(query.a);
        digest.AddDouble(query.b);
      }
      checkpoint.queries.push_back(std::move(queries));
      checkpoint.counts.push_back(std::move(counts));
      checkpoint.rows.push_back(seen[c].size());
    }
    plan.checkpoints.push_back(std::move(checkpoint));
  }
  for (size_t c = 0; c < n; ++c) plan.acknowledged.push_back(seen[c].size());
  plan.digest = digest.value();
  return plan;
}

// What the cycles of one phase (untraced or traced) measured. Set-up,
// recovery, refresh-wait and disk figures are kept per cycle and reported
// as medians; counts, ingest latencies and the per-layer estimate
// latencies are pooled; the end-to-end estimate figures come from
// `fastest`.
struct PhaseStats {
  size_t cycles = 0;
  LatencyHistogram estimate, ingest, resolve;
  std::map<std::string, LatencyHistogram> kernel;
  // The closed loop: ingest, reads, checkpoint waits and refreshes (not
  // set-up, recovery or the client's own accuracy scoring).
  uint64_t loop_ns = 0, write_ns = 0, estimates = 0, rows = 0;
  // The untraced cycles' slices. Their rate is estimates per second of
  // read time: the loop minus its write calls (Ingest, WaitForRefreshes,
  // Refresh). Their latency follows fdatasync on a shared device and
  // spreads more between runs than a gated metric may; ingest_* and
  // recover_s report them (README.md).
  FastestRepeats fastest{kBatches / kSliceBatches};
  std::vector<double> setup_s, recover_s, refresh_wait_ms, disk_bytes_per_row,
      wal_bytes_per_row, recover_column_ms;
  std::map<std::string, std::vector<double>> build_ms;
  // Accuracy after each checkpoint refresh, first cycle only: a function of
  // the seeded row stream, so one cycle stands for all.
  MrePool served, staleness;
  LiveColumnStats totals;  // summed over columns and cycles, pre-crash
  size_t recovered_from_snapshot = 0;
  uint64_t quarantined_segments = 0, truncated_bytes = 0;
};

void AddStats(LiveColumnStats& total, const LiveColumnStats& column) {
  total.refreshes += column.refreshes;
  total.merge_refreshes += column.merge_refreshes;
  total.rebuild_refreshes += column.rebuild_refreshes;
  total.refresh_errors += column.refresh_errors;
  total.refresh_retries += column.refresh_retries;
  total.writebacks += column.writebacks;
  total.writeback_errors += column.writeback_errors;
  total.wal_appends += column.wal_appends;
  total.wal_append_errors += column.wal_append_errors;
}

LiveServerOptions ServerOptions(const std::string& directory) {
  LiveServerOptions options;
  options.refresh_ingest_rows = kRefreshIngestRows;
  options.background_refresh = true;
  options.snapshot_directory = directory + "/snapshots";
  options.wal_directory = directory + "/wal";
  options.wal = WalOptions{};  // sync_every_append: one fdatasync per batch
  options.seed = kDataSeed;  // the reservoirs sample the fixed data set
  return options;
}

// `count` per second of `ns`.
double PerSecond(uint64_t count, uint64_t ns) {
  return static_cast<double>(count) / (static_cast<double>(ns) * 1e-9);
}

void RunCycle(const std::vector<ColumnSpec>& columns, const CyclePlan& plan,
              const std::string& directory, Tracer* tracer,
              PhaseStats& phase, WorkloadResult& result) {
  const size_t n = columns.size();
  const bool measure_accuracy = phase.cycles == 0;
  std::filesystem::remove_all(directory);
  auto server =
      std::make_unique<LiveStatisticsServer>(ServerOptions(directory));

  // Set-up: every registration (WAL open + register record + generation 1
  // and its write-back).
  uint64_t traced_ns = 0;
  const uint64_t s0 = NowNs();
  for (size_t c = 0; c < n; ++c) {
    if (tracer != nullptr) tracer->BeginRequest("setup");
    const uint64_t r0 = NowNs();
    const Status status = server->RegisterColumn(
        kRelation, columns[c].attribute, plan.domains[c], columns[c].config,
        plan.initial[c]);
    const uint64_t r1 = NowNs();
    result.Check(status.ok(), "RegisterColumn: " + status.ToString());
    if (tracer == nullptr) continue;
    const uint32_t id = tracer->Call("live_server", "RegisterColumn", r0, r1);
    const uint64_t b0 = NowNs();
    auto built =
        BuildEstimator(plan.initial[c], plan.domains[c], columns[c].config);
    const uint64_t b1 = NowNs();
    result.Check(built.ok(), "BuildEstimator failed");
    tracer->Split(id, "est", "BuildEstimator", b0, b1);
    phase.build_ms[EstimatorKindName(columns[c].config.kind)].push_back(
        static_cast<double>(b1 - b0) * 1e-6);
    tracer->EndRequest();
    traced_ns += NowNs() - r1;
  }
  phase.setup_s.push_back(static_cast<double>(NowNs() - s0 - traced_ns) *
                          1e-9);

  // When tracing, a shadow log replays each batch's WAL append (the
  // durability part of Ingest) as its split.
  std::unique_ptr<WriteAheadLog> shadow;
  if (tracer != nullptr) {
    auto opened = WriteAheadLog::Open(directory + "/shadow", WalOptions{},
                                      /*reset=*/true);
    result.Check(opened.ok(), "shadow WAL: " + opened.status().ToString());
    if (opened.ok()) shadow = std::move(opened).value();
  }

  // Client-side accuracy work is excluded from the loop time.
  uint64_t excluded_ns = 0, write_ns = 0, estimates = 0, rows = 0;
  double refresh_wait_ms = 0.0;
  // Closes the slice that ends before batch `end` (untraced cycles).
  uint64_t slice_start = 0, slice_skipped_ns = 0;
  const auto close_slice = [&](size_t end) {
    const uint64_t now = NowNs();
    phase.fastest.Finish(
        end / kSliceBatches - 1,
        now - slice_start - (write_ns + excluded_ns - slice_skipped_ns));
    slice_start = now;
    slice_skipped_ns = write_ns + excluded_ns;
  };
  const uint64_t loop_start = NowNs();
  slice_start = loop_start;
  size_t checkpoint_index = 0;
  for (size_t b = 0; b < plan.batches.size(); ++b) {
    if (tracer == nullptr && b > 0 && b % kSliceBatches == 0) close_slice(b);
    const Batch& batch = plan.batches[b];
    const std::string& attribute = columns[batch.column].attribute;
    if (tracer != nullptr) tracer->BeginRequest("ingest");
    const uint64_t i0 = NowNs();
    const Status ingested = server->Ingest(kRelation, attribute, batch.rows);
    const uint64_t i1 = NowNs();
    phase.ingest.Add(i1 - i0);
    write_ns += i1 - i0;
    result.Check(ingested.ok(), "Ingest: " + ingested.ToString());
    if (ingested.ok()) rows += batch.rows.size();
    if (tracer != nullptr) {
      const uint32_t id = tracer->Call("live_server", "Ingest", i0, i1);
      if (shadow != nullptr) {
        const uint64_t w0 = NowNs();
        const Status appended =
            shadow->Append(WalRecordType::kIngest, EncodeRowBatch(batch.rows));
        const uint64_t w1 = NowNs();
        result.Check(appended.ok(), "shadow append: " + appended.ToString());
        tracer->Split(id, "durability", "WriteAheadLog::Append", w0, w1);
      }
      tracer->EndRequest();
    }

    for (const Read& read : batch.reads) {
      const std::string& read_attribute = columns[read.column].attribute;
      if (tracer != nullptr) tracer->BeginRequest("estimate");
      const uint64_t t0 = NowNs();
      auto served = server->Estimate(kRelation, read_attribute, read.query);
      const uint64_t t1 = NowNs();
      phase.estimate.Add(t1 - t0);
      if (tracer == nullptr) phase.fastest.Add(t1 - t0);
      ++estimates;
      result.Check(served.ok() && ValidSelectivity(served.value()),
                   "Estimate on " + read_attribute + " invalid");
      if (tracer == nullptr) continue;
      const uint32_t id = tracer->Call("live_server", "Estimate", t0, t1);
      const uint64_t p0 = NowNs();
      auto current = server->CurrentEstimator(kRelation, read_attribute);
      const uint64_t p1 = NowNs();
      tracer->Probe(id, "live_server", "CurrentEstimator", p0, p1);
      if (current.ok()) {
        const uint64_t k0 = NowNs();
        (void)current.value()->EstimateSelectivity(read.query);
        const uint64_t k1 = NowNs();
        tracer->Split(id, "est", "EstimateSelectivity", k0, k1);
        phase.kernel[EstimatorKindName(columns[read.column].config.kind)].Add(
            k1 - k0);
        phase.resolve.Add(t1 - t0 > k1 - k0 ? (t1 - t0) - (k1 - k0) : 0);
      }
      tracer->EndRequest();
    }

    if ((b + 1) % (kBatches / kCheckpoints) != 0) continue;
    const Checkpoint& checkpoint = plan.checkpoints[checkpoint_index++];
    // Checkpoint: wait for background refreshes, measure staleness, then
    // refresh every column synchronously and measure accuracy.
    if (tracer != nullptr) tracer->BeginRequest("checkpoint");
    const uint64_t c0 = NowNs();
    server->WaitForRefreshes();
    const uint64_t c1 = NowNs();
    if (tracer != nullptr) tracer->Call("exec", "WaitForRefreshes", c0, c1);
    refresh_wait_ms += static_cast<double>(c1 - c0) * 1e-6;
    write_ns += c1 - c0;

    // Staleness is a per-layer figure: scored on traced cycles only.
    const uint64_t x0 = NowNs();
    for (size_t c = 0; tracer != nullptr && c < n; ++c) {
      auto current = server->CurrentEstimator(kRelation, columns[c].attribute);
      result.Check(current.ok(), "CurrentEstimator failed");
      if (!current.ok()) continue;
      std::vector<double> estimates;
      for (const RangeQuery& query : checkpoint.queries[c]) {
        estimates.push_back(current.value()->EstimateSelectivity(query));
      }
      phase.staleness.Add(AccumulateReport(checkpoint.counts[c], estimates,
                                           checkpoint.rows[c]));
    }
    excluded_ns += NowNs() - x0;

    for (size_t c = 0; c < n; ++c) {
      const uint64_t f0 = NowNs();
      const Status refreshed = server->Refresh(kRelation, columns[c].attribute);
      const uint64_t f1 = NowNs();
      refresh_wait_ms += static_cast<double>(f1 - f0) * 1e-6;
      write_ns += f1 - f0;
      result.Check(refreshed.ok(), "Refresh: " + refreshed.ToString());
      if (tracer != nullptr) tracer->Call("live_server", "Refresh", f0, f1);
    }
    if (tracer != nullptr) tracer->EndRequest();

    if (!measure_accuracy) continue;
    const uint64_t y0 = NowNs();
    for (size_t c = 0; c < n; ++c) {
      std::vector<double> answers;
      for (const RangeQuery& query : checkpoint.queries[c]) {
        auto served = server->Estimate(kRelation, columns[c].attribute, query);
        result.Check(served.ok() && ValidSelectivity(served.value()),
                     "checkpoint Estimate invalid");
        answers.push_back(served.ok() ? served.value() : -1.0);
      }
      phase.served.Add(AccumulateReport(checkpoint.counts[c], answers,
                                        checkpoint.rows[c]));
    }
    excluded_ns += NowNs() - y0;
  }
  if (tracer == nullptr) close_slice(plan.batches.size());
  const uint64_t loop_ns = NowNs() - loop_start - excluded_ns;
  phase.loop_ns += loop_ns;
  phase.write_ns += write_ns;
  phase.estimates += estimates;
  phase.rows += rows;
  phase.refresh_wait_ms.push_back(refresh_wait_ms);

  // Pre-crash state: every generation now covers every acknowledged row.
  std::vector<std::vector<double>> pre_crash(n);
  const Checkpoint& final_checkpoint = plan.checkpoints.back();
  for (size_t c = 0; c < n; ++c) {
    auto stats_or = server->ColumnStats(kRelation, columns[c].attribute);
    result.Check(stats_or.ok(), "ColumnStats failed");
    if (stats_or.ok()) AddStats(phase.totals, stats_or.value());
    auto current = server->CurrentEstimator(kRelation, columns[c].attribute);
    if (!current.ok()) continue;
    for (const RangeQuery& query : final_checkpoint.queries[c]) {
      pre_crash[c].push_back(current.value()->EstimateSelectivity(query));
    }
  }
  uint64_t acknowledged = 0;
  for (uint64_t column_rows : plan.acknowledged) acknowledged += column_rows;
  const uint64_t wal_bytes = DirectoryBytes(directory + "/wal");
  const uint64_t disk_bytes =
      wal_bytes + DirectoryBytes(directory + "/snapshots");
  phase.disk_bytes_per_row.push_back(static_cast<double>(disk_bytes) /
                                     static_cast<double>(acknowledged));
  phase.wal_bytes_per_row.push_back(static_cast<double>(wal_bytes) /
                                    static_cast<double>(acknowledged));

  // The crash: drop the server, recover every column on a fresh one.
  server.reset();
  auto recovered =
      std::make_unique<LiveStatisticsServer>(ServerOptions(directory));
  const uint64_t v0 = NowNs();
  for (size_t c = 0; c < n; ++c) {
    if (tracer != nullptr) tracer->BeginRequest("recover");
    const uint64_t r0 = NowNs();
    const Status status = recovered->RecoverColumn(
        kRelation, columns[c].attribute, plan.domains[c], columns[c].config);
    const uint64_t r1 = NowNs();
    phase.recover_column_ms.push_back(static_cast<double>(r1 - r0) * 1e-6);
    result.Check(status.ok(), "RecoverColumn: " + status.ToString());
    if (tracer != nullptr) {
      tracer->Call("durability", "RecoverColumn", r0, r1);
      tracer->EndRequest();
    }
  }
  phase.recover_s.push_back(static_cast<double>(NowNs() - v0) * 1e-9);

  // Recovery must give back every acknowledged row; equi-width columns
  // must serve bit-identically to their pre-crash generation; a clean
  // crash leaves no damage.
  for (size_t c = 0; c < n; ++c) {
    const std::string& attribute = columns[c].attribute;
    auto generation = recovered->CurrentGeneration(kRelation, attribute);
    result.Check(generation.ok() && generation.value()->rows_at_build ==
                                        plan.acknowledged[c],
                 "recovered " + attribute + " lost acknowledged rows");
    auto column_stats = recovered->ColumnStats(kRelation, attribute);
    result.Check(column_stats.ok(), "ColumnStats after recovery failed");
    if (column_stats.ok()) {
      const LiveColumnStats& s = column_stats.value();
      phase.quarantined_segments += s.recovered_quarantined_segments;
      phase.truncated_bytes += s.recovered_truncated_bytes;
      if (s.recovery_used_snapshot) ++phase.recovered_from_snapshot;
      result.Check(s.recovered_quarantined_segments == 0 &&
                       s.recovered_truncated_bytes == 0,
                   "clean crash left damage on " + attribute);
    }
    if (columns[c].config.kind != EstimatorKind::kEquiWidth) continue;
    for (size_t q = 0; q < final_checkpoint.queries[c].size(); ++q) {
      auto served = recovered->Estimate(kRelation, attribute,
                                        final_checkpoint.queries[c][q]);
      result.Check(served.ok() && q < pre_crash[c].size() &&
                       BitEqual(served.value(), pre_crash[c][q]),
                   "recovered " + attribute +
                       " differs from its pre-crash generation");
    }
  }
  recovered.reset();
  std::filesystem::remove_all(directory);
  ++phase.cycles;
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::max_element(values.begin(), values.end());
}

}  // namespace

WorkloadResult RunIngestDurable(const RunConfig& run) {
  WorkloadResult result;
  const std::vector<ColumnSpec> columns = Columns();
  const CyclePlan plan = MakePlan(columns, run.seed);
  const std::string directory = run.work_dir + "/ingest";

  // With --trace 1, untraced and traced cycles alternate, so both see the
  // same machine; the untraced cycles are the baseline of the overhead.
  Tracer tracer;
  PhaseStats phase, traced;
  RunFor(run.seconds, run.trace ? 2 : 1, [&](uint64_t step) {
    if (run.trace && step % 2 == 1) {
      RunCycle(columns, plan, directory, &tracer, traced, result);
    } else {
      RunCycle(columns, plan, directory, nullptr, phase, result);
    }
  });

  const double pooled_p50 = phase.estimate.Percentile(0.50);
  const size_t cycles = phase.cycles;
  result.end_to_end["setup_s"] = {Median(phase.setup_s), "s", cycles};
  const uint64_t cycle_reads = kBatches * kReadsPerBatch;
  result.end_to_end["estimate_p50_ns"] = {phase.fastest.P50(),
                                          "ns", cycle_reads};
  result.end_to_end["estimate_p99_ns"] = {phase.fastest.P99(),
                                          "ns", cycle_reads};
  result.end_to_end["estimates_per_s"] = {phase.fastest.PerSecond(), "1/s",
                                          cycle_reads};
  result.end_to_end["served_mre"] = {phase.served.value(), "ratio",
                                     phase.served.count()};
  result.end_to_end["peak_rss_mib"] = {PeakRssMib(), "MiB", 0};
  result.workload_only["ingest_rows_per_s"] = {
      PerSecond(phase.rows, phase.loop_ns), "1/s", phase.rows};
  result.workload_only["ingest_batch_p50_us"] = {
      phase.ingest.Percentile(0.50) * 1e-3, "us", phase.ingest.count()};
  result.workload_only["ingest_batch_p99_us"] = {
      phase.ingest.Percentile(0.99) * 1e-3, "us", phase.ingest.count()};
  result.workload_only["recover_s"] = {Median(phase.recover_s), "s", cycles};
  result.workload_only["disk_bytes_per_row"] = {
      Median(phase.disk_bytes_per_row), "B/row", cycles};

  result.context["columns"] = std::to_string(columns.size());
  std::string kinds;
  for (const ColumnSpec& column : columns) {
    kinds += std::string(kinds.empty() ? "" : ",") +
             EstimatorKindName(column.config.kind);
  }
  result.context["column_kinds"] = kinds;
  std::string files;
  for (const ColumnSpec& column : columns) {
    files += std::string(files.empty() ? "" : ",") + column.file;
  }
  result.context["data_files"] = files;
  result.context["registration_rows_per_column"] =
      std::to_string(kRegistrationRows);
  result.context["batches_per_cycle"] = std::to_string(kBatches);
  result.context["batch_rows"] = std::to_string(kBatchRows);
  result.context["reads_per_batch"] = std::to_string(kReadsPerBatch);
  result.context["checkpoints_per_cycle"] = std::to_string(kCheckpoints);
  result.context["probe_queries_per_column"] = std::to_string(kProbeQueries);
  result.context["refresh_ingest_rows"] = std::to_string(kRefreshIngestRows);
  result.context["reservoir_capacity"] =
      std::to_string(LiveServerOptions{}.reservoir_capacity);
  result.context["cycles"] = std::to_string(cycles);
  result.context["batches_per_slice"] = std::to_string(kSliceBatches);
  result.context["slice_repeats"] = std::to_string(phase.fastest.repeats());
  // The pooled figures over every untraced cycle, for comparison.
  result.context["pooled_estimate_p50_ns"] = std::to_string(pooled_p50);
  result.context["pooled_estimates_per_s"] = std::to_string(
      PerSecond(phase.estimates, phase.loop_ns - phase.write_ns));
  result.context["op_digest"] = std::to_string(plan.digest);

  if (!run.trace) return result;

  const size_t n = traced.cycles;
  auto& layer = result.per_layer;
  layer["live.estimate_ns.p50"] = {traced.estimate.Percentile(0.5), "ns",
                                   traced.estimate.count()};
  layer["live.estimate_ns.p99"] = {traced.estimate.Percentile(0.99), "ns",
                                   traced.estimate.count()};
  layer["live.resolve_ns.p50"] = {traced.resolve.Percentile(0.5), "ns",
                                  traced.resolve.count()};
  layer["live.ingest_us.p50"] = {traced.ingest.Percentile(0.5) * 1e-3, "us",
                                 traced.ingest.count()};
  layer["live.ingest_us.p99"] = {traced.ingest.Percentile(0.99) * 1e-3, "us",
                                 traced.ingest.count()};
  layer["live.refresh_wait_ms"] = {Median(traced.refresh_wait_ms), "ms", n};
  layer["live.staleness_mre"] = {traced.staleness.value(), "ratio",
                                 traced.staleness.count()};
  const LiveColumnStats& totals = traced.totals;
  layer["live.refreshes"] = PerCycle(totals.refreshes, n);
  layer["live.merge_refreshes"] = PerCycle(totals.merge_refreshes, n);
  layer["live.rebuild_refreshes"] = PerCycle(totals.rebuild_refreshes, n);
  layer["live.refresh_errors"] = PerCycle(totals.refresh_errors, n);
  layer["live.refresh_retries"] = PerCycle(totals.refresh_retries, n);
  layer["live.writebacks"] = PerCycle(totals.writebacks, n);
  layer["live.writeback_errors"] = PerCycle(totals.writeback_errors, n);
  layer["wal.appends"] = PerCycle(totals.wal_appends, n);
  layer["wal.append_errors"] = PerCycle(totals.wal_append_errors, n);
  layer["wal.bytes_per_row"] = {Median(traced.wal_bytes_per_row), "B/row", n};
  const size_t recovered_columns = traced.recover_column_ms.size();
  layer["recovery.column_ms.p50"] = {Median(traced.recover_column_ms), "ms",
                                     recovered_columns};
  layer["recovery.column_ms.max"] = {Max(traced.recover_column_ms), "ms",
                                     recovered_columns};
  layer["recovery.snapshot_fastpath_ratio"] = {
      recovered_columns == 0
          ? 0.0
          : static_cast<double>(traced.recovered_from_snapshot) /
                static_cast<double>(recovered_columns),
      "ratio", recovered_columns};
  layer["recovery.quarantined_segments"] = {
      static_cast<double>(traced.quarantined_segments), "count",
      recovered_columns};
  layer["recovery.truncated_bytes"] = {
      static_cast<double>(traced.truncated_bytes), "B", recovered_columns};
  for (const auto& [kind, hist] : traced.kernel) {
    layer["est.kernel_ns.p50." + kind] = {hist.Percentile(0.5), "ns",
                                          hist.count()};
  }
  for (const auto& [kind, values] : traced.build_ms) {
    layer["est.build_ms." + kind] = {Median(values), "ms", values.size()};
  }
  // Loop time per estimate with tracing (spans, probes, splits) and
  // without (the loop also ingests and refreshes).
  AddTraceMetrics(tracer,
                  static_cast<double>(phase.loop_ns) /
                      static_cast<double>(phase.estimates),
                  static_cast<double>(traced.loop_ns) /
                      static_cast<double>(traced.estimates),
                  traced.estimates, pooled_p50, run.results_dir, result);
  result.context["traced_cycles"] = std::to_string(n);
  return result;
}

}  // namespace selest::perfbench
