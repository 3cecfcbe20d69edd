// The selest end-to-end benchmark client.
//
//   selest_perfbench --workload read-hot|catalog-feedback|ingest-durable
//                    --seed N --seconds S --trace 0|1
//                    --work-dir DIR --results-dir DIR
//
// Runs one workload as one seeded, single-threaded, closed-loop client
// against selest's public API, checks the answers, and writes
// DIR/result.json (metrics, context, correctness counts). With --trace 1
// the second half of the time runs with a span around every public call
// and DIR also receives spans.csv and self_times.csv. perfbench/run.py
// builds this binary and turns result.json into the benchmark's output.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/harness.h"
#include "src/exec/thread_pool.h"
#include "src/util/simd.h"

#ifndef SELEST_PERFBENCH_BUILD_TYPE
#define SELEST_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace selest::perfbench {
namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void WriteMetrics(std::ofstream& out, const char* name,
                  const std::map<std::string, Metric>& metrics) {
  out << "  " << JsonString(name) << ": {";
  bool first = true;
  for (const auto& [key, metric] : metrics) {
    out << (first ? "\n" : ",\n") << "    " << JsonString(key)
        << ": {\"value\": " << JsonNumber(metric.value)
        << ", \"unit\": " << JsonString(metric.unit)
        << ", \"samples\": " << metric.samples << "}";
    first = false;
  }
  out << "\n  }";
}

bool WriteResult(const std::string& path, const WorkloadResult& result) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"attempted\": " << result.attempted << ",\n";
  out << "  \"failed\": " << result.failed << ",\n";
  out << "  \"failures\": [";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    out << (i == 0 ? "" : ", ") << JsonString(result.failures[i]);
  }
  out << "],\n";
  WriteMetrics(out, "end_to_end", result.end_to_end);
  out << ",\n";
  WriteMetrics(out, "workload_only", result.workload_only);
  out << ",\n";
  WriteMetrics(out, "per_layer", result.per_layer);
  out << ",\n  \"context\": {";
  bool first = true;
  for (const auto& [key, value] : result.context) {
    out << (first ? "\n" : ",\n") << "    " << JsonString(key) << ": "
        << JsonString(value);
    first = false;
  }
  out << "\n  }\n}\n";
  return static_cast<bool>(out);
}

int Usage() {
  std::fprintf(stderr,
               "usage: selest_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --results-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace selest::perfbench

int main(int argc, char** argv) {
  using namespace selest;
  using namespace selest::perfbench;
  RunConfig run;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      run.workload = value;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      run.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      run.trace = value == "1";
    } else if (flag == "--work-dir") {
      run.work_dir = value;
    } else if (flag == "--results-dir") {
      run.results_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || run.workload.empty() || run.work_dir.empty() ||
      run.results_dir.empty() || !(run.seconds > 0.0)) {
    return Usage();
  }

  std::error_code ec;
  std::filesystem::remove_all(run.work_dir, ec);
  std::filesystem::create_directories(run.work_dir, ec);
  std::filesystem::create_directories(run.results_dir, ec);

  WorkloadResult result;
  if (run.workload == "read-hot") {
    result = RunReadHot(run);
  } else if (run.workload == "catalog-feedback") {
    result = RunCatalogFeedback(run);
  } else if (run.workload == "ingest-durable") {
    result = RunIngestDurable(run);
    result.context["wal_flush_policy"] =
        "sync_every_append=true (one fdatasync per Ingest batch)";
  } else {
    std::fprintf(stderr, "unknown workload %s\n", run.workload.c_str());
    return 2;
  }
  std::filesystem::remove_all(run.work_dir, ec);

  result.context["workload"] = run.workload;
  result.context["seed"] = std::to_string(run.seed);
  result.context["seconds"] = JsonNumber(run.seconds);
  result.context["trace"] = run.trace ? "1" : "0";
  result.context["clients"] = "1 (closed loop)";
  result.context["build_type"] = SELEST_PERFBENCH_BUILD_TYPE;
  result.context["simd_tier"] = SimdTierName(ActiveSimdTier());
  result.context["nproc"] = std::to_string(std::thread::hardware_concurrency());
  result.context["pool_threads"] =
      std::to_string(ThreadPool::DefaultThreadCount());

  const std::string path = run.results_dir + "/result.json";
  if (!WriteResult(path, result)) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return 1;
  }
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  return result.failed == 0 ? 0 : 1;
}
