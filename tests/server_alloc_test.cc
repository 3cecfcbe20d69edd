// The served read path allocates nothing. This binary replaces the global
// operator new with a counting one and asserts that a successful
// LiveStatisticsServer::Estimate / EstimateDetailed on a registered column
// of every estimator kind performs no allocation: the registry lookup
// builds no key, the generation is reached through a raw pointer under an
// epoch pin, and the answer is returned by value. It is its own binary
// because the replacement is process-wide.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "src/catalog/live_server.h"
#include "src/data/domain.h"
#include "src/est/estimator_factory.h"
#include "src/query/range_query.h"
#include "src/util/random.h"

namespace {

std::atomic<size_t> allocations{0};

void* CountedAllocate(std::size_t size, std::size_t alignment) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* block =
      alignment <= alignof(std::max_align_t)
          ? std::malloc(size)
          : std::aligned_alloc(alignment,
                               (size + alignment - 1) / alignment * alignment);
  if (block == nullptr) throw std::bad_alloc();
  return block;
}

}  // namespace

// The array and nothrow forms forward to these in libstdc++.
void* operator new(std::size_t size) {
  return CountedAllocate(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return CountedAllocate(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 1000.0);

std::vector<double> MakeRows(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(kDomain.lo + rng.NextDouble() * kDomain.width());
  }
  return rows;
}

std::vector<RangeQuery> ProbeQueries() {
  std::vector<RangeQuery> queries;
  for (int i = 0; i < 16; ++i) {
    const double a = 55.0 * static_cast<double>(i);
    queries.push_back({a, a + 80.0});
  }
  return queries;
}

// Allocations made by `serve` over every probe query, after one warm-up
// call (a thread's first pin claims its epoch reader record).
template <typename Serve>
size_t AllocationsWhileServing(const Serve& serve) {
  const std::vector<RangeQuery> queries = ProbeQueries();
  std::vector<double> answers(queries.size());
  EXPECT_TRUE(serve(queries[0], answers[0]));
  const size_t before = allocations.load(std::memory_order_relaxed);
  bool ok = true;
  for (size_t i = 0; i < queries.size(); ++i) {
    ok = serve(queries[i], answers[i]) && ok;
  }
  const size_t after = allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(ok);
  return after - before;
}

TEST(ServedAllocationTest, CounterSeesAllocations) {
  const size_t before = allocations.load();
  auto* block = new std::vector<double>(4);
  EXPECT_GT(allocations.load(), before);
  delete block;
}

TEST(ServedAllocationTest, EstimateOnRegisteredColumnAllocatesNothing) {
  uint64_t ticks = 0;
  LiveServerOptions options;
  options.background_refresh = false;
  // A TTL that never expires keeps the staleness check on the path.
  options.ttl_ticks = 1000000;
  options.clock = [&ticks]() { return ticks; };
  LiveStatisticsServer server(std::move(options));
  for (const EstimatorKind kind :
       {EstimatorKind::kSampling, EstimatorKind::kUniform,
        EstimatorKind::kEquiWidth, EstimatorKind::kEquiDepth,
        EstimatorKind::kMaxDiff, EstimatorKind::kAverageShifted,
        EstimatorKind::kKernel, EstimatorKind::kHybrid,
        EstimatorKind::kVOptimal, EstimatorKind::kAdaptiveKernel,
        EstimatorKind::kWavelet, EstimatorKind::kFeedback,
        EstimatorKind::kReconstructed, EstimatorKind::kOnlineLearning}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    EstimatorConfig config;
    config.kind = kind;
    const std::string attribute = "x" + std::to_string(static_cast<int>(kind));
    ASSERT_TRUE(server
                    .RegisterColumn("relation", attribute, kDomain, config,
                                    MakeRows(2000, 3))
                    .ok());
    // Neighbours in the registry, so the lookup is not a one-entry map.
    ASSERT_TRUE(server
                    .RegisterColumn("relation", attribute + "_neighbour",
                                    kDomain, config, MakeRows(200, 4))
                    .ok());
    EXPECT_EQ(AllocationsWhileServing([&](const RangeQuery& query,
                                          double& answer) {
                auto served = server.Estimate("relation", attribute, query);
                if (!served.ok()) return false;
                answer = served.value();
                return true;
              }),
              0u);
    EXPECT_EQ(AllocationsWhileServing([&](const RangeQuery& query,
                                          double& answer) {
                auto served =
                    server.EstimateDetailed("relation", attribute, query);
                if (!served.ok()) return false;
                answer = served.value().value;
                return true;
              }),
              0u);
  }
}

// The failure path builds its error message; the counter sees that, so a
// zero above is not a dead counter.
TEST(ServedAllocationTest, UnknownColumnErrorAllocates) {
  LiveStatisticsServer server;
  const RangeQuery query{100.0, 200.0};
  ASSERT_FALSE(server.Estimate("relation", "missing", query).ok());
  const size_t before = allocations.load();
  EXPECT_FALSE(server.Estimate("relation", "missing", query).ok());
  EXPECT_GT(allocations.load(), before);
}

}  // namespace
}  // namespace selest
