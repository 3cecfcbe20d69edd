// Concurrency tests for the epoch swap: reader threads hammer the serve
// path while refreshes flip generations and registrations replace columns
// underneath them, and every served answer must be bit-identical to *some*
// published generation — never a torn mix of two. The serve path takes no
// lock and no refcount: it pins an epoch (exec/epoch.h), loads the
// published registry snapshot and the column's generation pointer, and
// answers; superseded snapshots, replaced columns and superseded
// generations are retired and freed once no pinned reader can see them.
// Runs under tsan and asan-ubsan via the `server` label, so a premature
// free of any of them is a use-after-free or race report. The reclamation
// tests pin the other half of the rule: with no reader pinned, what a
// flip or a re-registration retires is freed before the call returns.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/catalog/live_server.h"
#include "src/data/domain.h"
#include "src/est/estimator_factory.h"
#include "src/exec/epoch.h"
#include "src/query/range_query.h"
#include "src/util/random.h"

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

EstimatorConfig ConfigWithBins(EstimatorKind kind, int bins) {
  EstimatorConfig config;
  config.kind = kind;
  config.smoothing = SmoothingRule::kFixed;
  config.fixed_smoothing = bins;
  return config;
}

std::vector<RangeQuery> ProbeQueries() {
  std::vector<RangeQuery> queries;
  for (int i = 0; i < 16; ++i) {
    const double a = 55.0 * static_cast<double>(i);
    queries.push_back({a, a + 80.0});
  }
  return queries;
}

struct Observation {
  size_t query = 0;
  double value = 0.0;
  uint64_t generation = 0;
};

// The tent-pole assertion: readers race a writer that ingests and flips
// generations; afterwards every observation is replayed against the exact
// generation that served it.
TEST(EpochConcurrencyTest, ServedValuesAreBitIdenticalToSomeGeneration) {
  LiveServerOptions options;
  options.background_refresh = false;  // the writer thread flips inline
  options.keep_generation_history = true;
  LiveStatisticsServer server(std::move(options));
  const EstimatorConfig config =
      ConfigWithBins(EstimatorKind::kEquiWidth, 32);
  ASSERT_TRUE(
      server.RegisterColumn("t", "x", kDomain, config, MakeRows(600, 1))
          .ok());

  const std::vector<RangeQuery> queries = ProbeQueries();
  constexpr size_t kReaders = 4;
  constexpr size_t kReadsPerReader = 2000;
  constexpr size_t kFlips = 25;

  std::atomic<bool> start{false};
  std::atomic<bool> writer_done{false};
  std::vector<std::vector<Observation>> observations(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    observations[r].reserve(kReadsPerReader);
    readers.emplace_back([&, r]() {
      while (!start.load()) std::this_thread::yield();
      for (size_t i = 0; i < kReadsPerReader; ++i) {
        const size_t q = (r * 7 + i) % queries.size();
        auto served = server.EstimateDetailed("t", "x", queries[q]);
        ASSERT_TRUE(served.ok());
        observations[r].push_back(
            {q, served.value().value, served.value().generation});
      }
    });
  }

  std::thread writer([&]() {
    start.store(true);
    for (size_t flip = 0; flip < kFlips; ++flip) {
      ASSERT_TRUE(server.Ingest("t", "x", MakeRows(40, 100 + flip)).ok());
      ASSERT_TRUE(server.Refresh("t", "x").ok());
    }
    writer_done.store(true);
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();

  auto history = server.GenerationHistory("t", "x");
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history.value().size(), kFlips + 1);

  // Replay: an observation stamped generation g must equal g's estimator's
  // answer exactly. A torn read (estimator from one epoch, number from
  // another, or a half-published generation) cannot pass for every probe.
  size_t replayed = 0;
  for (const auto& per_reader : observations) {
    uint64_t last_generation = 0;
    for (const Observation& seen : per_reader) {
      ASSERT_GE(seen.generation, 1u);
      ASSERT_LE(seen.generation, kFlips + 1);
      const LiveGeneration& generation =
          *history.value()[seen.generation - 1];
      ASSERT_EQ(generation.number, seen.generation);
      EXPECT_EQ(seen.value,
                generation.estimator->EstimateSelectivity(queries[seen.query]))
          << "reader observed a value not produced by generation "
          << seen.generation;
      // Served generations never move backwards for a single reader.
      EXPECT_GE(seen.generation, last_generation);
      last_generation = seen.generation;
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, kReaders * kReadsPerReader);
}

// Concurrent ingest from several threads, serves racing them, background
// refreshes on the shared pool: exercises the ingest mutex, the refresh
// coalescing flag, and WaitForRefreshes. Correctness here is "tsan-clean
// and the counters add up", not specific values.
TEST(EpochConcurrencyTest, ConcurrentIngestAndServeIsClean) {
  LiveServerOptions options;
  options.background_refresh = true;
  options.refresh_ingest_rows = 200;
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 16),
                                  MakeRows(400, 2))
                  .ok());

  constexpr size_t kWriters = 3;
  constexpr size_t kBatches = 20;
  constexpr size_t kBatchRows = 50;
  const std::vector<RangeQuery> queries = ProbeQueries();

  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWriters; ++w) {
    workers.emplace_back([&, w]() {
      for (size_t batch = 0; batch < kBatches; ++batch) {
        ASSERT_TRUE(
            server.Ingest("t", "x", MakeRows(kBatchRows, 10 * w + batch))
                .ok());
      }
    });
  }
  workers.emplace_back([&]() {
    for (size_t i = 0; i < 3000; ++i) {
      ASSERT_TRUE(server.Estimate("t", "x", queries[i % queries.size()]).ok());
    }
  });
  for (std::thread& worker : workers) worker.join();
  server.WaitForRefreshes();

  auto stats = server.ColumnStats("t", "x");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().ingested_rows, kWriters * kBatches * kBatchRows);
  EXPECT_GE(stats.value().serves, 3000u);
  EXPECT_GE(stats.value().refreshes, 1u);
  EXPECT_EQ(stats.value().refresh_errors, 0u);
  auto generation = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(generation.value()->number, stats.value().generation);
}

// A reader holding the estimator of an old generation keeps a valid object
// across arbitrarily many flips (RCU lifetime: the shared_ptr keeps the
// epoch alive).
TEST(EpochConcurrencyTest, OldGenerationSurvivesWhileHeld) {
  LiveServerOptions options;
  options.background_refresh = false;
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 8),
                                  MakeRows(300, 3))
                  .ok());
  auto held = server.CurrentEstimator("t", "x");
  ASSERT_TRUE(held.ok());
  const RangeQuery query{100.0, 600.0};
  const double before = held.value()->EstimateSelectivity(query);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.Ingest("t", "x", MakeRows(50, 200 + i)).ok());
    ASSERT_TRUE(server.Refresh("t", "x").ok());
  }
  // The held epoch still answers, unchanged by the five flips.
  EXPECT_EQ(held.value()->EstimateSelectivity(query), before);
  auto current = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current.value()->number, 6u);
}

// Readers serve column X while a writer replaces X's column (re-registration
// with a different sample and bin count), registers fresh columns Y0..Yn
// (each a new registry snapshot), and ingests into and refreshes X. Every
// answer must be bit-identical to one of X's published builds with the
// same generation number.
TEST(EpochConcurrencyTest, ServingSurvivesColumnReplacementAndRegistration) {
  LiveServerOptions options;
  options.background_refresh = false;
  LiveStatisticsServer server(std::move(options));
  const std::vector<RangeQuery> queries = ProbeQueries();
  // Every (generation number, query, answer) a published build of t.x
  // produces. The builds themselves are not kept, so each superseded
  // generation is freed while the readers run.
  std::vector<std::tuple<uint64_t, size_t, double>> producible;
  const auto capture = [&]() {
    auto current = server.CurrentGeneration("t", "x");
    ASSERT_TRUE(current.ok());
    for (size_t q = 0; q < queries.size(); ++q) {
      producible.emplace_back(
          current.value()->number, q,
          current.value()->estimator->EstimateSelectivity(queries[q]));
    }
  };
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 16),
                                  MakeRows(500, 7))
                  .ok());
  capture();

  constexpr size_t kReaders = 3;
  constexpr size_t kReadsPerReader = 3000;
  constexpr size_t kRounds = 48;

  std::atomic<bool> start{false};
  std::atomic<bool> writer_done{false};
  std::vector<std::vector<Observation>> observations(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    observations[r].reserve(kReadsPerReader);
    readers.emplace_back([&, r]() {
      while (!start.load()) std::this_thread::yield();
      // Keep serving until the writer is done, so reads overlap every
      // replacement, registration and refresh.
      for (size_t i = 0; i < kReadsPerReader || !writer_done.load(); ++i) {
        const size_t q = (r * 5 + i) % queries.size();
        auto served = server.EstimateDetailed("t", "x", queries[q]);
        ASSERT_TRUE(served.ok());
        observations[r].push_back(
            {q, served.value().value, served.value().generation});
      }
    });
  }

  // A failed ASSERT returns from `write`; the readers still stop.
  const auto write = [&]() {
    for (size_t round = 0; round < kRounds; ++round) {
      const int bins = 8 + 4 * static_cast<int>(round % 3);
      ASSERT_TRUE(server
                      .RegisterColumn(
                          "t", "x", kDomain,
                          ConfigWithBins(EstimatorKind::kEquiWidth, bins),
                          MakeRows(400 + 20 * round, 300 + round))
                      .ok());
      capture();
      ASSERT_TRUE(server
                      .RegisterColumn(
                          "t", "y" + std::to_string(round), kDomain,
                          ConfigWithBins(EstimatorKind::kEquiDepth, 8),
                          MakeRows(200, 500 + round))
                      .ok());
      ASSERT_TRUE(server.Ingest("t", "x", MakeRows(60, 700 + round)).ok());
      ASSERT_TRUE(server.Refresh("t", "x").ok());
      capture();
    }
  };
  std::thread writer([&]() {
    start.store(true);
    write();
    writer_done.store(true);
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(server.num_columns(), kRounds + 1);

  std::sort(producible.begin(), producible.end());
  size_t replayed = 0;
  for (const auto& per_reader : observations) {
    for (const Observation& seen : per_reader) {
      EXPECT_TRUE(std::binary_search(
          producible.begin(), producible.end(),
          std::make_tuple(seen.generation, seen.query, seen.value)))
          << "reader observed " << seen.value << " at generation "
          << seen.generation << ", produced by no published build of t.x";
      ++replayed;
    }
  }
  EXPECT_GE(replayed, kReaders * kReadsPerReader);
}

// With no reader pinned, the generation a refresh supersedes is freed
// inside that refresh: once the caller drops its own copy, nothing else
// holds it.
TEST(EpochReclamationTest, SupersededGenerationIsFreedByTheNextRefresh) {
  LiveServerOptions options;
  options.background_refresh = false;
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 8),
                                  MakeRows(300, 11))
                  .ok());
  std::weak_ptr<const LiveGeneration> watch;
  std::weak_ptr<const SelectivityEstimator> watch_estimator;
  {
    auto current = server.CurrentGeneration("t", "x");
    ASSERT_TRUE(current.ok());
    watch = current.value();
    watch_estimator = current.value()->estimator;
  }
  ASSERT_FALSE(watch.expired());
  ASSERT_TRUE(server.Ingest("t", "x", MakeRows(40, 12)).ok());
  ASSERT_TRUE(server.Refresh("t", "x").ok());
  EXPECT_TRUE(watch.expired());
  EXPECT_TRUE(watch_estimator.expired());
}

// A reader pinned across the flip could still hold the old generation: it
// survives until that reader unpins and a later retire reclaims it.
TEST(EpochReclamationTest, PinnedReaderKeepsSupersededGenerationAlive) {
  LiveServerOptions options;
  options.background_refresh = false;
  LiveStatisticsServer server(std::move(options));
  ASSERT_TRUE(server
                  .RegisterColumn("t", "x", kDomain,
                                  ConfigWithBins(EstimatorKind::kEquiWidth, 8),
                                  MakeRows(300, 13))
                  .ok());
  std::weak_ptr<const LiveGeneration> watch;
  {
    auto current = server.CurrentGeneration("t", "x");
    ASSERT_TRUE(current.ok());
    watch = current.value();
  }
  {
    const EpochGuard pin;
    ASSERT_TRUE(server.Refresh("t", "x").ok());
    EXPECT_FALSE(watch.expired());
  }
  ASSERT_TRUE(server.Refresh("t", "x").ok());
  EXPECT_TRUE(watch.expired());
}

// Re-registering a column replaces its Column object; with no reader
// pinned, the replaced column — and the generation only it owned — is
// freed before RegisterColumn returns.
TEST(EpochReclamationTest, ReplacedColumnIsFreedInsideRegisterColumn) {
  LiveServerOptions options;
  options.background_refresh = false;
  LiveStatisticsServer server(std::move(options));
  const EstimatorConfig config = ConfigWithBins(EstimatorKind::kEquiWidth, 8);
  ASSERT_TRUE(
      server.RegisterColumn("t", "x", kDomain, config, MakeRows(300, 14))
          .ok());
  std::weak_ptr<const LiveGeneration> watch;
  {
    auto current = server.CurrentGeneration("t", "x");
    ASSERT_TRUE(current.ok());
    watch = current.value();
  }
  ASSERT_TRUE(
      server.RegisterColumn("t", "x", kDomain, config, MakeRows(300, 15))
          .ok());
  EXPECT_TRUE(watch.expired());
  auto replacement = server.CurrentGeneration("t", "x");
  ASSERT_TRUE(replacement.ok());
  EXPECT_EQ(replacement.value()->number, 1u);
  EXPECT_EQ(server.num_columns(), 1u);
}

}  // namespace
}  // namespace selest
