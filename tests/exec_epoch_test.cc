// The epoch domain alone (exec/epoch.h): a retired object is freed exactly
// once, never while a reader that could have loaded it is still pinned,
// and every retiree is gone after Drain. Runs under the sanitizer presets
// via the `exec` label, so a premature free is also a use-after-free
// report under asan-ubsan and a race report under tsan.
#include "src/exec/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

namespace selest {
namespace {

// Counts its own destruction in an external slot, so a test can tell a
// freed object from a live one without touching freed memory.
struct Tracked {
  Tracked(size_t slot_index, std::vector<std::atomic<int>>* slots)
      : index(slot_index), destroyed(slots) {}
  ~Tracked() { (*destroyed)[index].fetch_add(1); }
  const size_t index;
  std::vector<std::atomic<int>>* const destroyed;
};

TEST(EpochTest, RetireWithNoReaderPinnedFreesAtOnce) {
  EpochDomain domain;
  auto object = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = object;
  domain.Retire(std::move(object));
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(domain.Reclaim(), 0u);
}

TEST(EpochTest, PinnedReaderHoldsBackRetireeUntilUnpinned) {
  EpochDomain domain;
  auto first = std::make_shared<int>(1);
  const std::weak_ptr<int> watch = first;
  {
    const EpochGuard outer;
    {
      // Nested pins: the inner guard's end must not unpin the thread.
      const EpochGuard inner;
    }
    domain.Retire(std::move(first));
    EXPECT_FALSE(watch.expired());
    EXPECT_EQ(domain.Reclaim(), 1u);
  }
  // Unpinned: the next retire frees the earlier retiree too.
  domain.Retire(std::make_shared<int>(2));
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(domain.Reclaim(), 0u);
}

TEST(EpochTest, ReaderPinnedAfterRetireDoesNotHoldItBack) {
  EpochDomain domain;
  auto object = std::make_shared<int>(3);
  const std::weak_ptr<int> watch = object;
  {
    const EpochGuard early;
    domain.Retire(std::move(object));
  }
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread late([&]() {
    const EpochGuard pin;
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();
  // The late reader pinned after the retire: it cannot see the object.
  EXPECT_EQ(domain.Reclaim(), 0u);
  EXPECT_TRUE(watch.expired());
  release.store(true);
  late.join();
}

// Readers pin, load the published object and check that it has not been
// freed while a writer keeps replacing and retiring it. Afterwards every
// object was freed exactly once.
TEST(EpochTest, ConcurrentPinAndRetireFreesEachObjectOnceAndNeverEarly) {
  constexpr size_t kReaders = 4;
  constexpr size_t kObjects = 3000;
  std::vector<std::atomic<int>> destroyed(kObjects);
  std::atomic<size_t> early_frees{0};
  std::atomic<size_t> reads{0};
  {
    EpochDomain domain;
    std::shared_ptr<const Tracked> owner =
        std::make_shared<const Tracked>(0, &destroyed);
    std::atomic<const Tracked*> published{owner.get()};
    std::atomic<bool> done{false};

    std::vector<std::thread> readers;
    for (size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&]() {
        while (!done.load()) {
          const EpochGuard pin;
          const Tracked* seen = published.load();
          // Nested pin across the check, as a server call inside a
          // pinned section would take; the yield gives the writer time to
          // retire `seen` while this reader still holds it.
          const EpochGuard nested;
          std::this_thread::yield();
          if (destroyed[seen->index].load() != 0) early_frees.fetch_add(1);
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (size_t i = 1; i < kObjects; ++i) {
      auto next = std::make_shared<const Tracked>(i, &destroyed);
      published.store(next.get());
      domain.Retire(std::exchange(owner, std::move(next)));
      if (i % 64 == 0) std::this_thread::yield();
    }
    done.store(true);
    for (std::thread& reader : readers) reader.join();
    // The last object is still published; unlink it and drain.
    published.store(nullptr);
    domain.Retire(std::move(owner));
    domain.Drain();
    for (size_t i = 0; i < kObjects; ++i) {
      ASSERT_EQ(destroyed[i].load(), 1) << "object " << i;
    }
  }
  EXPECT_EQ(early_frees.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
}

// Drain frees retirees a reader on another thread was holding back once
// that reader unpins; the domain's destructor drains the same way.
TEST(EpochTest, DrainWaitsForPinnedReaderThenFreesEverything) {
  std::vector<std::atomic<int>> destroyed(2);
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&]() {
    const EpochGuard pin;
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();
  {
    EpochDomain domain;
    domain.Retire(std::make_shared<const Tracked>(0, &destroyed));
    domain.Retire(std::make_shared<const Tracked>(1, &destroyed));
    EXPECT_EQ(domain.Reclaim(), 2u);
    EXPECT_EQ(destroyed[0].load(), 0);
    release.store(true);
    domain.Drain();
    EXPECT_EQ(destroyed[0].load(), 1);
    EXPECT_EQ(destroyed[1].load(), 1);
  }
  reader.join();
}

}  // namespace
}  // namespace selest
