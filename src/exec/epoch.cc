#include "src/exec/epoch.h"

#include <iterator>
#include <limits>
#include <thread>

namespace selest {
namespace epoch_internal {

std::atomic<uint64_t> global_epoch{1};
constinit thread_local ReaderRecord* thread_record = nullptr;

namespace {

// Every record ever allocated, newest first. Records are never freed, so
// a scan may walk the list while threads come and go.
std::atomic<ReaderRecord*> records{nullptr};

// Returns the thread's record to the free pool when the thread exits.
struct ThreadRecordRelease {
  ~ThreadRecordRelease() {
    if (thread_record == nullptr) return;
    thread_record->epoch.store(0, std::memory_order_release);
    thread_record->in_use.store(false, std::memory_order_release);
    thread_record = nullptr;
  }
};

// The smallest epoch any reader is pinned at; max() when none is pinned.
uint64_t OldestPinnedEpoch() {
  uint64_t oldest = std::numeric_limits<uint64_t>::max();
  for (const ReaderRecord* record = records.load(); record != nullptr;
       record = record->next) {
    const uint64_t pinned = record->epoch.load();
    if (pinned != 0 && pinned < oldest) oldest = pinned;
  }
  return oldest;
}

}  // namespace

ReaderRecord* AcquireThreadRecord() {
  static thread_local ThreadRecordRelease release;
  ReaderRecord* claimed = nullptr;
  for (ReaderRecord* record = records.load(std::memory_order_acquire);
       record != nullptr && claimed == nullptr; record = record->next) {
    bool expected = false;
    if (!record->in_use.load(std::memory_order_relaxed) &&
        record->in_use.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
      claimed = record;
    }
  }
  if (claimed == nullptr) {
    claimed = new ReaderRecord;
    claimed->in_use.store(true, std::memory_order_relaxed);
    claimed->next = records.load(std::memory_order_relaxed);
    while (!records.compare_exchange_weak(claimed->next, claimed,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
    }
  }
  thread_record = claimed;
  return claimed;
}

}  // namespace epoch_internal

EpochDomain::~EpochDomain() { Drain(); }

void EpochDomain::Retire(std::shared_ptr<const void> object) {
  if (object == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    retired_.push_back(
        {epoch_internal::global_epoch.fetch_add(1), std::move(object)});
  }
  Reclaim();
}

size_t EpochDomain::Reclaim() {
  std::vector<Retired> safe;
  std::lock_guard<std::mutex> lock(mutex_);
  // A retiree tagged e is safe once every pinned reader pinned after the
  // bump that followed it, i.e. at an epoch > e.
  const uint64_t oldest = epoch_internal::OldestPinnedEpoch();
  size_t count = 0;
  while (count < retired_.size() && retired_[count].epoch < oldest) ++count;
  const auto end = retired_.begin() + static_cast<std::ptrdiff_t>(count);
  safe.assign(std::make_move_iterator(retired_.begin()),
              std::make_move_iterator(end));
  retired_.erase(retired_.begin(), end);
  return retired_.size();
}

void EpochDomain::Drain() {
  while (Reclaim() != 0) std::this_thread::yield();
}

}  // namespace selest
