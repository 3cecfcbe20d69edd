// Epoch-based reclamation for read-mostly shared structures.
//
// Readers pin the calling thread (EpochGuard) for the span in which they
// follow raw pointers into published objects; writers unlink an object
// (store a new pointer with a seq_cst store) and then hand the old owner
// to EpochDomain::Retire, which frees it once no pinned reader can still
// see it. A pin is one seq_cst store of the global epoch into the
// thread's reader record and an unpin one release store: no lock, no
// refcount, no allocation after the thread's first pin.
//
// Safety rule. Retire tags the object with the global epoch e and bumps
// the epoch to e + 1. The object is freed once every reader record reads
// either unpinned or an epoch > e. A reader that pinned at an epoch > e
// loaded the epoch after the bump, hence after the unlink, so its
// pointer loads (seq_cst) cannot return the unlinked object; a reader
// whose record still reads unpinned stores its pin after the writer's
// scan in the seq_cst order, so it too loads the new pointer. Readers
// must therefore load published pointers with seq_cst loads (plain loads
// on x86-64); writers must publish with seq_cst stores.
//
// The epoch clock and the reader records are process-wide (one record per
// thread, reused after the thread exits); the retire lists belong to each
// EpochDomain, so a domain's Drain waits only for readers pinned before
// its own retires, and its objects never outlive it.
#ifndef SELEST_EXEC_EPOCH_H_
#define SELEST_EXEC_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace selest {

namespace epoch_internal {

struct ReaderRecord {
  // The global epoch this thread pinned at; 0 while unpinned.
  std::atomic<uint64_t> epoch{0};
  std::atomic<bool> in_use{false};
  // Pin nesting depth; touched only by the owning thread.
  uint32_t depth = 0;
  // Immutable once the record is linked; records are never freed.
  ReaderRecord* next = nullptr;
};

// Starts at 1 so that 0 can mean "unpinned".
extern std::atomic<uint64_t> global_epoch;
extern constinit thread_local ReaderRecord* thread_record;

// The calling thread's record, claimed (or allocated) on its first pin and
// released for reuse when the thread exits.
ReaderRecord* AcquireThreadRecord();

}  // namespace epoch_internal

// Pins the calling thread for its lifetime. Nests: only the outermost
// guard stores and clears the pin.
class EpochGuard {
 public:
  EpochGuard() {
    epoch_internal::ReaderRecord* record = epoch_internal::thread_record;
    if (record == nullptr) record = epoch_internal::AcquireThreadRecord();
    if (record->depth++ == 0) {
      record->epoch.store(epoch_internal::global_epoch.load(),
                          std::memory_order_seq_cst);
    }
    record_ = record;
  }
  ~EpochGuard() {
    if (--record_->depth == 0) {
      record_->epoch.store(0, std::memory_order_release);
    }
  }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  epoch_internal::ReaderRecord* record_;
};

// A retire list. Thread-safe; Retire may be called while the calling
// thread is pinned (the object then waits for a later Retire or Drain).
class EpochDomain {
 public:
  EpochDomain() = default;
  // Drains.
  ~EpochDomain();
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  // Drops `object` once no reader pinned now can still reach it, then
  // frees every earlier retiree that has become safe. Call after the
  // object has been unlinked from every place a reader could load it.
  void Retire(std::shared_ptr<const void> object);

  // Frees every retiree that is already safe; returns how many remain.
  size_t Reclaim();

  // Waits for the readers that could see a retiree to unpin, then frees
  // everything. Must not be called while the calling thread is pinned.
  void Drain();

 private:
  struct Retired {
    uint64_t epoch;
    std::shared_ptr<const void> object;
  };

  std::mutex mutex_;
  // Ascending by epoch: the tag is taken under `mutex_`.
  std::vector<Retired> retired_;
};

}  // namespace selest

#endif  // SELEST_EXEC_EPOCH_H_
