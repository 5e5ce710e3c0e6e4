#ifndef COURSENAV_EXEC_WORK_QUEUE_H_
#define COURSENAV_EXEC_WORK_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace coursenav::exec {

/// Per-worker work-stealing deques.
///
/// Each worker owns one deque: it pushes and pops at the back (LIFO, which
/// keeps the frontier depth-first — small and cache-warm, like the serial
/// generators' worklist), while thieves take from the front, where the
/// oldest items sit. For tree expansion the oldest items are the shallowest
/// nodes, i.e. the largest stealable subtrees, so one steal buys a thief a
/// long stretch of local work.
///
/// Thieves steal *half* the victim's queue (ceil(n/2)) in one locked visit
/// rather than one item at a time: under frontier explosion this halves the
/// number of steal operations per unit of work and spreads load in O(log n)
/// steals. Stealing is two-phase — collect under the victim's lock, release
/// it, then refill the thief's own deque — so no call path ever holds two
/// deque locks at once (no lock-order cycles between mutual thieves).
///
/// Each deque is guarded by its own mutex, and a worker takes it once per
/// node expansion, not once per child: an expansion's children are pushed
/// together (`Push` of a span), and a popped or stolen node is a whole
/// expansion. That matters because a node is cheap: a deadline-driven one
/// costs about 0.3–0.5 µs (Table 2's 4-semester cell, 187,876 nodes in
/// 53–99 ms serial), the price of a lock round trip or two, so a lock per
/// child would be a large share of the work. The mutex also gives the
/// ownership-transfer happens-before edge the graph's thread-safety contract
/// relies on: a popped item's node contents are fully visible to the
/// popping worker without any per-field atomics. Each deque also publishes
/// its length in a relaxed atomic, so an idle worker skips empty deques
/// without taking their locks; a stale read only delays a steal to the
/// next visit.
template <typename T>
class WorkStealingQueues {
 public:
  explicit WorkStealingQueues(int num_workers) {
    deques_.reserve(static_cast<size_t>(num_workers));
    for (int i = 0; i < num_workers; ++i) {
      deques_.push_back(std::make_unique<Deque>());
    }
  }

  int num_workers() const { return static_cast<int>(deques_.size()); }

  /// Moves `items`, in order, to the back of `worker`'s deque under one
  /// lock, so the last of them is the next local pop.
  void Push(int worker, std::span<T> items) {
    Deque& deque = *deques_[static_cast<size_t>(worker)];
    MutexLock lock(deque.mu);
    for (T& item : items) deque.items.push_back(std::move(item));
    deque.Publish();
  }
  void Push(int worker, T item) { Push(worker, std::span<T>(&item, 1)); }

  /// Pops the most recently pushed item of `worker`'s own deque (LIFO).
  bool TryPopLocal(int worker, T* out) {
    Deque& deque = *deques_[static_cast<size_t>(worker)];
    // Only this worker adds to its own deque, so a zero it reads is exact.
    if (deque.size.load(std::memory_order_relaxed) == 0) return false;
    MutexLock lock(deque.mu);
    if (deque.items.empty()) return false;
    *out = std::move(deque.items.back());
    deque.items.pop_back();
    deque.Publish();
    return true;
  }

  /// Attempts to steal work for `thief` from the other workers' deques,
  /// visiting victims round-robin starting after the thief. On success the
  /// first stolen item lands in `*out` and the remainder of the stolen
  /// half refills the thief's own deque.
  bool TrySteal(int thief, T* out) {
    const int n = num_workers();
    for (int offset = 1; offset < n; ++offset) {
      const int victim = (thief + offset) % n;
      std::vector<T> loot;
      {
        Deque& deque = *deques_[static_cast<size_t>(victim)];
        if (deque.size.load(std::memory_order_relaxed) == 0) continue;
        MutexLock lock(deque.mu);
        const size_t available = deque.items.size();
        if (available == 0) continue;
        const size_t take = (available + 1) / 2;  // steal-half, from the front
        loot.reserve(take);
        for (size_t i = 0; i < take; ++i) {
          loot.push_back(std::move(deque.items.front()));
          deque.items.pop_front();
        }
        deque.Publish();
      }
      // Victim lock released; now refill our own deque, preserving the
      // shallowest-at-front order so later thieves still grab the largest
      // subtrees. The first stolen item (the shallowest) is returned for
      // immediate expansion.
      *out = std::move(loot.front());
      if (loot.size() > 1) {
        Push(thief, std::span<T>(loot).subspan(1));
      }
      return true;
    }
    return false;
  }

 private:
  struct Deque {
    /// Mirrors `items.size()` after every change, for lock-free emptiness
    /// reads.
    void Publish() CN_REQUIRES(mu) {
      size.store(items.size(), std::memory_order_relaxed);
    }

    Mutex mu;
    std::deque<T> items CN_GUARDED_BY(mu);
    std::atomic<size_t> size{0};
  };

  /// unique_ptr: deques hold a mutex (immovable) and need stable addresses.
  std::vector<std::unique_ptr<Deque>> deques_;
};

}  // namespace coursenav::exec

#endif  // COURSENAV_EXEC_WORK_QUEUE_H_
