// Bounded lock-free MPMC ring buffer for the PricingService hot path
// (DESIGN.md §2.6).
//
// The admission spine used to be a mutex+condvar std::deque: every submit
// and every batch collection serialized on one lock, and at millions of
// requests/s the lock — not the lattice math — was the bottleneck. This is
// the classic bounded MPMC queue (Vyukov): a power-of-two array of slots,
// each carrying an atomic sequence number that encodes whose turn the slot
// is. Producers and consumers claim positions with one CAS each and never
// touch a mutex; a push and its pop synchronize through the slot's
// release/acquire sequence stamp, so the element handoff is data-race-free
// (exercised under ThreadSanitizer by tests/core/test_mpmc_ring.cpp).
//
//   push:  slot.seq == pos          -> claim (CAS enqueue), write, publish
//                                      seq = pos + 1
//   pop:   slot.seq == pos + 1      -> claim (CAS dequeue), read, recycle
//                                      seq = pos + capacity
//   full:  slot.seq lags the enqueue position (consumer not done yet)
//   empty: slot.seq lags the dequeue position (producer not done yet)
//
// try_push/try_pop never block and never allocate; blocking semantics
// (backpressure, idle workers, shutdown) are layered on top by EventGate,
// which only touches its mutex when a thread actually has to sleep — under
// load the path is mutex-free end to end.
//
// Slots, the enqueue cursor, and the dequeue cursor each live on their own
// cache line: producers bouncing the enqueue cursor never invalidate the
// line consumers spin on, and adjacent slots don't false-share their
// sequence stamps with each other (the satellite fix that motivated
// auditing the ServiceStats shards too).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/error.h"

namespace binopt::core::service {

/// Smallest power of two >= n (n >= 1).
[[nodiscard]] constexpr std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

template <typename T>
class MpmcRing {
public:
  /// Capacity is rounded up to a power of two (the sequence protocol
  /// indexes with a mask). min_capacity must be >= 1.
  explicit MpmcRing(std::size_t min_capacity)
      : capacity_(next_pow2(min_capacity)),
        mask_(capacity_ - 1),
        slots_(std::make_unique<Slot[]>(capacity_)) {
    BINOPT_REQUIRE(min_capacity >= 1, "ring capacity must be >= 1");
    for (std::size_t i = 0; i < capacity_; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  /// Lock-free push; false when the ring is full.
  bool try_push(T value) {
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::int64_t>(seq) -
                       static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          slot.value = std::move(value);
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full: the consumer of this lap hasn't finished
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Lock-free pop; false when the ring is empty.
  bool try_pop(T& out) {
    std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::int64_t>(seq) -
                       static_cast<std::int64_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          out = std::move(slot.value);
          slot.seq.store(pos + capacity_, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty: the producer of this lap hasn't finished
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Instantaneous occupancy; exact only when quiescent (cursors race
  /// mid-operation), never exceeds capacity() by construction.
  [[nodiscard]] std::size_t size_approx() const {
    const std::uint64_t tail = enqueue_pos_.load(std::memory_order_acquire);
    const std::uint64_t head = dequeue_pos_.load(std::memory_order_acquire);
    return tail > head ? static_cast<std::size_t>(tail - head) : 0;
  }

  [[nodiscard]] bool empty_approx() const { return size_approx() == 0; }

private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  std::size_t capacity_;
  std::uint64_t mask_;
  std::unique_ptr<Slot[]> slots_;
  /// Producer and consumer cursors on private cache lines so the two
  /// sides never false-share.
  alignas(64) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> dequeue_pos_{0};
};

/// Sleep/wake gate for the lock-free hot path. It plays two roles. As a
/// level gate, threads that find the ring full (producers) or empty
/// (consumers) park on it until that changes. As an event gate, a worker
/// lingering on a partial batch parks on its own instance, which is
/// notified only for the events that can end the linger early (a batch
/// the ring can fill, a marked book, a requeue, shutdown), so arrivals
/// that cannot fill the batch wake nobody. Either way the notifying side
/// only pays for a notification when someone is actually parked (one
/// atomic load on the fast path, no mutex).
///
/// Waits are always bounded (callers pass a deadline and loop on their own
/// predicate), so the one theoretically lost wakeup a relaxed design could
/// admit degrades to a bounded re-check latency, never a hang; the
/// seq_cst fences close even that window on the common path.
class EventGate {
public:
  /// Wake every parked thread if any; cheap no-op otherwise.
  void notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
    {
      // Taking the mutex orders this notify after a racing waiter's
      // registration: it either sees the predicate or the notification.
      const std::lock_guard<std::mutex> lock(mutex_);
      ++notifies_;
    }
    cv_.notify_all();
  }

  /// Park until `pred()` holds or `deadline` passes. Returns pred()'s
  /// final value. The predicate is evaluated with the gate mutex held but
  /// must only read lock-free state (ring cursors, atomic flags). When
  /// `lost` is given, it is set to whether the wait ran to `deadline` and
  /// then found `pred()` true although no notify() reached the gate in
  /// the meantime: a lost wake-up that only the deadline recovered.
  template <typename Pred>
  bool wait_until(std::chrono::steady_clock::time_point deadline,
                  Pred&& pred, bool* lost = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    const std::uint64_t seen = notifies_;
    bool timed_out = false;
    bool satisfied = pred();
    while (!satisfied && !timed_out) {
      timed_out = cv_.wait_until(lock, deadline) == std::cv_status::timeout;
      satisfied = pred();
    }
    if (lost != nullptr) *lost = timed_out && satisfied && notifies_ == seen;
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    return satisfied;
  }

private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<int> waiters_{0};
  std::uint64_t notifies_ = 0;  ///< guarded by mutex_
};

}  // namespace binopt::core::service
