// MpmcRing / EventGate / SlabArena behaviour: sequence-protocol FIFO
// order, wraparound over many laps, full/empty boundaries, and
// multi-producer multi-consumer delivery with neither losses nor
// duplicates. test_core is part of the ThreadSanitizer CI job, so the
// stress tests double as race checks of the lock-free hot-path
// primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/service/mpmc_ring.h"
#include "core/service/slab_arena.h"

namespace binopt::core::service {
namespace {

using namespace std::chrono_literals;

TEST(NextPow2, RoundsUpToPowersOfTwo) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(8192), 8192u);
  EXPECT_EQ(next_pow2(8193), 16384u);
}

TEST(MpmcRing, CapacityRoundsUpToPowerOfTwo) {
  const MpmcRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  const MpmcRing<int> exact(16);
  EXPECT_EQ(exact.capacity(), 16u);
}

TEST(MpmcRing, SingleThreadFifoOrder) {
  MpmcRing<int> ring(128);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(ring.try_push(i));
  for (int i = 0; i < 100; ++i) {
    int value = -1;
    ASSERT_TRUE(ring.try_pop(value));
    EXPECT_EQ(value, i);
  }
  int value = -1;
  EXPECT_FALSE(ring.try_pop(value));
}

TEST(MpmcRing, RejectsPushWhenFullAndPopWhenEmpty) {
  MpmcRing<int> ring(4);
  int value = -1;
  EXPECT_FALSE(ring.try_pop(value));  // empty from the start
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full
  EXPECT_EQ(ring.size_approx(), 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(value));
    EXPECT_EQ(value, i);
  }
  EXPECT_FALSE(ring.try_pop(value));  // empty again
  EXPECT_TRUE(ring.empty_approx());
}

TEST(MpmcRing, WraparoundKeepsFifoOverManyLaps) {
  // A small ring cycled far past its capacity exercises the sequence
  // stamps' lap arithmetic (seq = pos + capacity on recycle).
  MpmcRing<std::uint64_t> ring(4);
  std::uint64_t next = 0;
  for (int lap = 0; lap < 10000; ++lap) {
    for (int k = 0; k < 3; ++k) ASSERT_TRUE(ring.try_push(next + k));
    for (int k = 0; k < 3; ++k) {
      std::uint64_t value = ~std::uint64_t{0};
      ASSERT_TRUE(ring.try_pop(value));
      ASSERT_EQ(value, next + k);
    }
    next += 3;
  }
}

TEST(MpmcRing, StressDeliversEveryValueExactlyOnce) {
  // 4 producers blast disjoint id ranges through a deliberately small
  // ring while 4 consumers drain it; afterwards the union of everything
  // received must be exactly the set sent — no loss, no duplication.
  // Under TSan this also race-checks the push/pop element handoff.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 2000;
  MpmcRing<std::uint64_t> ring(64);
  std::atomic<std::uint64_t> consumed{0};
  std::vector<std::vector<std::uint64_t>> received(kConsumers);

  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t value = 0;
      while (consumed.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        if (ring.try_pop(value)) {
          received[c].push_back(value);
          consumed.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t id = p * kPerProducer + i;
        while (!ring.try_push(id)) std::this_thread::yield();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::set<std::uint64_t> all;
  std::size_t total = 0;
  for (const auto& chunk : received) {
    total += chunk.size();
    all.insert(chunk.begin(), chunk.end());
  }
  EXPECT_EQ(total, kProducers * kPerProducer);  // no duplicates
  EXPECT_EQ(all.size(), kProducers * kPerProducer);  // no losses
  EXPECT_EQ(*all.begin(), 0u);
  EXPECT_EQ(*all.rbegin(), kProducers * kPerProducer - 1);
}

TEST(MpmcRing, PerProducerOrderIsPreservedUnderContention) {
  // FIFO per producer: ids from one producer must be consumed in the
  // order that producer pushed them (the global order may interleave).
  constexpr std::uint64_t kCount = 5000;
  MpmcRing<std::uint64_t> ring(32);
  std::vector<std::uint64_t> out;
  out.reserve(kCount);
  std::thread consumer([&] {
    std::uint64_t value = 0;
    while (out.size() < kCount) {
      if (ring.try_pop(value)) out.push_back(value);
      else std::this_thread::yield();
    }
  });
  for (std::uint64_t i = 0; i < kCount; ++i) {
    while (!ring.try_push(i)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.size(), kCount);
}

TEST(EventGate, NotifyWakesParkedWaiter) {
  EventGate gate;
  std::atomic<bool> flag{false};
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    const bool satisfied = gate.wait_until(
        std::chrono::steady_clock::now() + 5s,
        [&] { return flag.load(std::memory_order_relaxed); });
    woke.store(satisfied, std::memory_order_relaxed);
  });
  std::this_thread::sleep_for(10ms);
  flag.store(true, std::memory_order_relaxed);
  gate.notify();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(EventGate, WaitTimesOutWhenPredicateStaysFalse) {
  EventGate gate;
  const auto start = std::chrono::steady_clock::now();
  const bool satisfied =
      gate.wait_until(start + 20ms, [] { return false; });
  EXPECT_FALSE(satisfied);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 20ms);
}

TEST(EventGate, ReportsOnlyAWakeUpTheDeadlineHadToRecover) {
  // The predicate turns true without a notify: only the deadline ends the
  // wait, and the gate reports the wake-up as lost.
  EventGate gate;
  std::atomic<bool> flag{false};
  bool lost = false;
  std::thread silent([&] {
    std::this_thread::sleep_for(5ms);
    flag.store(true, std::memory_order_relaxed);
  });
  EXPECT_TRUE(gate.wait_until(
      std::chrono::steady_clock::now() + 30ms,
      [&] { return flag.load(std::memory_order_relaxed); }, &lost));
  silent.join();
  EXPECT_TRUE(lost);

  // A notified wake-up, and a wait that times out with the predicate
  // still false, lost nothing.
  flag.store(false, std::memory_order_relaxed);
  std::thread notifier([&] {
    std::this_thread::sleep_for(5ms);
    flag.store(true, std::memory_order_relaxed);
    gate.notify();
  });
  EXPECT_TRUE(gate.wait_until(
      std::chrono::steady_clock::now() + 5s,
      [&] { return flag.load(std::memory_order_relaxed); }, &lost));
  notifier.join();
  EXPECT_FALSE(lost);
  lost = true;
  EXPECT_FALSE(gate.wait_until(std::chrono::steady_clock::now() + 5ms,
                               [] { return false; }, &lost));
  EXPECT_FALSE(lost);
}

TEST(SlabArena, AcquireYieldsDistinctStableSlots) {
  SlabArena<std::uint64_t> arena(8, /*slab_size=*/4);
  std::set<std::uint64_t*> slots;
  std::vector<std::uint64_t*> leased;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t* slot = arena.acquire();
    ASSERT_NE(slot, nullptr);
    slots.insert(slot);
    leased.push_back(slot);
  }
  EXPECT_EQ(slots.size(), 8u);  // all distinct
  EXPECT_EQ(arena.allocated(), 8u);
  for (std::uint64_t* slot : leased) arena.release(slot);
  // Recycled leases come from the same slab storage — no new growth.
  for (int i = 0; i < 8; ++i) {
    std::uint64_t* slot = arena.acquire();
    EXPECT_TRUE(slots.count(slot)) << "acquire() returned a foreign slot";
    leased[i] = slot;
  }
  EXPECT_EQ(arena.allocated(), 8u);
  for (std::uint64_t* slot : leased) arena.release(slot);
}

TEST(SlabArena, ConcurrentLeaseCycleStaysBounded) {
  // 4 threads cycling acquire -> write -> release through a small arena;
  // TSan checks the freelist handoff, and the slot bound must hold.
  SlabArena<std::uint64_t> arena(16, /*slab_size=*/4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        std::uint64_t* slot = arena.acquire();
        *slot = static_cast<std::uint64_t>(t) * 1000000 + i;
        arena.release(slot);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(arena.allocated(), arena.max_slots());
}

}  // namespace
}  // namespace binopt::core::service
