#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "metrics/registry.hpp"

namespace p2plab::sim {
namespace {

TEST(Simulation, StartsAtZeroWithEmptyQueue) {
  Simulation sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, DispatchesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::zero() + Duration::ms(20), [&] { order.push_back(2); });
  sim.schedule_at(SimTime::zero() + Duration::ms(10), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::zero() + Duration::ms(30), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::zero() + Duration::ms(30));
}

TEST(Simulation, SameTimeEventsFifo) {
  Simulation sim;
  std::vector<int> order;
  const SimTime t = SimTime::zero() + Duration::ms(5);
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  SimTime fired_at;
  sim.schedule_after(Duration::ms(10), [&] {
    sim.schedule_after(Duration::ms(5),
                       [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, SimTime::zero() + Duration::ms(15));
}

TEST(Simulation, ClockVisibleInsideCallback) {
  Simulation sim;
  sim.schedule_after(Duration::us(7), [&] {
    EXPECT_EQ(sim.now(), SimTime::zero() + Duration::us(7));
  });
  sim.run();
}

TEST(Simulation, CancelPreventsDispatch) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule_after(Duration::ms(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelIsIdempotentAndSafeOnInvalid) {
  Simulation sim;
  const EventId id = sim.schedule_after(Duration::ms(1), [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(EventId{}));
  sim.run();
}

TEST(Simulation, CancelAfterFireReturnsFalse) {
  Simulation sim;
  const EventId id = sim.schedule_after(Duration::ms(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulation, PendingEventCountTracksCancels) {
  Simulation sim;
  const EventId a = sim.schedule_after(Duration::ms(1), [] {});
  sim.schedule_after(Duration::ms(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.schedule_after(Duration::ms(10), [&] { ++fired; });
  sim.schedule_after(Duration::ms(20), [&] { ++fired; });
  sim.schedule_after(Duration::ms(30), [&] { ++fired; });
  sim.run_until(SimTime::zero() + Duration::ms(20));
  EXPECT_EQ(fired, 2);  // events at exactly the deadline run
  EXPECT_EQ(sim.now(), SimTime::zero() + Duration::ms(20));
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, RunUntilAdvancesClockWhenIdle) {
  Simulation sim;
  sim.run_until(SimTime::zero() + Duration::sec(5));
  EXPECT_EQ(sim.now(), SimTime::zero() + Duration::sec(5));
}

TEST(Simulation, RunWhileHonorsPredicate) {
  Simulation sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_after(Duration::ms(i), [&] { ++fired; });
  }
  sim.run_while([&] { return fired < 4; });
  EXPECT_EQ(fired, 4);
}

TEST(Simulation, EventsScheduledDuringRunAreDispatched) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(Duration::ms(1), recurse);
  };
  sim.schedule_after(Duration::ms(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), SimTime::zero() + Duration::ms(5));
}

TEST(Simulation, DispatchedEventsCounter) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.schedule_after(Duration::ms(i + 1), [] {});
  sim.run();
  EXPECT_EQ(sim.dispatched_events(), 7u);
}

// Property: random schedule order still dispatches in nondecreasing time.
TEST(Simulation, RandomScheduleDispatchesMonotonically) {
  Simulation sim;
  Rng rng(99);
  std::vector<SimTime> dispatch_times;
  for (int i = 0; i < 2000; ++i) {
    const auto when =
        SimTime::zero() + Duration::us(static_cast<std::int64_t>(rng.uniform(100000)));
    sim.schedule_at(when, [&, when] {
      EXPECT_EQ(sim.now(), when);
      dispatch_times.push_back(sim.now());
    });
  }
  sim.run();
  ASSERT_EQ(dispatch_times.size(), 2000u);
  for (size_t i = 1; i < dispatch_times.size(); ++i) {
    EXPECT_LE(dispatch_times[i - 1], dispatch_times[i]);
  }
}

// A stale EventId whose slot has been recycled by a newer event must not
// cancel the newer event (the classic ABA hazard of slot reuse; the seq
// stamp disambiguates).
TEST(Simulation, CancelOfRecycledSlotIsAbaSafe) {
  Simulation sim;
  bool a_fired = false;
  bool b_fired = false;
  const EventId a = sim.schedule_after(Duration::ms(1), [&] { a_fired = true; });
  sim.run();  // a fires; its slot returns to the free list
  EXPECT_TRUE(a_fired);
  ASSERT_EQ(sim.slab_size(), 1u);  // b below must recycle a's slot
  sim.schedule_after(Duration::ms(1), [&] { b_fired = true; });
  EXPECT_FALSE(sim.cancel(a));  // stale id: same slot, older seq
  sim.run();
  EXPECT_TRUE(b_fired);
}

TEST(Simulation, CancelOfCancelledThenRecycledSlotIsAbaSafe) {
  Simulation sim;
  const EventId a = sim.schedule_after(Duration::ms(1), [] {});
  EXPECT_TRUE(sim.cancel(a));
  sim.run();  // prunes a's heap entry, freeing the slot
  int fired = 0;
  sim.schedule_after(Duration::ms(1), [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(a));  // must not hit the recycled slot
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, CompactShrinksSlabAndPreservesDispatch) {
  Simulation sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(sim.schedule_after(Duration::ms(1000 + i),
                                     [&order, i] { order.push_back(i); }));
  }
  // A burst that ended: cancel the long tail, keep a few early events.
  for (int i = 10; i < 5000; ++i) sim.cancel(ids[static_cast<size_t>(i)]);
  const size_t slots_before = sim.slab_size();
  sim.maybe_compact();
  EXPECT_LT(sim.slab_size(), slots_before);
  EXPECT_EQ(sim.pending_events(), 10u);
  // Stale ids stay invalid after the shrink; live ones stay cancellable.
  EXPECT_FALSE(sim.cancel(ids[20]));
  EXPECT_TRUE(sim.cancel(ids[5]));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 6, 7, 8, 9}));
}

TEST(Simulation, CompactKeepsSchedulingUsable) {
  Simulation sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(sim.schedule_after(Duration::ms(i + 1), [] {}));
  }
  for (const EventId id : ids) sim.cancel(id);
  sim.compact();
  EXPECT_EQ(sim.slab_size(), 0u);
  int fired = 0;
  sim.schedule_after(Duration::ms(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

// A callback runs from its own slab slot. Scheduling more than a chunk of
// events from inside it grows the slab by whole chunks but never moves the
// running closure: its captures must read back intact afterwards (ASan
// would flag a closure run from freed or reallocated storage).
TEST(Simulation, CallbackSchedulesChunksDuringItsOwnDispatch) {
  Simulation sim;
  // Slots 0..2054 span the first four chunks (256 + 512 + 1024 + 2048).
  constexpr int kEvents = 8 * static_cast<int>(Simulation::kFirstChunkSlots) + 6;
  std::vector<int> order;
  std::array<std::uint64_t, 4> pattern{};  // keeps the closure inline
  for (std::size_t i = 0; i < pattern.size(); ++i) pattern[i] = 0xabc0 + i;
  bool captures_intact = false;
  sim.schedule_after(Duration::ms(1), [&sim, &order, &captures_intact,
                                       pattern] {
    for (int i = 0; i < kEvents; ++i) {
      sim.schedule_after(Duration::ms(1 + i % 3),
                         [&order, i] { order.push_back(i); });
    }
    bool intact = true;
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      intact = intact && pattern[i] == 0xabc0 + i;
    }
    captures_intact = intact;
  });
  sim.run();
  EXPECT_TRUE(captures_intact);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kEvents));
  // (when, seq) order: the i % 3 == 0 events first, each group FIFO.
  std::vector<int> expected;
  for (int r = 0; r < 3; ++r) {
    for (int i = r; i < kEvents; i += 3) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.slab_size(), static_cast<std::size_t>(kEvents) + 1);
}

TEST(Simulation, SelfCancelInsideCallbackReturnsFalse) {
  Simulation sim;
  EventId self;
  bool cancelled = true;
  int fired = 0;
  self = sim.schedule_after(Duration::ms(1), [&] {
    ++fired;
    cancelled = sim.cancel(self);
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, SlotIsNotRecycledWhileItsCallbackRuns) {
  Simulation sim;
  int fired = 0;
  sim.schedule_after(Duration::ms(1), [&] {
    // The running slot is still busy: this event must take a new one.
    sim.schedule_after(Duration::ms(1), [&fired] { ++fired; });
    EXPECT_EQ(sim.slab_size(), 2u);
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  // Both slots are free again once their callbacks have returned.
  sim.schedule_after(Duration::ms(1), [&fired] { ++fired; });
  sim.schedule_after(Duration::ms(1), [&fired] { ++fired; });
  EXPECT_EQ(sim.slab_size(), 2u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, CompactReleasesTrailingChunks) {
  metrics::Registry reg;
  Simulation sim;
  sim.bind_metrics(reg);
  const std::uint32_t first = Simulation::kFirstChunkSlots;
  // Exactly three chunks: first + 2 * first + 4 * first slots.
  std::vector<EventId> ids;
  for (std::uint32_t i = 0; i < 7 * first; ++i) {
    ids.push_back(sim.schedule_after(Duration::ms(1 + i), [] {}));
  }
  EXPECT_EQ(sim.slab_size(), 7u * first);
  EXPECT_EQ(reg.value("sim.slab.capacity"), 7.0 * first);
  // Keep the first 10 events; the two tail chunks hold only dead slots.
  for (std::size_t i = 10; i < ids.size(); ++i) sim.cancel(ids[i]);
  sim.compact();
  EXPECT_EQ(sim.slab_size(), 10u);
  EXPECT_EQ(reg.value("sim.slab.capacity"), static_cast<double>(first));
  EXPECT_EQ(sim.pending_events(), 10u);
  int fired = 0;
  for (std::uint32_t i = 0; i < first; ++i) {
    sim.schedule_after(Duration::ms(1), [&fired] { ++fired; });
  }
  EXPECT_EQ(reg.value("sim.slab.capacity"), 3.0 * first);  // regrown
  sim.run();
  EXPECT_EQ(fired, static_cast<int>(first));
}

TEST(Simulation, HeapFallbacksAreCountedPerSchedule) {
  metrics::Registry reg;
  Simulation sim;
  sim.bind_metrics(reg);
  std::array<char, InlineCallback::kInlineBytes + 1> big{};
  big[0] = 3;
  int out = 0;
  sim.schedule_after(Duration::ms(1), [big, &out] { out += big[0]; });
  // A prebuilt heap-backed callback is relocated in, and counted too.
  InlineCallback boxed = [big, &out] { out += big[0]; };
  sim.schedule_after(Duration::ms(2), std::move(boxed));
  sim.schedule_after(Duration::ms(3), [&out] { ++out; });  // inline
  EXPECT_EQ(reg.value("sim.alloc.callback_heap_fallbacks"), 2.0);
  sim.run();
  EXPECT_EQ(out, 7);
}

TEST(PeriodicTask, FiresOnCadence) {
  Simulation sim;
  PeriodicTask task;
  std::vector<SimTime> fires;
  task.start(sim, Duration::sec(10), Duration::sec(1),
             [&] { fires.push_back(sim.now()); });
  sim.run_until(SimTime::zero() + Duration::sec(31));
  ASSERT_EQ(fires.size(), 4u);  // t = 1, 11, 21, 31
  EXPECT_EQ(fires[0], SimTime::zero() + Duration::sec(1));
  EXPECT_EQ(fires[3], SimTime::zero() + Duration::sec(31));
  task.stop();
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, StopFromInsideCallback) {
  Simulation sim;
  PeriodicTask task;
  int fires = 0;
  task.start(sim, Duration::sec(1), Duration::sec(1), [&] {
    if (++fires == 3) task.stop();
  });
  sim.run();
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTask, RestartReplacesSchedule) {
  Simulation sim;
  PeriodicTask task;
  int first = 0;
  int second = 0;
  task.start(sim, Duration::sec(1), Duration::zero(), [&] { ++first; });
  task.start(sim, Duration::sec(1), Duration::zero(), [&] { ++second; });
  sim.run_until(SimTime::zero() + Duration::millis(2500));
  task.stop();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 3);  // t = 0, 1, 2
}

}  // namespace
}  // namespace p2plab::sim
