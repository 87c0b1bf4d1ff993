#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace dnnperf::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
  EXPECT_EQ(engine.events_processed(), 3u);
}

TEST(Engine, SimultaneousEventsAreFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule_at(2.0, [&] {
    engine.schedule_after(0.5, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool ran = false;
  const EventId id = engine.schedule_at(1.0, [&] { ran = true; });
  engine.cancel(id);
  engine.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(engine.events_processed(), 0u);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine engine;
  int count = 0;
  engine.schedule_at(1.0, [&] { ++count; });
  engine.schedule_at(2.0, [&] { ++count; });
  engine.schedule_at(5.0, [&] { ++count; });
  engine.run_until(2.0);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  engine.run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, PastSchedulingThrows) {
  Engine engine;
  engine.schedule_at(2.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_after(-0.1, [] {}), std::invalid_argument);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine engine;
  EXPECT_FALSE(engine.step());
  engine.schedule_at(0.0, [] {});
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, PoolReusesSlotsInsteadOfGrowing) {
  // A self-rescheduling chain keeps exactly one event in flight, so the slab
  // must stay at one slot no matter how many events run through it.
  Engine engine;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 10000) engine.schedule_after(1.0, chain);
  };
  engine.schedule_at(0.0, chain);
  engine.run();
  EXPECT_EQ(fired, 10000);
  EXPECT_EQ(engine.events_scheduled(), 10000u);
  EXPECT_EQ(engine.events_processed(), 10000u);
  EXPECT_EQ(engine.pool_slots(), 1u);
}

TEST(Engine, PoolHighWaterTracksConcurrentEvents) {
  Engine engine;
  int fired = 0;
  for (int i = 0; i < 64; ++i) engine.schedule_at(static_cast<double>(i), [&] { ++fired; });
  EXPECT_EQ(engine.pool_slots(), 64u);
  engine.run();
  EXPECT_EQ(fired, 64);
  // The drained pool is reused by the next burst, not grown.
  for (int i = 0; i < 64; ++i)
    engine.schedule_at(engine.now() + i, [&] { ++fired; });
  EXPECT_EQ(engine.pool_slots(), 64u);
  engine.run();
  EXPECT_EQ(fired, 128);
}

TEST(Engine, StaleEventIdNeverCancelsAReusedSlot) {
  Engine engine;
  bool first = false, second = false;
  const EventId id = engine.schedule_at(1.0, [&] { first = true; });
  engine.run();
  // The slot is free now; the next event reuses it under a new generation.
  engine.schedule_at(2.0, [&] { second = true; });
  engine.cancel(id);  // stale: must not touch the reused slot
  engine.run();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
}

TEST(Engine, CancelledEventsFreeTheirSlots) {
  Engine engine;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(engine.schedule_at(1.0 + i, [] {}));
  for (EventId id : ids) engine.cancel(id);
  EXPECT_TRUE(engine.empty());
  engine.run();
  EXPECT_EQ(engine.events_processed(), 0u);
  // All 8 slots drained back to the free list: a new burst fits in place.
  for (int i = 0; i < 8; ++i) engine.schedule_at(10.0 + i, [] {});
  EXPECT_EQ(engine.pool_slots(), 8u);
  engine.run();
}

TEST(Engine, NextTimeOfEmptyCalendarIsInfinite) {
  Engine engine;
  EXPECT_EQ(engine.next_time(), std::numeric_limits<double>::infinity());
  engine.schedule_at(1.5, [] {});
  EXPECT_EQ(engine.next_time(), 1.5);
  engine.run();
  EXPECT_EQ(engine.next_time(), std::numeric_limits<double>::infinity());
  const EventId id = engine.schedule_at(3.0, [] {});
  engine.cancel(id);  // only a cancelled event left: still empty
  EXPECT_EQ(engine.next_time(), std::numeric_limits<double>::infinity());
}

TEST(Engine, NextTimeSkipsCancelledHead) {
  Engine engine;
  std::vector<int> order;
  const EventId head = engine.schedule_at(1.0, [&] { order.push_back(1); });
  const EventId second = engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.schedule_at(4.0, [&] { order.push_back(4); });
  engine.cancel(head);
  engine.cancel(second);
  EXPECT_EQ(engine.next_time(), 4.0);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);  // a query runs nothing
  EXPECT_EQ(engine.events_processed(), 0u);
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{4}));
  EXPECT_EQ(engine.events_processed(), 1u);
}

TEST(Engine, NextTimeKeepsFifoAmongEqualTimes) {
  // Querying the head must not reorder simultaneous events: ones scheduled
  // after the query still run after every earlier one at the same time.
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
  const EventId cancelled = engine.schedule_at(1.0, [&order] { order.push_back(-1); });
  engine.cancel(cancelled);
  EXPECT_EQ(engine.next_time(), 1.0);
  engine.schedule_at(1.0, [&order] { order.push_back(3); });
  EXPECT_EQ(engine.next_time(), 1.0);
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Resource, GrantsUpToCapacity) {
  Engine engine;
  Resource res(engine, 2);
  int granted = 0;
  for (int i = 0; i < 3; ++i) res.acquire([&] { ++granted; });
  engine.run();
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(res.in_use(), 2);
  EXPECT_EQ(res.queue_length(), 1u);

  res.release();
  engine.run();
  EXPECT_EQ(granted, 3);
  EXPECT_EQ(res.in_use(), 2);  // unit transferred to the waiter
}

TEST(Resource, FifoOrderAmongWaiters) {
  Engine engine;
  Resource res(engine, 1);
  std::vector<int> order;
  res.acquire([&] { order.push_back(0); });
  res.acquire([&] { order.push_back(1); });
  res.acquire([&] { order.push_back(2); });
  engine.run();
  res.release();
  engine.run();
  res.release();
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Resource, ReleaseWithoutAcquireThrows) {
  Engine engine;
  Resource res(engine, 1);
  EXPECT_THROW(res.release(), std::logic_error);
  EXPECT_THROW(Resource(engine, 0), std::invalid_argument);
}

}  // namespace
}  // namespace dnnperf::sim
