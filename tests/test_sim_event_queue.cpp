#include "moas/sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace moas::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(3.0, [&] { order.push_back(3); });
  queue.schedule_at(1.0, [&] { order.push_back(1); });
  queue.schedule_at(2.0, [&] { order.push_back(2); });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  queue.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  EventQueue queue;
  double fired_at = -1.0;
  queue.schedule_at(5.0, [&] {
    queue.schedule_after(2.0, [&] { fired_at = queue.now(); });
  });
  queue.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.0);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue queue;
  queue.schedule_at(5.0, [] {});
  queue.run();
  EXPECT_THROW(queue.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, RejectsEmptyCallback) {
  EventQueue queue;
  EXPECT_THROW(queue.schedule_at(1.0, std::function<void()>()), std::invalid_argument);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue queue;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 50) queue.schedule_after(0.1, recurse);
  };
  queue.schedule_at(0.0, recurse);
  const std::size_t n = queue.run();
  EXPECT_EQ(n, 50u);
  EXPECT_EQ(depth, 50);
}

TEST(EventQueue, RunHonorsEventCap) {
  EventQueue queue;
  // A self-perpetuating event: run() must stop at the cap.
  std::function<void()> forever = [&] { queue.schedule_after(1.0, forever); };
  queue.schedule_at(0.0, forever);
  EXPECT_EQ(queue.run(100), 100u);
  EXPECT_FALSE(queue.empty());
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue queue;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    queue.schedule_at(t, [&fired, &queue] { fired.push_back(queue.now()); });
  }
  EXPECT_EQ(queue.run_until(2.5), 2u);
  EXPECT_DOUBLE_EQ(queue.now(), 2.5);
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_EQ(queue.run_until(10.0), 2u);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(EventQueue, RunUntilInclusiveOfBoundary) {
  EventQueue queue;
  bool ran = false;
  queue.schedule_at(2.0, [&] { ran = true; });
  queue.run_until(2.0);
  EXPECT_TRUE(ran);
}

TEST(EventQueue, RunUntilAdvancesClockOnEmptyQueue) {
  EventQueue queue;
  queue.run_until(9.0);
  EXPECT_DOUBLE_EQ(queue.now(), 9.0);
}

TEST(EventQueue, ExecutedCounterAccumulates) {
  EventQueue queue;
  for (int i = 0; i < 5; ++i) queue.schedule_at(i, [] {});
  queue.run();
  for (int i = 6; i < 9; ++i) queue.schedule_at(i, [] {});
  queue.run();
  EXPECT_EQ(queue.executed(), 8u);
}

TEST(EventQueue, CallbackSchedulesPastSlabCapacityWhileRunning) {
  EventQueue queue;
  std::vector<int> order;
  // The running callback owns captured state and grows the callback slab
  // far past its size; the callback was moved out of the slab before it
  // ran, so its captures stay intact while the slab reallocates under it.
  const std::vector<int> payload(64, 7);
  queue.schedule_at(1.0, [&queue, &order, payload] {
    for (int i = 0; i < 1000; ++i) {
      queue.schedule_at(2.0, [&order, i] { order.push_back(i); });
    }
    order.push_back(payload.back() * 1000 + static_cast<int>(payload.size()));
  });
  queue.run();
  ASSERT_EQ(order.size(), 1001u);
  EXPECT_EQ(order.front(), 7064);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
}

TEST(EventQueue, SameTimeFifoHoldsAfterSlotsAreRecycled) {
  EventQueue queue;
  for (int i = 0; i < 8; ++i) queue.schedule_at(i, [] {});
  queue.run();  // frees slots 0..7; they are reused in the reverse order
  std::vector<int> order;
  for (int i = 0; i < 12; ++i) {
    queue.schedule_at(20.0, [&order, i] { order.push_back(i); });
  }
  queue.schedule_at(10.0, [&order] { order.push_back(-1); });
  queue.run();
  std::vector<int> expected{-1};
  for (int i = 0; i < 12; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, ExecutedAndPendingCountEventsNotSlots) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  for (int i = 1; i <= 4; ++i) queue.schedule_at(i, [] {});
  EXPECT_EQ(queue.pending(), 4u);
  EXPECT_TRUE(queue.step());
  EXPECT_EQ(queue.pending(), 3u);
  EXPECT_EQ(queue.executed(), 1u);
  // A recycled slot is pending again once rescheduled.
  queue.schedule_at(2.5, [] {});
  EXPECT_EQ(queue.pending(), 4u);
  EXPECT_EQ(queue.run_until(2.5), 2u);
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_EQ(queue.executed(), 3u);
  EXPECT_EQ(queue.run(), 2u);
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.step());
  EXPECT_EQ(queue.executed(), 5u);
}

}  // namespace
}  // namespace moas::sim
