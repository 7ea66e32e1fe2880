#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace vb::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.run_top();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_top();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ThrowsOnEmptyAccess) {
  EventQueue q;
  EXPECT_THROW(q.next_time(), std::logic_error);
  EXPECT_THROW(q.run_top(), std::logic_error);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator s;
  double seen = -1;
  s.schedule_in(2.5, [&] { seen = s.now(); });
  s.run_to_completion();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(s.now(), 2.5);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator s;
  s.run_until(10.0);
  EXPECT_DOUBLE_EQ(s.now(), 10.0);
}

TEST(Simulator, RunUntilExecutesEventsAtBoundary) {
  Simulator s;
  int fired = 0;
  s.schedule_in(5.0, [&] { ++fired; });
  s.schedule_in(5.000001, [&] { ++fired; });
  s.run_until(5.0);
  EXPECT_EQ(fired, 1);
  s.run_until(6.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator s;
  std::vector<double> times;
  s.schedule_in(1.0, [&] {
    times.push_back(s.now());
    s.schedule_in(1.0, [&] { times.push_back(s.now()); });
  });
  s.run_to_completion();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulator, RejectsNegativeDelayAndPastScheduling) {
  Simulator s;
  EXPECT_THROW(s.schedule_in(-1.0, [] {}), std::invalid_argument);
  s.run_until(5.0);
  EXPECT_THROW(s.schedule_at(4.0, [] {}), std::invalid_argument);
}

TEST(Simulator, PeriodicFiresAtPeriod) {
  Simulator s;
  std::vector<double> fires;
  s.schedule_periodic(1.0, 2.0, [&] {
    fires.push_back(s.now());
    return true;
  });
  s.run_until(9.0);
  ASSERT_EQ(fires.size(), 5u);  // t = 1, 3, 5, 7, 9
  EXPECT_DOUBLE_EQ(fires[0], 1.0);
  EXPECT_DOUBLE_EQ(fires[4], 9.0);
}

TEST(Simulator, PeriodicStopsWhenActionReturnsFalse) {
  Simulator s;
  int count = 0;
  s.schedule_periodic(0.0, 1.0, [&] {
    ++count;
    return count < 3;
  });
  s.run_until(100.0);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PeriodicRespectsUntil) {
  Simulator s;
  int count = 0;
  s.schedule_periodic(0.0, 1.0, [&] {
    ++count;
    return true;
  }, 4.5);
  s.run_until(100.0);
  EXPECT_EQ(count, 5);  // t = 0, 1, 2, 3, 4
}

TEST(Simulator, PeriodicRejectsNonPositivePeriod) {
  Simulator s;
  EXPECT_THROW(s.schedule_periodic(0.0, 0.0, [] { return true; }),
               std::invalid_argument);
}

TEST(Simulator, PeriodicRejectsNegativePhase) {
  // A negative phase would put the first tick before now(), moving the
  // clock backwards; it is rejected like a negative schedule_in delay.
  Simulator s;
  s.run_until(10.0);
  EXPECT_THROW(s.schedule_periodic(-5.0, 1.0, [] { return true; }),
               std::invalid_argument);
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator s;
  int fired = 0;
  s.schedule_in(1.0, [&] { ++fired; });
  s.schedule_in(2.0, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, CountsExecutedAndScheduled) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_in(1.0, [] {});
  s.run_to_completion();
  EXPECT_EQ(s.events_executed(), 5u);
  EXPECT_EQ(s.events_scheduled(), 5u);
}

}  // namespace
}  // namespace vb::sim
