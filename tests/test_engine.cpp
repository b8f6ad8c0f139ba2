#include "coorm/sim/engine.hpp"

#include <gtest/gtest.h>

namespace coorm {
namespace {

TEST(Engine, StartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, NextEventAtPeeksWithoutPopping) {
  Engine engine;
  EXPECT_EQ(engine.nextEventAt(), kTimeInf);  // empty queue
  engine.schedule(30, [] {});
  const EventHandle cancelled = engine.schedule(10, [] {});
  EXPECT_EQ(engine.nextEventAt(), 10);
  Executor::cancel(cancelled);
  // Cancelled events count until popped: a lower bound, not the dispatch
  // time.
  EXPECT_EQ(engine.nextEventAt(), 10);
  EXPECT_TRUE(engine.step());  // pops the cancelled event, runs the 30s one
  EXPECT_EQ(engine.now(), 30);
  EXPECT_EQ(engine.nextEventAt(), kTimeInf);
}

TEST(Engine, EventsRunInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(sec(3), [&] { order.push_back(3); });
  engine.schedule(sec(1), [&] { order.push_back(1); });
  engine.schedule(sec(2), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), sec(3));
}

TEST(Engine, TiesBreakByScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(sec(1), [&] { order.push_back(1); });
  engine.schedule(sec(1), [&] { order.push_back(2); });
  engine.schedule(sec(1), [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine engine;
  int fired = 0;
  engine.schedule(sec(1), [&] {
    engine.after(sec(1), [&] { ++fired; });
  });
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), sec(2));
}

TEST(Engine, ZeroDelayEventRunsAtSameTime) {
  Engine engine;
  Time observed = kNever;
  engine.schedule(sec(5), [&] {
    engine.after(0, [&] { observed = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(observed, sec(5));
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  int fired = 0;
  const EventHandle handle = engine.schedule(sec(1), [&] { ++fired; });
  Executor::cancel(handle);
  engine.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, CancelFromEarlierEvent) {
  Engine engine;
  int fired = 0;
  const EventHandle handle = engine.schedule(sec(2), [&] { ++fired; });
  engine.schedule(sec(1), [&] { Executor::cancel(handle); });
  engine.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine engine;
  int fired = 0;
  engine.schedule(sec(1), [&] { ++fired; });
  engine.schedule(sec(5), [&] { ++fired; });
  engine.runUntil(sec(3));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), sec(3));
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilNeverDispatchesPastItsBoundary) {
  // A cancelled event inside the horizon must not let runUntil dispatch
  // the live event behind it.
  Engine engine;
  int fired = 0;
  Executor::cancel(engine.schedule(sec(1), [&] { ++fired; }));
  engine.schedule(sec(5), [&] { ++fired; });
  EXPECT_EQ(engine.runUntil(sec(3)), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.now(), sec(3));
  engine.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, RunUntilIncludesBoundaryEvents) {
  Engine engine;
  int fired = 0;
  engine.schedule(sec(3), [&] { ++fired; });
  engine.runUntil(sec(3));
  EXPECT_EQ(fired, 1);
}

TEST(Engine, StopInterruptsRun) {
  Engine engine;
  int fired = 0;
  engine.schedule(sec(1), [&] {
    ++fired;
    engine.stop();
  });
  engine.schedule(sec(2), [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(engine.empty());
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine engine;
  EXPECT_FALSE(engine.step());
  engine.schedule(0, [] {});
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, RunReturnsDispatchCount) {
  Engine engine;
  for (int i = 0; i < 5; ++i) engine.schedule(sec(i), [] {});
  EXPECT_EQ(engine.run(), 5u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto simulate = [] {
    Engine engine;
    std::vector<Time> log;
    for (int i = 0; i < 10; ++i) {
      engine.schedule(sec(10 - i), [&log, &engine] {
        log.push_back(engine.now());
        engine.after(msec(500), [&log, &engine] { log.push_back(engine.now()); });
      });
    }
    engine.run();
    return log;
  };
  EXPECT_EQ(simulate(), simulate());
}

}  // namespace
}  // namespace coorm
