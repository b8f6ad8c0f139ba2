// IoExecutor: the real-time Executor contract the Server depends on —
// monotonic now(), same-time callbacks in scheduling order, cancellation
// without dispatch — plus fd watching (socketpair-driven) with unwatch
// safety from inside callbacks, and the edge-triggered pitfalls of the
// epoll loop (data buffered before the watch, re-arming the writable
// edge, an EOF riding behind the last bytes).
#include "coorm/common/metrics.hpp"
#include "coorm/net/io_executor.hpp"
#include "coorm/net/socket.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

namespace coorm::net {
namespace {

class IoExecutorContract : public ::testing::Test {
 protected:
  IoExecutor& executor() { return executor_; }

 private:
  IoExecutor executor_;
};

TEST_F(IoExecutorContract, NowIsMonotonicAndStartsNearZero) {
  const Time first = executor().now();
  EXPECT_GE(first, 0);
  EXPECT_LT(first, sec(5));
  Time previous = first;
  for (int i = 0; i < 100; ++i) {
    const Time now = executor().now();
    EXPECT_GE(now, previous);
    previous = now;
  }
}

TEST_F(IoExecutorContract, TimersFireInTimeThenSchedulingOrder) {
  std::vector<std::string> order;
  const Time base = executor().now();
  executor().schedule(base + 30, [&] { order.push_back("late"); });
  executor().schedule(base + 10, [&] { order.push_back("early-a"); });
  executor().schedule(base + 10, [&] { order.push_back("early-b"); });
  executor().schedule(base, [&] { order.push_back("now"); });

  while (executor().pendingTimers() > 0) executor().runOne(msec(20));
  EXPECT_EQ(order,
            (std::vector<std::string>{"now", "early-a", "early-b", "late"}));
}

TEST_F(IoExecutorContract, SameTimeChainsRunInSchedulingOrder) {
  // The order the server's notifications rely on: a same-time event
  // scheduled first runs before events that a same-time callback schedules
  // afterwards.
  std::vector<int> order;
  const Time at = executor().now();
  executor().schedule(at, [&] {
    order.push_back(1);
    executor().schedule(executor().now(), [&] { order.push_back(3); });
  });
  executor().schedule(at, [&] { order.push_back(2); });
  while (executor().pendingTimers() > 0) executor().runOne(msec(20));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(IoExecutorContract, CancelledEventsAreSkipped) {
  int fired = 0;
  const EventHandle handle =
      executor().schedule(executor().now(), [&] { ++fired; });
  executor().after(0, [&] { ++fired; });
  Executor::cancel(handle);
  while (executor().pendingTimers() > 0) executor().runOne(msec(20));
  EXPECT_EQ(fired, 1);
}

TEST_F(IoExecutorContract, PastDeadlinesAreClampedNotRejected) {
  bool fired = false;
  executor().schedule(executor().now() - 1000, [&] { fired = true; });
  executor().runOne(msec(20));
  EXPECT_TRUE(fired);
}

TEST_F(IoExecutorContract, WatchesReadabilityOnASocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string received;
  executor().watch(fds[0], IoExecutor::kReadable, [&](short events) {
    ASSERT_TRUE((events & IoExecutor::kReadable) != 0);
    char buffer[64];
    const ssize_t n = ::read(fds[0], buffer, sizeof(buffer));
    ASSERT_GT(n, 0);
    received.append(buffer, static_cast<std::size_t>(n));
  });

  ASSERT_EQ(::write(fds[1], "ping", 4), 4);
  for (int i = 0; i < 100 && received.empty(); ++i) {
    executor().runOne(msec(10));
  }
  EXPECT_EQ(received, "ping");

  executor().unwatch(fds[0]);
  EXPECT_EQ(executor().watcherCount(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(IoExecutorContract, WatchAfterDataArrivedStillFires) {
  // The edge-triggered pitfall: data is already buffered when the watch is
  // registered (the daemon accepts a socket whose HELLO already landed).
  // EPOLL_CTL_ADD delivers an edge for already-ready fds, so the callback
  // must fire.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::write(fds[1], "early", 5), 5);
  std::string received;
  executor().watch(fds[0], IoExecutor::kReadable, [&](short) {
    char buffer[64];
    const ssize_t n = ::read(fds[0], buffer, sizeof(buffer));
    if (n > 0) received.append(buffer, static_cast<std::size_t>(n));
  });
  for (int i = 0; i < 100 && received.empty(); ++i) {
    executor().runOne(msec(10));
  }
  EXPECT_EQ(received, "early");
  executor().unwatch(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(IoExecutorContract, UpdateEventsArmsWritableEdge) {
  // The flush path's POLLOUT re-arm: switching interest to kWritable on an
  // already-writable socket must deliver an edge (EPOLL_CTL_MOD re-arms).
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int writable = 0;
  executor().watch(fds[0], IoExecutor::kReadable, [&](short events) {
    if ((events & IoExecutor::kWritable) != 0) {
      ++writable;
      executor().updateEvents(fds[0], IoExecutor::kReadable);
    }
  });
  executor().updateEvents(fds[0],
                          IoExecutor::kReadable | IoExecutor::kWritable);
  for (int i = 0; i < 100 && writable == 0; ++i) {
    executor().runOne(msec(10));
  }
  EXPECT_EQ(writable, 1);
  executor().unwatch(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(IoExecutorContract, EofBehindTheLastBytesIsSeenOnTheSameEdge) {
  // The edge-triggered read pitfall: the peer's last bytes and its FIN
  // arrive before the loop wakes, so one edge covers both and none
  // follows. drainReadable must read past the short read to the EOF.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::write(fds[1], "bye", 3), 3);
  ::close(fds[1]);
  FrameBuffer frames;
  std::vector<DrainStatus> drains;
  executor().watch(fds[0], IoExecutor::kReadable, [&](short) {
    drains.push_back(drainReadable(fds[0], frames));
  });
  for (int i = 0; i < 20; ++i) executor().runOne(msec(5));
  ASSERT_EQ(drains.size(), 1u);
  EXPECT_EQ(drains[0], DrainStatus::kClosed);
  EXPECT_EQ(frames.buffered(), 3u);
  executor().unwatch(fds[0]);
  ::close(fds[0]);
}

TEST_F(IoExecutorContract, UnwatchFromInsideTheCallbackIsSafe) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int calls = 0;
  executor().watch(fds[0], IoExecutor::kReadable, [&](short) {
    ++calls;
    char buffer[8];
    (void)::read(fds[0], buffer, sizeof(buffer));
    executor().unwatch(fds[0]);
  });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  for (int i = 0; i < 20; ++i) executor().runOne(msec(5));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(executor().watcherCount(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(IoExecutorContract, ErrorEventsAreReportedOnPeerClose) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  bool flagged = false;
  executor().watch(fds[0], IoExecutor::kReadable, [&](short events) {
    // Peer close surfaces as readable-EOF and/or kError depending on the
    // kernel; either way the callback gets told something happened.
    flagged = (events & (IoExecutor::kReadable | IoExecutor::kError)) != 0;
    executor().unwatch(fds[0]);
  });
  ::close(fds[1]);
  for (int i = 0; i < 100 && !flagged; ++i) executor().runOne(msec(5));
  EXPECT_TRUE(flagged);
  ::close(fds[0]);
}

TEST_F(IoExecutorContract, RunStopsWhenNothingRemains) {
  int fired = 0;
  executor().after(10, [&] { ++fired; });
  executor().after(20, [&] { ++fired; });
  executor().run(msec(10));  // returns once both timers fired (no watchers)
  EXPECT_EQ(fired, 2);
}

TEST(IoExecutor, CountsWakeupsInMetrics) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  IoExecutor executor;
  const std::uint64_t before = metrics::value(metrics::Event::kEpollWakeups);
  bool got = false;
  executor.watch(fds[0], IoExecutor::kReadable, [&](short) {
    char buffer[8];
    (void)::read(fds[0], buffer, sizeof(buffer));
    got = true;
  });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  for (int i = 0; i < 100 && !got; ++i) executor.runOne(msec(10));
  EXPECT_TRUE(got);
  EXPECT_GT(metrics::value(metrics::Event::kEpollWakeups), before);
  executor.unwatch(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace coorm::net
