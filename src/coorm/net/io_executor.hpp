// The wall-clock `Executor`: one edge-triggered epoll(7) socket event loop.
//
// The RMS server is written against the Executor interface so it can run on
// the discrete-event engine (the paper's evaluation) or on a wall-clock
// loop; IoExecutor is the wall-clock loop. One thread owns the loop and
// interleaves two event sources:
//  - timers: a (time, sequence) priority queue exactly like sim::Engine's,
//    driven by the monotonic clock (CLOCK_MONOTONIC via steady_clock), so
//    wall-clock jumps never reorder events. Same-time callbacks run in
//    scheduling order — the property the Server's notification order
//    relies on;
//  - file descriptors: kReadable/kWritable interest registered per fd, with
//    the blocking wait bounded by the next due timer.
//
// Readiness is edge-triggered (EPOLLET) with a per-cycle ready list: one
// epoll_wait returns only the fds whose readiness changed, so a wakeup
// costs O(ready), not O(watched) — the difference between serving 10k
// mostly-idle AppLink sessions and burning a core re-walking them.
// Edge-triggered is safe because every consumer drains: the daemon's
// accept loop accepts until EAGAIN, daemon and client read through
// `drainReadable` (reads to EAGAIN), and flush loops write until EAGAIN
// before arming kWritable. EPOLL_CTL_ADD and _MOD deliver an edge when the
// fd is already ready, so watch-after-data-arrived and kWritable re-arming
// need no level-triggered crutch.
//
// Dispatch re-looks-up each ready fd in the watcher table before invoking
// its callback: a callback earlier in the same batch may have unwatched
// (or closed and re-registered) the fd. unwatch() must precede
// ::close(fd); epoll drops closed fds silently otherwise.
#pragma once

#include <sys/epoll.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "coorm/common/executor.hpp"
#include "coorm/common/time.hpp"
#include "coorm/net/socket.hpp"

namespace coorm {

/// The socket readiness backend. epoll is the only one; the enum stays for
/// callers that name it when building a loop (see makeIoExecutor).
enum class IoBackend {
  kEpoll,
};

}  // namespace coorm

namespace coorm::net {

class IoExecutor final : public Executor {
 public:
  /// Events the callback is told about: readable, writable, or
  /// error/hangup conditions mapped onto kError.
  enum : short {
    kReadable = 0x1,
    kWritable = 0x2,
    kError = 0x4,
  };
  using IoCallback = std::function<void(short events)>;

  IoExecutor();

  /// Milliseconds since the loop was created (monotonic).
  [[nodiscard]] Time now() const override;

  /// Jump the clock forward so now() reads at least `t`. Used after journal
  /// replay: restored state carries absolute timestamps from the previous
  /// process, so the loop's clock must not restart behind them. Timers
  /// already scheduled keep their absolute times — ones now in the past
  /// fire at the next dispatch, exactly as if the daemon had been running
  /// the whole time. Never moves the clock backwards.
  void advanceTo(Time t);

  /// Run `fn` at absolute time `at` on the loop thread; times in the past
  /// run as soon as the loop reaches its timer dispatch. Same-time
  /// callbacks run in scheduling order.
  EventHandle schedule(Time at, std::function<void()> fn) override;

  /// Register interest in `events` (kReadable|kWritable) on `fd`. One
  /// watcher per fd; `cb` runs on the loop thread with the triggered
  /// events. kError is always reported regardless of the mask.
  void watch(int fd, short events, IoCallback cb);

  /// Change the event mask of a watched fd (e.g. enable kWritable while an
  /// outbound buffer drains).
  void updateEvents(int fd, short events);

  /// Remove the watcher. Safe from inside any callback (including the
  /// watcher's own). Must be called before the fd is closed.
  void unwatch(int fd);

  /// One wait + dispatch cycle, blocking at most `maxWait` ms (bounded by
  /// the next due timer). Returns true if any callback was dispatched.
  bool runOne(Time maxWait);

  /// Loop until stop() is called or there is nothing left to wait for
  /// (no watched fds and no pending timers). `slice` bounds each wait so
  /// an external stop flag (e.g. a signal handler's) is honoured promptly.
  void run(Time slice = msec(200));

  void stop() { stopped_ = true; }

  [[nodiscard]] std::size_t watcherCount() const { return watchers_.size(); }
  [[nodiscard]] std::size_t pendingTimers() const { return timers_.size(); }

 private:
  struct Timer {
    Time at;
    std::uint64_t seq;
    std::function<void()> fn;
    EventHandle state;
  };
  struct Later {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Watcher {
    short events = 0;
    IoCallback cb;
  };

  /// One blocking epoll_wait of at most `timeout` ms (>= 0) followed by IO
  /// callback dispatch. Returns true if any callback ran.
  bool pollOnce(Time timeout);
  /// Dispatch every timer due at `deadline` or earlier.
  bool dispatchTimers(Time deadline);
  void control(int op, int fd, short events);

  std::chrono::steady_clock::time_point start_;
  std::priority_queue<Timer, std::vector<Timer>, Later> timers_;
  std::uint64_t nextSeq_ = 0;
  bool stopped_ = false;
  Fd epfd_;
  std::unordered_map<int, Watcher> watchers_;
  std::vector<epoll_event> ready_;  ///< per-cycle scratch, reused
  /// Callbacks unwatched mid-dispatch, kept alive until the cycle ends so
  /// a watcher tearing itself down never frees its executing closure.
  std::vector<IoCallback> graveyard_;
};

/// Builds a loop. Kept as a factory for callers written against the
/// backend-selecting API (servebench's generator); new code constructs
/// IoExecutor directly.
std::unique_ptr<IoExecutor> makeIoExecutor(IoBackend backend);

}  // namespace coorm::net
