#include "coorm/net/io_executor.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <utility>

#include "coorm/common/check.hpp"
#include "coorm/common/metrics.hpp"

namespace coorm::net {

namespace {

std::uint32_t toEpollMask(short events) {
  // Edge-triggered throughout; EPOLLERR/EPOLLHUP are always reported by
  // the kernel regardless of the mask, matching the contract that kError
  // is delivered even when not requested.
  std::uint32_t mask = EPOLLET;
  if ((events & IoExecutor::kReadable) != 0) mask |= EPOLLIN;
  if ((events & IoExecutor::kWritable) != 0) mask |= EPOLLOUT;
  return mask;
}

}  // namespace

IoExecutor::IoExecutor()
    : start_(std::chrono::steady_clock::now()),
      epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  COORM_CHECK(epfd_.valid());
}

Time IoExecutor::now() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void IoExecutor::advanceTo(Time t) {
  const Time current = now();
  if (t <= current) return;
  start_ -= std::chrono::milliseconds(t - current);
}

EventHandle IoExecutor::schedule(Time at, std::function<void()> fn) {
  auto state = std::make_shared<detail::EventState>();
  // Clamp to now: the Executor contract says `at >= now()`, but a
  // real-time caller computing `lastPass + interval` can land slightly in
  // the past — run it at the next timer dispatch instead of rejecting.
  timers_.push(Timer{std::max(at, now()), nextSeq_++, std::move(fn), state});
  return state;
}

void IoExecutor::control(int op, int fd, short events) {
  epoll_event ev{};
  ev.events = toEpollMask(events);
  ev.data.fd = fd;
  const int rc = ::epoll_ctl(epfd_.get(), op, fd, &ev);
  COORM_CHECK(rc == 0);
}

void IoExecutor::watch(int fd, short events, IoCallback cb) {
  COORM_CHECK(fd >= 0);
  const auto [it, inserted] =
      watchers_.emplace(fd, Watcher{events, std::move(cb)});
  COORM_CHECK(inserted);
  // ADD delivers an edge immediately when the fd is already ready, so a
  // socket whose data arrived before watch() still wakes the next cycle.
  control(EPOLL_CTL_ADD, fd, events);
}

void IoExecutor::updateEvents(int fd, short events) {
  const auto it = watchers_.find(fd);
  COORM_CHECK(it != watchers_.end());
  if (it->second.events == events) return;
  it->second.events = events;
  // MOD re-arms: a newly-requested condition that already holds (e.g.
  // kWritable on a drained socket) is delivered as a fresh edge.
  control(EPOLL_CTL_MOD, fd, events);
}

void IoExecutor::unwatch(int fd) {
  const auto it = watchers_.find(fd);
  if (it == watchers_.end()) return;
  // Park the callback instead of destroying it: unwatch() is commonly
  // called from inside the watcher's own callback (connection teardown),
  // and freeing the executing closure mid-call would be use-after-free.
  // The graveyard drains at the start of the next cycle.
  graveyard_.push_back(std::move(it->second.cb));
  watchers_.erase(it);
  epoll_event ev{};  // ignored by DEL but required pre-2.6.9 ABI
  ::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, &ev);
}

bool IoExecutor::pollOnce(Time timeout) {
  // Last cycle's unwatched callbacks (dispatch or timer phase) are safely
  // off the stack by now.
  graveyard_.clear();
  const int waitMs = static_cast<int>(std::min<Time>(timeout, 1 << 30));
  if (ready_.size() < 64) ready_.resize(64);
  const int rc =
      ::epoll_wait(epfd_.get(), ready_.data(),
                   static_cast<int>(ready_.size()), waitMs);
  if (rc <= 0) return false;
  metrics::increment(metrics::Event::kEpollWakeups);

  bool any = false;
  for (int i = 0; i < rc; ++i) {
    const epoll_event& ev = ready_[i];
    // Re-look-up per dispatch: an earlier callback in this batch may have
    // unwatched (or closed and re-registered) this fd.
    const auto it = watchers_.find(ev.data.fd);
    if (it == watchers_.end() || it->second.cb == nullptr) continue;
    short events = 0;
    if ((ev.events & EPOLLIN) != 0) events |= kReadable;
    if ((ev.events & EPOLLOUT) != 0) events |= kWritable;
    if ((ev.events & (EPOLLERR | EPOLLHUP)) != 0) events |= kError;
    if (events != 0) {
      it->second.cb(events);
      any = true;
    }
  }
  // A full buffer means more fds may be ready: grow so the next wait
  // drains the whole ready set in one syscall.
  if (static_cast<std::size_t>(rc) == ready_.size()) {
    ready_.resize(ready_.size() * 2);
  }
  return any;
}

bool IoExecutor::dispatchTimers(Time deadline) {
  bool any = false;
  while (!timers_.empty() && timers_.top().at <= deadline) {
    Timer timer = timers_.top();
    timers_.pop();
    if (timer.state->cancelled) continue;
    timer.fn();
    any = true;
  }
  return any;
}

bool IoExecutor::runOne(Time maxWait) {
  // Bound the wait by the next pending timer (cancelled timers still bound
  // it — they are popped for free when due).
  Time timeout = std::max<Time>(maxWait, 0);
  if (!timers_.empty()) {
    const Time untilTimer = std::max<Time>(timers_.top().at - now(), 0);
    timeout = std::min(timeout, untilTimer);
  }

  bool any = pollOnce(timeout);
  any = dispatchTimers(now()) || any;
  return any;
}

void IoExecutor::run(Time slice) {
  stopped_ = false;
  while (!stopped_ && (watcherCount() > 0 || !timers_.empty())) {
    runOne(slice);
  }
}

std::unique_ptr<IoExecutor> makeIoExecutor(IoBackend) {
  return std::make_unique<IoExecutor>();
}

}  // namespace coorm::net
