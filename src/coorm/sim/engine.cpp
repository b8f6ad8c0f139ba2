#include "coorm/sim/engine.hpp"

#include "coorm/common/check.hpp"

namespace coorm {

EventHandle Engine::schedule(Time at, std::function<void()> fn) {
  COORM_CHECK(at >= now_);
  auto state = std::make_shared<detail::EventState>();
  queue_.push(Event{at, nextSeq_++, std::move(fn), state});
  return state;
}

bool Engine::step() {
  while (!queue_.empty()) {
    Event event = queue_.top();
    queue_.pop();
    if (event.state->cancelled) continue;  // does not advance the clock
    now_ = std::max(now_, event.at);
    event.fn();
    return true;
  }
  return false;
}

std::uint64_t Engine::run() {
  stopped_ = false;
  std::uint64_t dispatched = 0;
  while (!stopped_ && step()) ++dispatched;
  return dispatched;
}

std::uint64_t Engine::runUntil(Time until) {
  stopped_ = false;
  std::uint64_t dispatched = 0;
  while (!stopped_ && !queue_.empty() && queue_.top().at <= until) {
    if (queue_.top().state->cancelled) {
      // Dropped here: step() would skip it and dispatch the next live
      // event, which may lie past `until`.
      queue_.pop();
      continue;
    }
    if (step()) ++dispatched;
  }
  now_ = std::max(now_, until);
  return dispatched;
}

}  // namespace coorm
