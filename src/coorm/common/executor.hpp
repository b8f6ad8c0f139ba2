// Clock + deferred-execution interface.
//
// The RMS server is written against this interface so it can run on the
// discrete-event engine (simulation, as in the paper's evaluation) or on a
// wall-clock loop, and so tests can drive it manually.
#pragma once

#include <functional>
#include <memory>

#include "coorm/common/time.hpp"

namespace coorm {

namespace detail {
struct EventState {
  bool cancelled = false;
};
}  // namespace detail

/// Handle to a scheduled callback; cancelling is best-effort (a callback
/// already being dispatched still runs).
///
/// The RMS server leans on two properties of this interface: callbacks
/// scheduled for the same time run in scheduling order (so the
/// notifications a pass commit posts reach applications in the order the
/// commit made them — views before starts), and a cancelled event is
/// skipped without advancing the clock (so a cancelled expiry or
/// violation timer leaves no trace in the schedule).
using EventHandle = std::shared_ptr<detail::EventState>;

class Executor {
 public:
  virtual ~Executor() = default;

  /// Current time.
  [[nodiscard]] virtual Time now() const = 0;

  /// Run `fn` at absolute time `at` (>= now()). Callbacks scheduled for the
  /// same time run in scheduling order.
  virtual EventHandle schedule(Time at, std::function<void()> fn) = 0;

  /// Run `fn` after `delay`.
  EventHandle after(Time delay, std::function<void()> fn) {
    return schedule(satAdd(now(), delay), std::move(fn));
  }

  static void cancel(const EventHandle& handle) {
    if (handle) handle->cancelled = true;
  }
};

}  // namespace coorm
