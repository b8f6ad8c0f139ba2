// Low-overhead span tracing for the scheduling pass's phases and the
// daemon's I/O.
//
// Disabled (the default), a Span is one relaxed atomic load and a branch —
// cheap enough to leave on every hot path in release builds. Enabled, each
// completed span is one entry in the recording thread's ring buffer: no
// locks on the hot path beyond the buffer's own (uncontended) mutex, no
// allocation at steady state, and the oldest spans fall off when a thread
// out-runs its ring. Buffers are registered globally and outlive their
// threads, so a dump also sees the spans of threads that have exited.
//
// Span names must be string literals (static storage): the ring stores the
// pointer, the dump reads it long after the scope ended.
//
// Export: writeChromeTrace() renders everything recorded so far as Chrome
// trace-event JSON ("X" complete events, ts/dur in microseconds) loadable
// in chrome://tracing or Perfetto. All three tools expose it behind
// `--trace-out FILE`. collect() returns the raw events for tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "coorm/common/metrics.hpp"

namespace coorm::trace {

/// One completed begin/end pair, steady-clock nanoseconds.
struct SpanEvent {
  const char* name = nullptr;  ///< string literal
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  std::uint32_t tid = 0;  ///< small per-thread ordinal, not the OS tid
};

namespace detail {
extern std::atomic<bool> enabled;
/// Appends one span to the calling thread's ring buffer (registering the
/// buffer on first use). Only called when tracing is enabled.
void record(const char* name, std::uint64_t startNs,
            std::uint64_t endNs) noexcept;
}  // namespace detail

/// True while spans are being collected. Relaxed load: the only cost a
/// disabled tracer leaves on a hot path.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::enabled.load(std::memory_order_relaxed);
}

void enable() noexcept;
void disable() noexcept;

/// Drops every recorded span (buffers stay registered). For tests and for
/// resetting between runs.
void reset() noexcept;

/// Records an explicit span — for regions whose begin and end live in
/// different scopes (e.g. the scheduler's consecutive steps, split by one
/// shared clock read each). No-op when disabled.
inline void span(const char* name, std::uint64_t startNs,
                 std::uint64_t endNs) noexcept {
  if (enabled()) detail::record(name, startNs, endNs);
}

/// RAII span covering the enclosing scope. When tracing is disabled the
/// constructor is a load+branch and the destructor a null check.
class Span {
 public:
  explicit Span(const char* name) noexcept {
    if (enabled()) {
      name_ = name;
      start_ = metrics::nowNanos();
    }
  }
  ~Span() {
    if (name_ != nullptr) detail::record(name_, start_, metrics::nowNanos());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
};

/// The one instrumentation call of a timed phase: RAII over the enclosing
/// scope that feeds the latency histogram (µs), the optional per-phase
/// field `*us` and, while tracing is on, a span — all from the same two
/// clock reads, so the three can never disagree.
class Phase {
 public:
  Phase(const char* name, metrics::Histo histo,
        std::uint64_t* us = nullptr) noexcept
      : name_(name), histo_(histo), us_(us), start_(metrics::nowNanos()) {}
  ~Phase() {
    const std::uint64_t end = metrics::nowNanos();
    const std::uint64_t us = (end - start_) / 1000;
    metrics::record(histo_, us);
    if (us_ != nullptr) *us_ = us;
    span(name_, start_, end);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  const char* name_;
  metrics::Histo histo_;
  std::uint64_t* us_;
  std::uint64_t start_;
};

/// Every span currently retained, all threads, oldest first per thread.
[[nodiscard]] std::vector<SpanEvent> collect();

/// Writes everything recorded so far as Chrome trace-event JSON. False
/// (with `error` set) if the file cannot be written.
bool writeChromeTrace(const std::string& path, std::string* error);

}  // namespace coorm::trace
