// Sweep primitives over piecewise-constant profiles.
//
// SegmentCursor walks one StepFunction's segments forward in time;
// ProfileSweep merges the breakpoints of N step functions into a single
// ascending pass, maintaining for every function the value that holds at
// the current breakpoint. Together they replace two patterns that made the
// profile algebra quadratic:
//  - per-breakpoint `at()` binary searches (O(log S) each, with a cache
//    miss per probe) become O(1) cursor reads;
//  - folds of binary combineWith() calls (a fresh allocation and a full
//    re-merge per operand) become one k-way merge that touches every input
//    segment once and allocates the output once.
//
// advance() reports which functions changed value at the new breakpoint
// (`changed()`), so callers can maintain aggregates such as running sums or
// active counts incrementally; the sweep itself costs O(total segments ×
// log N) via a small binary heap of cursor positions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coorm/common/time.hpp"
#include "coorm/profile/step_function.hpp"

namespace coorm {

/// Forward-only cursor over one StepFunction's segments.
///
/// The referenced StepFunction must outlive the cursor and stay unmodified
/// while the cursor is in use.
class SegmentCursor {
 public:
  SegmentCursor() = default;
  explicit SegmentCursor(const StepFunction& fn) : segments_(fn.segments()) {}

  /// Value holding on the cursor's segment, up to nextChange().
  [[nodiscard]] NodeCount value() const { return segments_[index_].value; }

  /// Time at which the value next changes; kTimeInf on the last segment
  /// (canonical form guarantees every real breakpoint changes the value).
  [[nodiscard]] Time nextChange() const {
    return index_ + 1 < segments_.size() ? segments_[index_ + 1].start
                                         : kTimeInf;
  }

  [[nodiscard]] bool atLastSegment() const {
    return index_ + 1 >= segments_.size();
  }

  /// Step onto the next segment. Requires !atLastSegment().
  void step() { ++index_; }

 private:
  std::span<const StepFunction::Segment> segments_;
  std::size_t index_ = 0;
};

/// Synchronized sweep over the merged breakpoints of N step functions.
///
/// The sweep starts positioned at t=0 (every step function has a segment
/// starting there). Each advance() moves to the next merged breakpoint —
/// the smallest segment start strictly after time() across all inputs —
/// and records which functions changed value there.
///
/// The referenced StepFunctions must outlive the sweep and stay unmodified
/// while it runs.
class ProfileSweep {
 public:
  explicit ProfileSweep(std::span<const StepFunction* const> functions);

  [[nodiscard]] std::size_t size() const { return cursors_.size(); }

  /// Current breakpoint (0 before the first advance()).
  [[nodiscard]] Time time() const { return time_; }

  /// Value of function i from time() up to the next merged breakpoint.
  [[nodiscard]] NodeCount value(std::size_t i) const {
    return cursors_[i].value();
  }

  /// Move to the next merged breakpoint. Returns false — leaving the sweep
  /// untouched — when every function is on its final segment.
  bool advance();

  /// Indices of the functions whose value changed at the current
  /// breakpoint. Empty before the first advance(). Canonical form makes
  /// this exact: a function has a breakpoint iff its value changes.
  [[nodiscard]] std::span<const std::uint32_t> changed() const {
    return changed_;
  }

 private:
  struct HeapEntry {
    Time time;            ///< the cursor's nextChange()
    std::uint32_t index;  ///< cursor index
  };
  static bool later(const HeapEntry& a, const HeapEntry& b) {
    return a.time > b.time;  // min-heap on time
  }

  std::vector<SegmentCursor> cursors_;
  std::vector<HeapEntry> heap_;
  std::vector<std::uint32_t> changed_;
  Time time_ = 0;
};

}  // namespace coorm
