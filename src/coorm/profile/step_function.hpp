// Piecewise-constant Time -> NodeCount functions.
//
// The paper stores Cluster Availability Profiles (CAPs) as lists of
// (duration, node-count) pairs (Appendix A.3). We use the equivalent
// canonical form of (start-time, value) segments: the first segment starts
// at t=0 and the last one extends to +infinity. All view algebra of the
// paper (union, sum, difference, alloc, findHole) reduces to operations on
// this type.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "coorm/common/ids.hpp"
#include "coorm/common/time.hpp"
#include "coorm/profile/segment_arena.hpp"

namespace coorm {

/// A right-open piecewise-constant function of time.
///
/// Invariants (checked in debug builds):
///  - at least one segment; the first starts at t=0;
///  - segment start times strictly increase;
///  - adjacent segments have different values (canonical form).
///
/// Storage is an arena-backed SegmentStore: profiles of up to 8 segments
/// live inline, larger ones draw pooled blocks from the calling thread's
/// SegmentArena (profile/segment_arena.hpp). Copies share a larger
/// profile's block instead of copying it, so handing a view on (scheduler
/// cache → AppSchedule → session stash → push) costs O(1) per profile.
/// Value semantics are unchanged: every mutator either builds a fresh block
/// or clones a shared one once at entry, so a write through one copy is
/// never seen through another.
class StepFunction {
 public:
  /// coorm::Segment, kept addressable as StepFunction::Segment.
  using Segment = coorm::Segment;

  /// The zero function.
  StepFunction();

  StepFunction(const StepFunction& other) { segments_.share(other.segments_); }
  StepFunction& operator=(const StepFunction& other) {
    segments_.share(other.segments_);
    return *this;
  }
  StepFunction(StepFunction&&) noexcept = default;
  StepFunction& operator=(StepFunction&&) noexcept = default;
  ~StepFunction() = default;

  /// Constant function.
  static StepFunction constant(NodeCount value);

  /// `value` on [start, start+duration), 0 elsewhere. An infinite duration
  /// yields `value` on [start, +inf).
  static StepFunction pulse(Time start, Time duration, NodeCount value);

  /// Build from explicit segments (must satisfy the invariants up to
  /// canonicalization; adjacent equal values are merged).
  static StepFunction fromSegments(std::vector<Segment> segments);

  /// Build from segments already in canonical form: first starts at 0,
  /// strictly increasing starts, adjacent values differ. The sweep-based
  /// producers uphold this by construction, so the re-canonicalize scan of
  /// fromSegments is skipped; validated in debug builds.
  static StepFunction fromCanonical(SegmentStore segments);
  /// Convenience overload for callers holding a std::vector (wire decode,
  /// tests): copies into an arena-backed store.
  static StepFunction fromCanonical(const std::vector<Segment>& segments);

  /// Pointwise N-ary combine. Equivalent to folding the matching binary
  /// operator over `functions`, but runs as one k-way merge sweep: every
  /// input segment is visited once, the output is allocated once and
  /// canonicalized once. kSum maintains a running sum (O(total segments ×
  /// log N)); kMax/kMin rescan the N current values per merged breakpoint.
  /// An empty list yields the zero function.
  enum class CombineOp { kSum, kMax, kMin };
  [[nodiscard]] static StepFunction combine(
      std::span<const StepFunction* const> functions, CombineOp op);

  /// Value at time t (t < 0 is clamped to 0).
  [[nodiscard]] NodeCount at(Time t) const;

  /// Minimum value over [t0, t1). Requires t0 < t1; t1 may be infinite
  /// (the final segment's value participates).
  [[nodiscard]] NodeCount minOver(Time t0, Time t1) const;

  /// Maximum value over [t0, t1). Same contract as minOver.
  [[nodiscard]] NodeCount maxOver(Time t0, Time t1) const;

  /// Integral over [t0, t1) in node-seconds. Requires finite t0 <= t1.
  [[nodiscard]] double integralNodeSeconds(Time t0, Time t1) const;

  /// Earliest t >= earliest such that the function is >= need on the whole
  /// window [t, t+duration). Returns kTimeInf if no such window exists.
  /// A zero duration returns max(earliest, 0). This is the core of the
  /// paper's findHole().
  [[nodiscard]] Time firstFit(Time earliest, Time duration, NodeCount need) const;

  /// In-place pointwise arithmetic.
  StepFunction& operator+=(const StepFunction& other);
  StepFunction& operator-=(const StepFunction& other);

  /// In-place `*this += pulse(start, duration, value)` without
  /// materializing the pulse: at most two breakpoint insertions and a
  /// value bump over the covered segments. This is the occupation-view
  /// hot path (one call per scheduled request).
  StepFunction& addPulse(Time start, Time duration, NodeCount value);

  /// Pointwise max — the paper's view union.
  StepFunction& pointwiseMax(const StepFunction& other);
  /// Pointwise min.
  StepFunction& pointwiseMin(const StepFunction& other);
  /// Clamp every value to be >= floor (used to drop transient negatives).
  /// A clamp that moves no value leaves a shared block shared.
  StepFunction& clampMin(NodeCount floor);

  friend StepFunction operator+(StepFunction lhs, const StepFunction& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend StepFunction operator-(StepFunction lhs, const StepFunction& rhs) {
    lhs -= rhs;
    return lhs;
  }

  /// Largest value anywhere.
  [[nodiscard]] NodeCount maxValue() const;
  /// Smallest value anywhere.
  [[nodiscard]] NodeCount minValue() const;
  /// True if the function is 0 everywhere.
  [[nodiscard]] bool isZero() const;
  /// Value of the final (infinite) segment.
  [[nodiscard]] NodeCount tailValue() const;

  [[nodiscard]] std::span<const Segment> segments() const { return segments_; }
  [[nodiscard]] std::size_t segmentCount() const { return segments_.size(); }

  /// O(1) when both sides share one block.
  friend bool operator==(const StepFunction&, const StepFunction&) = default;

  /// Human-readable dump, e.g. "[0:4 3600:3 7200:0]".
  [[nodiscard]] std::string toString() const;

 private:
  explicit StepFunction(SegmentStore segments);

  /// Merge adjacent equal-valued segments and validate invariants.
  void canonicalize();

  /// Index of the segment containing time t (t >= 0).
  [[nodiscard]] std::size_t segmentIndexAt(Time t) const;

  template <typename Op>
  void combineWith(const StepFunction& other, Op op);

  SegmentStore segments_;
};

}  // namespace coorm
