// Pointwise difference windows and window splicing over canonical
// step-function segment series.
//
// Extracted from the incremental scheduler (PR 8) so both consumers share
// one implementation:
//  - rms/scheduler.cpp diffs Step 2 inputs into dirty ranges and splices
//    re-swept windows back into cached output series;
//  - net/wire.cpp ships per-cluster view diffs over the wire (VIEWS_DELTA)
//    and the client splices them onto its last-applied views.
//
// The correctness argument is the same in both: two canonical profiles
// that agree pointwise outside [lo, hi) are fully described by the
// target's segments outside the window plus an emit-on-change segment
// series inside it, so spliceWindow() reconstructs the new function
// bit-exactly from the old one and the window alone.
#pragma once

#include <span>
#include <vector>

#include "coorm/common/time.hpp"
#include "coorm/profile/step_function.hpp"

namespace coorm {

/// A half-open time range [lo, hi) within which two profile series differ
/// pointwise. Outside every range the functions agree.
struct DirtyRange {
  Time lo;
  Time hi;
};

/// Coarse pointwise-difference window of two canonical profiles: the
/// functions agree outside [lo, hi). Returns false when identical. The
/// window is the complement of the longest common segment prefix/suffix —
/// one range per input, merged across inputs by the caller.
[[nodiscard]] bool diffWindow(std::span<const Segment> a,
                              std::span<const Segment> b, Time& lo, Time& hi);

/// Sorts and coalesces overlapping/adjacent dirty ranges in place.
void mergeRanges(std::vector<DirtyRange>& ranges);

/// Splices `window` — the new values over [lo, hi), emitted on-change
/// against the value holding just before lo — into `target`. The spliced
/// function keeps target's segments outside [lo, hi): at hi the new
/// function is back to the target's value (the pointwise-agreement
/// contract), so the output returns to the target's series. Returns true
/// when the function actually changed; unchanged targets are left
/// untouched.
///
/// Preconditions (the wire decoder validates these before calling, so a
/// hostile frame can never produce a non-canonical splice): 0 <= lo < hi,
/// window starts strictly increasing within [lo, hi), adjacent window
/// values differing, and — when lo == 0 — a non-empty window whose first
/// segment starts at 0.
bool spliceWindow(StepFunction& target, Time lo, Time hi,
                  std::span<const Segment> window);

}  // namespace coorm
