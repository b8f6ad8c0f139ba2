// Pointwise difference windows and window splicing over canonical
// step-function segment series: the VIEWS_DELTA view push. The daemon
// (net/daemon.cpp) diffs each pushed view against the last one it sent,
// per cluster, and ships the window; the client (net/client.cpp) splices
// it onto its last-applied view.
//
// Two canonical profiles that agree pointwise outside [lo, hi) are fully
// described by the target's segments outside the window plus an
// emit-on-change segment series inside it, so spliceWindow() reconstructs
// the new function bit-exactly from the old one and the window alone.
#pragma once

#include <span>

#include "coorm/common/time.hpp"
#include "coorm/profile/step_function.hpp"

namespace coorm {

/// Coarse pointwise-difference window of two canonical profiles: the
/// functions agree outside [lo, hi). Returns false when identical. The
/// window is the complement of the longest common segment prefix/suffix.
[[nodiscard]] bool diffWindow(std::span<const Segment> a,
                              std::span<const Segment> b, Time& lo, Time& hi);

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
