#include "coorm/profile/step_function.hpp"

#include <algorithm>
#include <sstream>

#include "coorm/common/check.hpp"
#include "coorm/common/metrics.hpp"
#include "coorm/profile/profile_sweep.hpp"

namespace coorm {

StepFunction::StepFunction() : segments_{{0, 0}} {}

StepFunction::StepFunction(SegmentStore segments)
    : segments_(std::move(segments)) {
  canonicalize();
}

StepFunction StepFunction::constant(NodeCount value) {
  return StepFunction(SegmentStore{{0, value}});
}

StepFunction StepFunction::pulse(Time start, Time duration, NodeCount value) {
  COORM_CHECK(start >= 0);
  COORM_CHECK(duration >= 0);
  if (duration == 0 || value == 0) return StepFunction();
  SegmentStore segs;
  if (start > 0) segs.push_back({0, 0});
  segs.push_back({start, value});
  const Time end = satAdd(start, duration);
  if (!isInf(end)) segs.push_back({end, 0});
  return StepFunction(std::move(segs));
}

StepFunction StepFunction::fromSegments(std::vector<Segment> segments) {
  return StepFunction(SegmentStore(std::span<const Segment>(segments)));
}

StepFunction StepFunction::fromCanonical(SegmentStore segments) {
  COORM_DCHECK(!segments.empty());
  COORM_DCHECK(segments.front().start == 0);
#ifndef NDEBUG
  for (std::size_t i = 1; i < segments.size(); ++i) {
    COORM_DCHECK(segments[i - 1].start < segments[i].start);
    COORM_DCHECK(segments[i - 1].value != segments[i].value);
  }
#endif
  StepFunction fn;
  fn.segments_ = std::move(segments);
  return fn;
}

StepFunction StepFunction::fromCanonical(
    const std::vector<Segment>& segments) {
  return fromCanonical(SegmentStore(std::span<const Segment>(segments)));
}

StepFunction StepFunction::combine(
    std::span<const StepFunction* const> functions, CombineOp op) {
  if (functions.empty()) return StepFunction();
  if (functions.size() == 1) return *functions[0];

  std::size_t totalSegments = 0;
  for (const StepFunction* fn : functions) totalSegments += fn->segmentCount();

  ProfileSweep sweep(functions);
  const std::size_t n = sweep.size();

  // kSum keeps a running sum updated from the sweep's change list; kMax and
  // kMin have no cheap inverse, so they rescan the N current values per
  // merged breakpoint and skip the bookkeeping entirely.
  std::vector<NodeCount> last;
  NodeCount sum = 0;
  if (op == CombineOp::kSum) {
    last.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      last[i] = sweep.value(i);
      sum += last[i];
    }
  }
  const auto aggregate = [&]() -> NodeCount {
    switch (op) {
      case CombineOp::kSum:
        return sum;
      case CombineOp::kMax: {
        NodeCount best = sweep.value(0);
        for (std::size_t i = 1; i < n; ++i)
          best = std::max(best, sweep.value(i));
        return best;
      }
      case CombineOp::kMin: {
        NodeCount best = sweep.value(0);
        for (std::size_t i = 1; i < n; ++i)
          best = std::min(best, sweep.value(i));
        return best;
      }
    }
    return 0;  // unreachable
  };

  // Clamp the pre-reservation to the arena's largest pooled class (see
  // the same pattern in view.cpp): the sum over operands is usually a
  // large overestimate, and an oversize block bypasses the pool.
  SegmentStore out;
  out.reserve(std::min(totalSegments, SegmentArena::kMaxBlockSegments));
  out.push_back({0, aggregate()});
  while (sweep.advance()) {
    if (op == CombineOp::kSum) {
      for (const std::uint32_t idx : sweep.changed()) {
        const NodeCount value = sweep.value(idx);
        sum += value - last[idx];
        last[idx] = value;
      }
    }
    const NodeCount value = aggregate();
    if (value != out.back().value) out.push_back({sweep.time(), value});
  }
  metrics::increment(metrics::Event::kSweepSegmentsMerged, out.size());
  return fromCanonical(std::move(out));
}

void StepFunction::canonicalize() {
  COORM_CHECK(!segments_.empty());
  COORM_CHECK(segments_.front().start == 0);
  std::size_t out = 1;
  for (std::size_t i = 1; i < segments_.size(); ++i) {
    COORM_CHECK(segments_[i].start > segments_[out - 1].start);
    if (segments_[i].value != segments_[out - 1].value) {
      segments_[out++] = segments_[i];
    }
  }
  segments_.resize(out);
}

std::size_t StepFunction::segmentIndexAt(Time t) const {
  // Last segment with start <= t.
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](Time value, const Segment& seg) { return value < seg.start; });
  COORM_DCHECK(it != segments_.begin());
  return static_cast<std::size_t>(std::distance(segments_.begin(), it)) - 1;
}

NodeCount StepFunction::at(Time t) const {
  if (t < 0) t = 0;
  return segments_[segmentIndexAt(t)].value;
}

NodeCount StepFunction::minOver(Time t0, Time t1) const {
  COORM_CHECK(t0 < t1);
  if (t0 < 0) t0 = 0;
  std::size_t i = segmentIndexAt(t0);
  NodeCount result = segments_[i].value;
  for (++i; i < segments_.size() && segments_[i].start < t1; ++i) {
    result = std::min(result, segments_[i].value);
  }
  return result;
}

NodeCount StepFunction::maxOver(Time t0, Time t1) const {
  COORM_CHECK(t0 < t1);
  if (t0 < 0) t0 = 0;
  std::size_t i = segmentIndexAt(t0);
  NodeCount result = segments_[i].value;
  for (++i; i < segments_.size() && segments_[i].start < t1; ++i) {
    result = std::max(result, segments_[i].value);
  }
  return result;
}

double StepFunction::integralNodeSeconds(Time t0, Time t1) const {
  COORM_CHECK(t0 <= t1);
  COORM_CHECK(!isInf(t1));
  if (t0 < 0) t0 = 0;
  if (t0 >= t1) return 0.0;
  double total = 0.0;
  std::size_t i = segmentIndexAt(t0);
  Time cursor = t0;
  while (cursor < t1) {
    const Time segEnd =
        (i + 1 < segments_.size()) ? segments_[i + 1].start : kTimeInf;
    const Time sliceEnd = std::min(segEnd, t1);
    total += static_cast<double>(segments_[i].value) *
             static_cast<double>(sliceEnd - cursor);
    cursor = sliceEnd;
    ++i;
  }
  return total / 1000.0;  // ms -> s
}

Time StepFunction::firstFit(Time earliest, Time duration,
                            NodeCount need) const {
  if (earliest < 0) earliest = 0;
  if (isInf(earliest)) return kTimeInf;
  if (duration == 0 || need <= 0) return earliest;

  // Scan segments from `earliest`, tracking the start of the current run of
  // segments whose value >= need.
  Time runStart = kNever;
  for (std::size_t i = segmentIndexAt(earliest); i < segments_.size(); ++i) {
    const Time segStart = std::max(segments_[i].start, earliest);
    const Time segEnd =
        (i + 1 < segments_.size()) ? segments_[i + 1].start : kTimeInf;
    if (segments_[i].value < need) {
      runStart = kNever;
      continue;
    }
    if (runStart == kNever) runStart = segStart;
    if (isInf(segEnd) || satAdd(runStart, duration) <= segEnd) {
      return runStart;
    }
  }
  return kTimeInf;
}

template <typename Op>
void StepFunction::combineWith(const StepFunction& other, Op op) {
  SegmentStore result;
  result.reserve(segments_.size() + other.segments_.size());
  std::size_t i = 0;
  std::size_t j = 0;
  // Both functions have a segment starting at 0, so the merged breakpoint
  // list starts at 0 as required.
  while (i < segments_.size() || j < other.segments_.size()) {
    Time t;
    if (i < segments_.size() && j < other.segments_.size()) {
      t = std::min(segments_[i].start, other.segments_[j].start);
    } else if (i < segments_.size()) {
      t = segments_[i].start;
    } else {
      t = other.segments_[j].start;
    }
    if (i < segments_.size() && segments_[i].start == t) ++i;
    if (j < other.segments_.size() && other.segments_[j].start == t) ++j;
    // The first merged breakpoint is t=0, which consumes the leading segment
    // of both operands, so i >= 1 and j >= 1 from here on.
    result.push_back({t, op(segments_[i - 1].value, other.segments_[j - 1].value)});
  }
  segments_ = std::move(result);
  canonicalize();
}

StepFunction& StepFunction::operator+=(const StepFunction& other) {
  combineWith(other, [](NodeCount a, NodeCount b) { return a + b; });
  return *this;
}

StepFunction& StepFunction::operator-=(const StepFunction& other) {
  combineWith(other, [](NodeCount a, NodeCount b) { return a - b; });
  return *this;
}

StepFunction& StepFunction::addPulse(Time start, Time duration,
                                     NodeCount value) {
  COORM_CHECK(start >= 0);
  COORM_CHECK(duration >= 0);
  if (duration == 0 || value == 0) return *this;
  const Time end = satAdd(start, duration);
  segments_.unshare();  // the edit below is in place

  // Ensure breakpoints exist at start and (finite) end, bump every value
  // in between; only the two seams can need re-merging afterwards (the
  // interior keeps its pairwise-distinct values when shifted uniformly).
  std::size_t first = segmentIndexAt(start);
  if (segments_[first].start != start) {
    segments_.insert(first + 1, {start, segments_[first].value});
    ++first;
  }
  std::size_t bumpEnd;  // one past the last bumped segment
  if (isInf(end)) {
    bumpEnd = segments_.size();
  } else {
    const std::size_t last = segmentIndexAt(end);
    if (segments_[last].start != end) {
      segments_.insert(last + 1, {end, segments_[last].value});
      bumpEnd = last + 1;
    } else {
      bumpEnd = last;
    }
  }
  for (std::size_t i = first; i < bumpEnd; ++i) segments_[i].value += value;

  // Right seam first (erasing there leaves `first` valid), then left.
  if (bumpEnd < segments_.size() &&
      segments_[bumpEnd].value == segments_[bumpEnd - 1].value) {
    segments_.erase(bumpEnd);
  }
  if (first > 0 && segments_[first].value == segments_[first - 1].value) {
    segments_.erase(first);
  }
  return *this;
}

StepFunction& StepFunction::pointwiseMax(const StepFunction& other) {
  combineWith(other, [](NodeCount a, NodeCount b) { return std::max(a, b); });
  return *this;
}

StepFunction& StepFunction::pointwiseMin(const StepFunction& other) {
  combineWith(other, [](NodeCount a, NodeCount b) { return std::min(a, b); });
  return *this;
}

StepFunction& StepFunction::clampMin(NodeCount floor) {
  // Most clamps are no-ops (profiles are usually already non-negative):
  // only clone a shared block and re-canonicalize when a value moves.
  if (minValue() >= floor) return *this;
  segments_.unshare();
  for (auto& seg : segments_) seg.value = std::max(seg.value, floor);
  canonicalize();
  return *this;
}

NodeCount StepFunction::maxValue() const {
  NodeCount result = segments_.front().value;
  for (const auto& seg : segments_) result = std::max(result, seg.value);
  return result;
}

NodeCount StepFunction::minValue() const {
  NodeCount result = segments_.front().value;
  for (const auto& seg : segments_) result = std::min(result, seg.value);
  return result;
}

bool StepFunction::isZero() const {
  return segments_.size() == 1 && segments_.front().value == 0;
}

NodeCount StepFunction::tailValue() const { return segments_.back().value; }

std::string StepFunction::toString() const {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (i > 0) out << ' ';
    out << segments_[i].start << ':' << segments_[i].value;
  }
  out << ']';
  return out.str();
}

}  // namespace coorm
