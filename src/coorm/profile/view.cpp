#include "coorm/profile/view.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "coorm/common/check.hpp"
#include "coorm/common/metrics.hpp"
#include "coorm/common/worker_pool.hpp"
#include "coorm/profile/profile_sweep.hpp"

namespace coorm {

namespace {
const StepFunction& zeroProfile() {
  static const StepFunction kZero;
  return kZero;
}
}  // namespace

const View::Entry* View::find(ClusterId cid) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), cid,
      [](const Entry& e, ClusterId id) { return e.cluster < id; });
  if (it != entries_.end() && it->cluster == cid) return &*it;
  return nullptr;
}

View::Entry* View::find(ClusterId cid) {
  return const_cast<Entry*>(std::as_const(*this).find(cid));
}

const StepFunction& View::cap(ClusterId cid) const {
  const Entry* entry = find(cid);
  return entry != nullptr ? entry->profile : zeroProfile();
}

StepFunction& View::capRef(ClusterId cid) {
  Entry* entry = find(cid);
  if (entry != nullptr) return entry->profile;
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), cid,
      [](const Entry& e, ClusterId id) { return e.cluster < id; });
  return entries_.insert(it, Entry{cid, StepFunction{}})->profile;
}

void View::setCap(ClusterId cid, StepFunction profile) {
  capRef(cid) = std::move(profile);
}

NodeCount View::at(ClusterId cid, Time t) const { return cap(cid).at(t); }

View& View::operator+=(const View& other) {
  const View* operands[] = {&other};
  return accumulate(operands, Op::kAdd);
}

View& View::operator-=(const View& other) {
  const View* operands[] = {&other};
  return accumulate(operands, Op::kSubtract);
}

View& View::unionMax(const View& other) {
  // Clusters absent on either side face the other's zero profile (class
  // contract), so e.g. a negative stretch unions up to zero.
  const View* operands[] = {&other};
  return accumulate(operands, Op::kMax);
}

View& View::clampMin(NodeCount floor) {
  for (Entry& entry : entries_) entry.profile.clampMin(floor);
  return *this;
}

bool View::nonNegative() const {
  for (const Entry& entry : entries_) {
    if (entry.profile.minValue() < 0) return false;
  }
  return true;
}

namespace {

NodeCount applyOp(View::Op op, NodeCount base, NodeCount operand) {
  switch (op) {
    case View::Op::kAdd:
      return base + operand;
    case View::Op::kSubtract:
      return base - operand;
    case View::Op::kMax:
      return std::max(base, operand);
  }
  return base;  // unreachable
}

/// Fused binary combine: op(base, operand) with the optional zero-clamp
/// applied in the same pass — a plain two-pointer merge with one output
/// allocation, cheaper than a ProfileSweep for two operands.
StepFunction combineBinary(const StepFunction& base,
                           const StepFunction& operand, View::Op op,
                           bool clampAtZero) {
  const auto bs = base.segments();
  const auto os = operand.segments();
  SegmentStore out;
  out.reserve(bs.size() + os.size());
  std::size_t i = 0;
  std::size_t j = 0;
  // Both inputs have a segment starting at 0, so the first merged
  // breakpoint consumes the leading segment of both and i, j >= 1 below.
  while (i < bs.size() || j < os.size()) {
    Time t;
    if (i < bs.size() && j < os.size()) {
      t = std::min(bs[i].start, os[j].start);
    } else if (i < bs.size()) {
      t = bs[i].start;
    } else {
      t = os[j].start;
    }
    if (i < bs.size() && bs[i].start == t) ++i;
    if (j < os.size() && os[j].start == t) ++j;
    NodeCount value = applyOp(op, bs[i - 1].value, os[j - 1].value);
    if (clampAtZero) value = std::max<NodeCount>(value, 0);
    if (out.empty() || value != out.back().value) out.push_back({t, value});
  }
  return StepFunction::fromCanonical(std::move(out));
}

/// One cluster's worth of View::accumulate: fns[0] is the base profile,
/// fns[1..] are the accumulated operands. One sweep, one output
/// allocation, one canonicalize. kMax is symmetric and delegates to
/// StepFunction::combine; the sum ops keep an incremental running rest.
StepFunction accumulateProfiles(std::span<const StepFunction* const> fns,
                                View::Op op, bool clampAtZero) {
  if (op == View::Op::kMax) {
    StepFunction result =
        StepFunction::combine(fns, StepFunction::CombineOp::kMax);
    if (clampAtZero) result.clampMin(0);
    return result;
  }

  std::size_t totalSegments = 0;
  for (const StepFunction* fn : fns) totalSegments += fn->segmentCount();

  ProfileSweep sweep(fns);
  const std::size_t n = sweep.size();

  // Running sum of the operand values (indices >= 1), updated from the
  // sweep's change list.
  std::vector<NodeCount> last(n);
  NodeCount rest = 0;
  for (std::size_t i = 0; i < n; ++i) {
    last[i] = sweep.value(i);
    if (i > 0) rest += last[i];
  }
  const auto current = [&]() -> NodeCount {
    const NodeCount value = op == View::Op::kAdd ? sweep.value(0) + rest
                                                 : sweep.value(0) - rest;
    return clampAtZero ? std::max<NodeCount>(value, 0) : value;
  };

  // Upper bound on the result size (every breakpoint of every operand),
  // but usually a large overestimate — breakpoints are shared and equal
  // values coalesce. Clamp the pre-reservation to the arena's largest
  // pooled class: a sum-sized reserve would demand a multi-megabyte
  // oversize block from the heap on every big sweep, while growing past
  // the clamp costs at most a few doublings in the rare genuinely huge
  // result.
  SegmentStore out;
  out.reserve(std::min(totalSegments, SegmentArena::kMaxBlockSegments));
  out.push_back({0, current()});
  while (sweep.advance()) {
    for (const std::uint32_t idx : sweep.changed()) {
      const NodeCount value = sweep.value(idx);
      if (idx > 0) rest += value - last[idx];
      last[idx] = value;
    }
    const NodeCount value = current();
    if (value != out.back().value) out.push_back({sweep.time(), value});
  }
  metrics::increment(metrics::Event::kSweepSegmentsMerged, out.size());
  return StepFunction::fromCanonical(std::move(out));
}

}  // namespace

View& View::accumulate(std::span<const View* const> others, Op op,
                       bool clampAtZero, WorkerPool* pool) {
  // Empty views are the identity for every op (the zero-clamp is applied
  // by the base pass regardless), and they are common: most request sets
  // have nothing started. Prune them before sizing the sweep, without
  // allocating in the usual all-present case.
  std::size_t presentCount = 0;
  for (const View* other : others) {
    if (!other->empty()) ++presentCount;
  }
  std::vector<const View*> present;
  if (presentCount != others.size()) {
    // For kMax a dropped empty view still contributes a zero profile to
    // the maximum — fold it into the clamp instead.
    if (op == Op::kMax) clampAtZero = true;
    if (presentCount == 0) {
      if (clampAtZero) clampMin(0);
      return *this;
    }
    present.reserve(presentCount);
    for (const View* other : others) {
      if (!other->empty()) present.push_back(other);
    }
    others = present;
  }
  if (others.size() == 1) {
    const View& other = *others[0];
    if (entries_.empty()) {
      // Empty base: the result is op(0, operand) profile-for-profile — a
      // single transform pass, no merge needed.
      entries_.reserve(other.entries_.size());
      for (const Entry& theirs : other.entries_) {
        if (op == Op::kAdd &&
            (!clampAtZero || theirs.profile.minValue() >= 0)) {
          entries_.push_back(theirs);
          continue;
        }
        SegmentStore segments;
        segments.reserve(theirs.profile.segmentCount());
        for (const auto& seg : theirs.profile.segments()) {
          NodeCount value = applyOp(op, 0, seg.value);
          if (clampAtZero) value = std::max<NodeCount>(value, 0);
          if (segments.empty() || segments.back().value != value) {
            segments.push_back({seg.start, value});
          }
        }
        entries_.push_back(
            {theirs.cluster, StepFunction::fromCanonical(std::move(segments))});
      }
      return *this;
    }
    // Binary fast path: merge in place, cluster by cluster. Materialize
    // the operand's clusters first so the clamp (and the merge) covers the
    // union of both cluster sets.
    for (const Entry& theirs : other.entries_) {
      static_cast<void>(capRef(theirs.cluster));
    }
    for (Entry& mine : entries_) {
      const Entry* theirsEntry = other.find(mine.cluster);
      if (theirsEntry == nullptr) {
        // Zero operand: identity for kAdd/kSubtract, a clamp for kMax.
        if (clampAtZero || op == Op::kMax) mine.profile.clampMin(0);
        continue;
      }
      const StepFunction& theirs = theirsEntry->profile;
      if (op != Op::kMax &&
          theirs.segmentCount() * 8 <= mine.profile.segmentCount()) {
        // A small operand against a big base: splice it in pulse by pulse
        // (memmove around at most two breakpoints each) instead of
        // re-merging and re-allocating the whole base.
        const auto segs = theirs.segments();
        for (std::size_t k = 0; k < segs.size(); ++k) {
          if (segs[k].value == 0) continue;
          const Time start = segs[k].start;
          const Time next =
              k + 1 < segs.size() ? segs[k + 1].start : kTimeInf;
          const Time duration = isInf(next) ? kTimeInf : next - start;
          mine.profile.addPulse(
              start, duration,
              op == Op::kSubtract ? -segs[k].value : segs[k].value);
        }
        if (clampAtZero) mine.profile.clampMin(0);
      } else {
        mine.profile =
            combineBinary(mine.profile, theirs, op, clampAtZero);
      }
    }
    return *this;
  }

  std::vector<ClusterId> ids;
  appendClusterIds(ids);
  for (const View* other : others) other->appendClusterIds(ids);
  sortUniqueClusterIds(ids);

  // The per-cluster sweeps are independent; each one writes its own slot
  // and the slots land in `entries_` in cluster order, so the pooled pass
  // is bit-identical to the serial one.
  std::vector<Entry> result(ids.size());
  coorm::parallelFor(pool, ids.size(), [&](std::size_t c) {
    const ClusterId cid = ids[c];
    std::vector<const StepFunction*> fns;
    fns.reserve(others.size() + 1);
    fns.push_back(&cap(cid));
    for (const View* other : others) fns.push_back(&other->cap(cid));
    result[c] = {cid, accumulateProfiles(fns, op, clampAtZero)};
  });
  entries_ = std::move(result);
  return *this;
}

void View::appendClusterIds(std::vector<ClusterId>& out) const {
  // No reserve here: exact-fit reserves in a loop defeat push_back's
  // geometric growth and turn repeated appends quadratic.
  for (const Entry& entry : entries_) out.push_back(entry.cluster);
}

void View::sortUniqueClusterIds(std::vector<ClusterId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

NodeCount View::alloc(ClusterId cid, Time start, Time duration,
                      NodeCount wanted) const {
  if (wanted <= 0 || duration <= 0) return 0;
  if (isInf(start)) return 0;  // a request scheduled "never" gets nothing
  const Time end = satAdd(start, duration);
  const NodeCount available = cap(cid).minOver(start, end);
  return std::clamp<NodeCount>(available, 0, wanted);
}

Time View::findHole(ClusterId cid, NodeCount need, Time duration,
                    Time earliest) const {
  return cap(cid).firstFit(earliest, duration, need);
}

double View::integralNodeSeconds(Time t0, Time t1) const {
  double total = 0.0;
  for (const Entry& entry : entries_) {
    total += entry.profile.integralNodeSeconds(t0, t1);
  }
  return total;
}

std::vector<ClusterId> View::clusters() const {
  std::vector<ClusterId> result;
  result.reserve(entries_.size());
  for (const Entry& entry : entries_) result.push_back(entry.cluster);
  return result;
}

bool View::sameAs(const View& other) const {
  // Profiles must match on the union of cluster sets; absent means zero.
  for (const Entry& entry : entries_) {
    if (!(entry.profile == other.cap(entry.cluster))) return false;
  }
  for (const Entry& entry : other.entries_) {
    if (find(entry.cluster) == nullptr && !entry.profile.isZero()) {
      return false;
    }
  }
  return true;
}

View NonPreemptiveView::sum(const View& freeProfile,
                            const View& ownOccupation) {
  View view = ownOccupation;
  const View* operands[] = {&freeProfile};
  view.accumulate(operands, View::Op::kAdd, /*clampAtZero=*/true);
  return view;
}

View NonPreemptiveView::materialize() const {
  metrics::increment(metrics::Event::kNpViewsMaterialized);
  return sum(freeProfile, ownOccupation);
}

std::string View::toString() const {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out << ", ";
    out << coorm::toString(entries_[i].cluster) << ": "
        << entries_[i].profile.toString();
  }
  out << '}';
  return out.str();
}

}  // namespace coorm
