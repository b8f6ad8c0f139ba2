#include "coorm/profile/profile_diff.hpp"

#include <algorithm>

namespace coorm {

bool diffWindow(std::span<const Segment> a, std::span<const Segment> b,
                Time& lo, Time& hi) {
  if (a.data() == b.data() && a.size() == b.size()) return false;  // shared
  std::size_t p = 0;
  const std::size_t maxCommon = std::min(a.size(), b.size());
  while (p < maxCommon && a[p] == b[p]) ++p;
  if (p == a.size() && p == b.size()) return false;
  if (p < a.size() && p < b.size()) {
    lo = std::min(a[p].start, b[p].start);
  } else if (p < a.size()) {
    lo = a[p].start;
  } else {
    lo = b[p].start;
  }
  // Pointwise agreement from the back: two canonical tails agree on
  // [max(sa, sb), inf) whenever their segment values match, so the reverse
  // merge extends the agreement until the values first differ. Matching
  // values with moved starts — the signature of a lease end sliding along
  // the timeline — thus bound the window instead of dragging it to
  // infinity the way whole-segment suffix comparison would.
  std::size_t ia = a.size();
  std::size_t ib = b.size();
  hi = kTimeInf;
  while (ia > 0 && ib > 0 && a[ia - 1].value == b[ib - 1].value) {
    const Time sa = a[ia - 1].start;
    const Time sb = b[ib - 1].start;
    hi = std::max(sa, sb);
    if (sa >= sb) --ia;
    if (sb >= sa) --ib;
  }
  if (lo >= hi) hi = kTimeInf;  // defensive: never let the window invert
  return true;
}

void mergeRanges(std::vector<DirtyRange>& ranges) {
  std::sort(ranges.begin(), ranges.end(),
            [](const DirtyRange& a, const DirtyRange& b) {
              return a.lo < b.lo;
            });
  std::size_t out = 0;
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    if (ranges[i].lo <= ranges[out].hi) {
      ranges[out].hi = std::max(ranges[out].hi, ranges[i].hi);
    } else {
      ranges[++out] = ranges[i];
    }
  }
  if (!ranges.empty()) ranges.resize(out + 1);
}

bool spliceWindow(StepFunction& target, Time lo, Time hi,
                  std::span<const Segment> window) {
  const std::span<const Segment> old = target.segments();
  {
    // Unchanged fast path, O(log + |window|): emit-on-change against the
    // cached value at lo-1 reproduces exactly the cached breakpoints in
    // [lo, hi) when the re-sweep computed the same function — most present
    // applications in a congested cluster, where a moved breakpoint only
    // shifts a handful of integer fair shares. The O(|series|) rebuild
    // below is reserved for the few that actually moved.
    const auto atLeast = [&](Time t) {
      return static_cast<std::size_t>(
          std::lower_bound(old.begin(), old.end(), t,
                           [](const Segment& seg, Time value) {
                             return seg.start < value;
                           }) -
          old.begin());
    };
    const std::size_t p = atLeast(lo);
    const std::size_t q = isInf(hi) ? old.size() : atLeast(hi);
    if (q - p == window.size() &&
        std::equal(window.begin(), window.end(), old.begin() + p)) {
      return false;
    }
  }
  SegmentStore out;
  out.reserve(old.size() + window.size() + 1);
  std::size_t i = 0;
  while (i < old.size() && old[i].start < lo) out.push_back(old[i++]);
  for (const Segment& seg : window) {
    if (out.empty() || out.back().value != seg.value) out.push_back(seg);
  }
  if (!isInf(hi)) {
    // Index of the cached segment containing hi (old[0].start == 0 <= hi).
    std::size_t j = old.size() - 1;
    {
      std::size_t l = 0;
      std::size_t r = old.size();
      while (r - l > 1) {
        const std::size_t mid = l + (r - l) / 2;
        if (old[mid].start <= hi) {
          l = mid;
        } else {
          r = mid;
        }
      }
      j = l;
    }
    const NodeCount atHi = old[j].value;
    if (out.empty() || out.back().value != atHi) out.push_back({hi, atHi});
    for (std::size_t t = j + 1; t < old.size(); ++t) out.push_back(old[t]);
  }

  if (out.size() == old.size() &&
      std::equal(out.begin(), out.end(), old.begin())) {
    return false;  // the re-swept range reproduced the cached values
  }
  target = StepFunction::fromCanonical(std::move(out));
  return true;
}

}  // namespace coorm
