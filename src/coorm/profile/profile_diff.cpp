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

bool spliceWindow(StepFunction& target, Time lo, Time hi,
                  std::span<const Segment> window) {
  const std::span<const Segment> old = target.segments();
  SegmentStore out;
  out.reserve(old.size() + window.size() + 1);
  std::size_t i = 0;
  while (i < old.size() && old[i].start < lo) out.push_back(old[i++]);
  for (const Segment& seg : window) {
    if (out.empty() || out.back().value != seg.value) out.push_back(seg);
  }
  if (!isInf(hi)) {
    // Index of the target's segment containing hi (old[0].start == 0 <= hi).
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
    return false;  // the window reproduced the target's values
  }
  target = StepFunction::fromCanonical(std::move(out));
  return true;
}

}  // namespace coorm
