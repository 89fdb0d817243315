#include "hilbert/interval_set.hpp"

#include <algorithm>
#include <cassert>

namespace dsi::hilbert {

void IntervalSet::Add(const HcRange& r) {
  assert(r.lo <= r.hi);
  // Find insertion window: all ranges overlapping or adjacent to r.
  auto first = std::lower_bound(
      ranges_.begin(), ranges_.end(), r,
      [](const HcRange& a, const HcRange& b) {
        // a entirely before b with a gap (not adjacent).
        return a.hi != UINT64_MAX && a.hi + 1 < b.lo;
      });
  auto last = std::upper_bound(
      first, ranges_.end(), r, [](const HcRange& a, const HcRange& b) {
        return a.hi != UINT64_MAX && a.hi + 1 < b.lo;
      });
  HcRange merged = r;
  if (first != last) {
    merged.lo = std::min(merged.lo, first->lo);
    merged.hi = std::max(merged.hi, std::prev(last)->hi);
  }
  auto pos = ranges_.erase(first, last);
  ranges_.insert(pos, merged);
}

bool IntervalSet::Intersects(const HcRange& r) const {
  // First range with hi >= r.lo; it intersects iff its lo <= r.hi.
  auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), r.lo,
      [](const HcRange& a, uint64_t v) { return a.hi < v; });
  return it != ranges_.end() && it->lo <= r.hi;
}

bool IntervalSet::Covers(const HcRange& r) const {
  auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), r.lo,
      [](const HcRange& a, uint64_t v) { return a.hi < v; });
  return it != ranges_.end() && it->lo <= r.lo && r.hi <= it->hi;
}

void IntervalSet::SubtractInto(const std::vector<HcRange>& targets,
                               std::vector<HcRange>* out_ptr) const {
  std::vector<HcRange>& out = *out_ptr;
  out.clear();
  // Linear merge: targets are normalized (sorted, disjoint) on every hot
  // path, so the cursor into this set only moves forward — O(|targets| +
  // |set|) instead of a binary search per target. The guard below restores
  // correctness for unsorted callers by rewinding.
  auto it = ranges_.begin();
  uint64_t prev_lo = 0;
  for (const HcRange& t : targets) {
    if (t.lo < prev_lo) it = ranges_.begin();  // unsorted input: rewind
    prev_lo = t.lo;
    // Ranges ending before this target cannot touch any later target.
    while (it != ranges_.end() && it->hi < t.lo) ++it;
    uint64_t cur = t.lo;
    bool open = true;
    // A set range may span several targets; walk with a local cursor so it
    // stays available for the next target.
    for (auto jt = it; jt != ranges_.end() && jt->lo <= t.hi; ++jt) {
      if (jt->lo > cur) out.push_back(HcRange{cur, jt->lo - 1});
      if (jt->hi >= t.hi) {
        open = false;
        break;
      }
      cur = jt->hi + 1;
    }
    if (open && cur <= t.hi) out.push_back(HcRange{cur, t.hi});
  }
  NormalizeRangesInPlace(out_ptr);
}

}  // namespace dsi::hilbert
