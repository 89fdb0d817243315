#pragma once

/// \file interval_set.hpp
/// \brief A set of disjoint inclusive uint64 intervals with union, coverage
/// and subtraction queries. DSI clients use it to track which portions of
/// the Hilbert-value space have been confirmed retrieved ("covered") and
/// which query target segments are still pending.

#include <cstdint>
#include <vector>

#include "hilbert/hilbert.hpp"

namespace dsi::hilbert {

/// Disjoint sorted inclusive ranges; all operations keep the invariant.
class IntervalSet {
 public:
  IntervalSet() = default;

  /// Adds [r.lo, r.hi] to the set (merging as needed).
  void Add(const HcRange& r);

  bool empty() const { return ranges_.empty(); }

  /// True iff [r.lo, r.hi] intersects the set.
  bool Intersects(const HcRange& r) const;

  /// True iff [r.lo, r.hi] is fully inside the set.
  bool Covers(const HcRange& r) const;

  /// Writes \p targets minus this set into \p out (cleared first): the
  /// sub-ranges of each target not yet covered, normalized. The buffer is
  /// the caller's so the pending-target loops reuse it every iteration.
  void SubtractInto(const std::vector<HcRange>& targets,
                    std::vector<HcRange>* out) const;

  const std::vector<HcRange>& ranges() const { return ranges_; }

 private:
  std::vector<HcRange> ranges_;  // disjoint, sorted, non-adjacent
};

}  // namespace dsi::hilbert
