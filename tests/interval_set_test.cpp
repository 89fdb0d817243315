#include "hilbert/interval_set.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace dsi::hilbert {
namespace {

TEST(IntervalSetTest, EmptySet) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.Intersects({0, 100}));
  EXPECT_FALSE(s.Covers({5, 5}));
}

TEST(IntervalSetTest, AddDisjoint) {
  IntervalSet s;
  s.Add({10, 20});
  s.Add({30, 40});
  ASSERT_EQ(s.ranges().size(), 2u);
  EXPECT_TRUE(s.Covers({10, 20}));
  EXPECT_TRUE(s.Covers({35, 40}));
  EXPECT_FALSE(s.Covers({10, 30}));
  EXPECT_FALSE(s.Intersects({21, 29}));
  EXPECT_TRUE(s.Intersects({20, 30}));
}

TEST(IntervalSetTest, AddMergesAdjacent) {
  IntervalSet s;
  s.Add({10, 20});
  s.Add({21, 30});
  ASSERT_EQ(s.ranges().size(), 1u);
  EXPECT_EQ(s.ranges()[0], (HcRange{10, 30}));
}

TEST(IntervalSetTest, AddMergesOverlappingSpanningMultiple) {
  IntervalSet s;
  s.Add({0, 5});
  s.Add({10, 15});
  s.Add({20, 25});
  s.Add({4, 22});
  ASSERT_EQ(s.ranges().size(), 1u);
  EXPECT_EQ(s.ranges()[0], (HcRange{0, 25}));
}

TEST(IntervalSetTest, AddContainedIsNoop) {
  IntervalSet s;
  s.Add({0, 100});
  s.Add({10, 20});
  ASSERT_EQ(s.ranges().size(), 1u);
  EXPECT_EQ(s.ranges()[0], (HcRange{0, 100}));
}

TEST(IntervalSetTest, SubtractBasics) {
  IntervalSet s;
  s.Add({10, 20});
  std::vector<HcRange> rem;
  s.SubtractInto({{0, 30}}, &rem);
  ASSERT_EQ(rem.size(), 2u);
  EXPECT_EQ(rem[0], (HcRange{0, 9}));
  EXPECT_EQ(rem[1], (HcRange{21, 30}));
}

TEST(IntervalSetTest, SubtractFullyCovered) {
  IntervalSet s;
  s.Add({0, 100});
  std::vector<HcRange> rem;
  s.SubtractInto({{10, 20}, {50, 60}}, &rem);
  EXPECT_TRUE(rem.empty());
}

TEST(IntervalSetTest, SubtractUntouched) {
  IntervalSet s;
  s.Add({100, 200});
  std::vector<HcRange> rem;
  s.SubtractInto({{0, 50}}, &rem);
  ASSERT_EQ(rem.size(), 1u);
  EXPECT_EQ(rem[0], (HcRange{0, 50}));
}

TEST(IntervalSetTest, SubtractEdgeTouching) {
  IntervalSet s;
  s.Add({10, 20});
  std::vector<HcRange> rem;
  s.SubtractInto({{20, 25}}, &rem);
  ASSERT_EQ(rem.size(), 1u);
  EXPECT_EQ(rem[0], (HcRange{21, 25}));
}

// SubtractInto with targets that exactly touch or equal set ranges: the
// linear-merge cursor must neither drop a touching remainder nor emit an
// empty one.
TEST(IntervalSetTest, SubtractIntoTouchingAndIdentical) {
  IntervalSet s;
  s.Add({10, 20});
  s.Add({30, 40});
  std::vector<HcRange> out;

  // Target identical to a set range: nothing remains.
  s.SubtractInto({{10, 20}}, &out);
  EXPECT_TRUE(out.empty());

  // Target identical to the union span: only the gap remains.
  s.SubtractInto({{10, 40}}, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (HcRange{21, 29}));

  // Targets touching range endpoints from both sides.
  s.SubtractInto({{9, 10}, {20, 21}}, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (HcRange{9, 9}));
  EXPECT_EQ(out[1], (HcRange{21, 21}));

  // Adjacent one-point targets exactly at hi+1 and lo-1 survive whole.
  s.SubtractInto({{21, 21}, {29, 29}}, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (HcRange{21, 21}));
  EXPECT_EQ(out[1], (HcRange{29, 29}));

  // One-point targets on range endpoints vanish.
  s.SubtractInto({{10, 10}, {20, 20}, {30, 30}, {40, 40}}, &out);
  EXPECT_TRUE(out.empty());

  // A target spanning several set ranges, ends exactly on range bounds.
  s.SubtractInto({{10, 40}, {41, 50}}, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (HcRange{21, 29}));
  EXPECT_EQ(out[1], (HcRange{41, 50}));

  // Empty target list clears the out buffer.
  out.assign(3, HcRange{1, 2});
  s.SubtractInto({}, &out);
  EXPECT_TRUE(out.empty());
}

// SubtractInto at the extremes of the uint64 domain (the DSI client's
// "whole HC space" target when the kNN radius is still unbounded).
TEST(IntervalSetTest, SubtractIntoDomainExtremes) {
  IntervalSet s;
  s.Add({0, 9});
  s.Add({UINT64_MAX - 4, UINT64_MAX});
  std::vector<HcRange> out;
  s.SubtractInto({{0, UINT64_MAX}}, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (HcRange{10, UINT64_MAX - 5}));

  s.Add({10, UINT64_MAX - 5});
  s.SubtractInto({{0, UINT64_MAX}}, &out);
  EXPECT_TRUE(out.empty());
}

// Randomized property check against a per-point oracle.
TEST(IntervalSetTest, RandomizedMatchesPointOracle) {
  common::Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    IntervalSet s;
    std::set<uint64_t> oracle;
    for (int i = 0; i < 40; ++i) {
      const auto lo = static_cast<uint64_t>(rng.UniformInt(0, 180));
      const auto hi = lo + static_cast<uint64_t>(rng.UniformInt(0, 15));
      s.Add({lo, hi});
      for (uint64_t v = lo; v <= hi; ++v) oracle.insert(v);
    }
    // Invariant: ranges sorted, disjoint, non-adjacent.
    const auto& rs = s.ranges();
    for (size_t i = 1; i < rs.size(); ++i) {
      ASSERT_GT(rs[i].lo, rs[i - 1].hi + 1);
    }
    // Point-wise agreement on [0, 200].
    for (uint64_t v = 0; v <= 200; ++v) {
      EXPECT_EQ(s.Covers({v, v}), oracle.count(v) == 1) << "at " << v;
      EXPECT_EQ(s.Intersects({v, v}), oracle.count(v) == 1);
    }
    // Subtract agreement on random targets.
    for (int i = 0; i < 10; ++i) {
      const auto lo = static_cast<uint64_t>(rng.UniformInt(0, 180));
      const auto hi = lo + static_cast<uint64_t>(rng.UniformInt(0, 30));
      std::vector<HcRange> rem;
      s.SubtractInto({{lo, hi}}, &rem);
      std::set<uint64_t> rem_points;
      for (const auto& r : rem) {
        for (uint64_t v = r.lo; v <= r.hi; ++v) rem_points.insert(v);
      }
      for (uint64_t v = lo; v <= hi; ++v) {
        EXPECT_EQ(rem_points.count(v) == 1, oracle.count(v) == 0)
            << "subtract at " << v;
      }
    }
  }
}

}  // namespace
}  // namespace dsi::hilbert
