/// Golden-equivalence suite for the PR-2 hot-path optimizations: the
/// table-driven Hilbert automaton, the templated quadtree decomposition,
/// the flat client knowledge structures and the pooled/arena experiment
/// engine must reproduce the pre-optimization implementation bit for bit.
///
///  * Conversions: the nibble-LUT CellToIndex/IndexToCell against the
///    classic one-bit rotate/flip reference loops, across orders (including
///    ones not divisible by the nibble width) and random cells.
///  * Decomposition: the templated, coordinate-threading quadtree descent
///    against a reference recursion that recovers block corners with
///    IndexToCellReference (the pre-PR shape), across random windows.
///  * Byte metrics: a table of access-latency/tuning averages captured by
///    tools/golden_gen from the pre-optimization implementation, across
///    index families, reorg layouts (m = 1..3), curve orders, query kinds
///    and error rates. Any hot-path change that shifts simulated behavior
///    trips these exact comparisons.
///  * Program lookups: the stride-table SlotAtPacket/SlotStartingAtOrAfter
///    against direct binary search on randomized programs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "air/dsi_handle.hpp"
#include "air/exp_handle.hpp"
#include "air/hci_handle.hpp"
#include "air/rtree_handle.hpp"
#include "broadcast/program.hpp"
#include "common/rng.hpp"
#include "datasets/datasets.hpp"
#include "dsi/index.hpp"
#include "hci/hci.hpp"
#include "hilbert/hilbert.hpp"
#include "hilbert/space_mapper.hpp"
#include "rtree/rtree_air.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"

namespace dsi {
namespace {

// ---------------------------------------------------------------------------
// Hilbert conversions: LUT vs reference
// ---------------------------------------------------------------------------

TEST(HilbertGoldenTest, LutConversionsMatchReferenceExhaustiveSmallOrders) {
  for (int order = 1; order <= 6; ++order) {
    const hilbert::HilbertCurve curve(order);
    for (uint64_t y = 0; y < curve.side(); ++y) {
      for (uint64_t x = 0; x < curve.side(); ++x) {
        const auto xi = static_cast<uint32_t>(x);
        const auto yi = static_cast<uint32_t>(y);
        const uint64_t d = curve.CellToIndex(xi, yi);
        ASSERT_EQ(d, curve.CellToIndexReference(xi, yi))
            << "order " << order << " cell (" << x << "," << y << ")";
        ASSERT_EQ(curve.IndexToCell(d), curve.IndexToCellReference(d))
            << "order " << order << " index " << d;
      }
    }
  }
}

TEST(HilbertGoldenTest, LutConversionsMatchReferenceRandomizedLargeOrders) {
  common::Rng rng(1234);
  for (const int order : {7, 9, 12, 15, 16, 21, 24, 31}) {
    const hilbert::HilbertCurve curve(order);
    for (int i = 0; i < 2000; ++i) {
      const auto x = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(curve.side()) - 1));
      const auto y = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(curve.side()) - 1));
      const uint64_t d = curve.CellToIndex(x, y);
      ASSERT_EQ(d, curve.CellToIndexReference(x, y))
          << "order " << order << " cell (" << x << "," << y << ")";
      ASSERT_EQ(curve.IndexToCell(d), curve.IndexToCellReference(d))
          << "order " << order << " index " << d;
    }
  }
}

// ---------------------------------------------------------------------------
// Decomposition: templated descent vs pre-PR reference recursion
// ---------------------------------------------------------------------------

/// The decomposition as PR 1 implemented it: quadtree descent that locates
/// each block by converting its base curve index back to a cell.
void ReferenceRangesRecurse(
    const hilbert::HilbertCurve& curve, uint64_t hc_base, uint64_t block_side,
    const hilbert::HilbertCurve::BlockClassifier& classify,
    std::vector<hilbert::HcRange>* out) {
  const auto [cx, cy] = curve.IndexToCellReference(hc_base);
  const uint64_t bx = cx & ~(block_side - 1);
  const uint64_t by = cy & ~(block_side - 1);
  switch (classify(bx, by, block_side)) {
    case hilbert::HilbertCurve::BlockClass::kDisjoint:
      return;
    case hilbert::HilbertCurve::BlockClass::kFull:
      out->push_back(
          hilbert::HcRange{hc_base, hc_base + block_side * block_side - 1});
      return;
    case hilbert::HilbertCurve::BlockClass::kPartial:
      break;
  }
  if (block_side == 1) {
    out->push_back(hilbert::HcRange{hc_base, hc_base});
    return;
  }
  const uint64_t child_side = block_side / 2;
  const uint64_t child_cells = child_side * child_side;
  for (uint64_t q = 0; q < 4; ++q) {
    ReferenceRangesRecurse(curve, hc_base + q * child_cells, child_side,
                           classify, out);
  }
}

TEST(HilbertGoldenTest, TemplatedDecompositionMatchesReferenceRecursion) {
  common::Rng rng(99);
  for (const int order : {3, 5, 8, 10}) {
    const hilbert::HilbertCurve curve(order);
    const auto side = static_cast<int64_t>(curve.side());
    for (int i = 0; i < 60; ++i) {
      const auto x1 = static_cast<uint32_t>(rng.UniformInt(0, side - 1));
      const auto x2 = static_cast<uint32_t>(rng.UniformInt(0, side - 1));
      const auto y1 = static_cast<uint32_t>(rng.UniformInt(0, side - 1));
      const auto y2 = static_cast<uint32_t>(rng.UniformInt(0, side - 1));
      const uint32_t x_lo = std::min(x1, x2), x_hi = std::max(x1, x2);
      const uint32_t y_lo = std::min(y1, y2), y_hi = std::max(y1, y2);
      auto classify = [&](uint64_t bx, uint64_t by, uint64_t s) {
        const uint64_t bx_hi = bx + s - 1, by_hi = by + s - 1;
        if (bx > x_hi || bx_hi < x_lo || by > y_hi || by_hi < y_lo) {
          return hilbert::HilbertCurve::BlockClass::kDisjoint;
        }
        if (bx >= x_lo && bx_hi <= x_hi && by >= y_lo && by_hi <= y_hi) {
          return hilbert::HilbertCurve::BlockClass::kFull;
        }
        return hilbert::HilbertCurve::BlockClass::kPartial;
      };
      std::vector<hilbert::HcRange> reference;
      ReferenceRangesRecurse(curve, 0, curve.side(), classify, &reference);
      reference = hilbert::NormalizeRanges(std::move(reference));
      std::vector<hilbert::HcRange> fast;
      curve.RangesInCellRect(x_lo, y_lo, x_hi, y_hi, &fast);
      ASSERT_EQ(fast, reference)
          << "order " << order << " rect [" << x_lo << "," << x_hi << "]x["
          << y_lo << "," << y_hi << "]";
    }
  }
}

// ---------------------------------------------------------------------------
// Byte metrics: optimized hot path vs captured pre-optimization averages
// ---------------------------------------------------------------------------

struct GoldenRow {
  const char* family;
  int m;
  int order;  // 0 = order-independent family (R-tree)
  const char* kind;
  double theta;
  double latency_bytes;
  double tuning_bytes;
  size_t incomplete;
};

// Captured by tools/golden_gen from the pre-optimization (PR 1) hot path;
// averages of exact integer byte sums, so they compare with operator==.
// The theta=0.5 hci/rtree rows were re-captured after the PR-3 lossy-channel
// recovery fix (sweeping instead of blocking on lost buckets — conformance
// campaign finding; it halves lossy R-tree window latency); every theta=0
// row still matches PR 1 bit for bit.
const GoldenRow kGolden[] = {
    {"dsi", 1, 6, "window", 0, 184389.33333333334, 10640, 0},
    {"dsi", 1, 6, "window", 0.5, 2743162.6666666665, 24928, 0},
    {"dsi", 1, 6, "knn", 0, 194592, 17653.333333333332, 0},
    {"dsi", 1, 6, "knn-aggr", 0, 837973.33333333337, 15861.333333333334, 0},
    {"dsi", 2, 6, "window", 0, 207152, 10768, 0},
    {"dsi", 2, 6, "window", 0.5, 3250208, 27914.666666666668, 0},
    {"dsi", 2, 6, "knn", 0, 242768, 20544, 0},
    {"dsi", 2, 6, "knn-aggr", 0, 805066.66666666663, 18832, 0},
    {"dsi", 3, 6, "window", 0, 323717.33333333331, 15749.333333333334, 0},
    {"dsi", 3, 6, "window", 0.5, 3618170.6666666665, 33429.333333333336, 0},
    {"dsi", 3, 6, "knn", 0, 294981.33333333331, 23792, 0},
    {"dsi", 3, 6, "knn-aggr", 0, 1048789.3333333333, 19984, 0},
    {"hci", 1, 6, "window", 0, 290933.33333333331, 6874.666666666667, 0},
    {"hci", 1, 6, "window", 0.5, 3769648, 13696, 0},
    {"hci", 1, 6, "knn", 0, 557813.33333333337, 13312, 0},
    {"expindex", 1, 6, "window", 0, 1426272, 17834.666666666668, 0},
    {"expindex", 1, 6, "knn", 0, 2720170.6666666665, 39829.333333333336, 0},
    {"dsi", 1, 8, "window", 0, 184816, 10762.666666666666, 0},
    {"dsi", 1, 8, "window", 0.5, 3080304, 27322.666666666668, 0},
    {"dsi", 1, 8, "knn", 0, 195072, 16138.666666666666, 0},
    {"dsi", 1, 8, "knn-aggr", 0, 780010.66666666663, 16085.333333333334, 0},
    {"dsi", 2, 8, "window", 0, 206032, 10816, 0},
    {"dsi", 2, 8, "window", 0.5, 3396336, 28218.666666666668, 0},
    {"dsi", 2, 8, "knn", 0, 244272, 19205.333333333332, 0},
    {"dsi", 2, 8, "knn-aggr", 0, 852320, 16432, 0},
    {"dsi", 3, 8, "window", 0, 439632, 15306.666666666666, 0},
    {"dsi", 3, 8, "window", 0.5, 2707349.3333333335, 30453.333333333332, 0},
    {"dsi", 3, 8, "knn", 0, 283626.66666666669, 22373.333333333332, 0},
    {"dsi", 3, 8, "knn-aggr", 0, 1201461.3333333333, 22586.666666666668, 0},
    {"hci", 1, 8, "window", 0, 290592, 6106.666666666667, 0},
    {"hci", 1, 8, "window", 0.5, 3905488, 12757.333333333334, 0},
    {"hci", 1, 8, "knn", 0, 557050.66666666663, 11205.333333333334, 0},
    {"expindex", 1, 8, "window", 0, 6584474.666666667, 42890.666666666664, 0},
    {"expindex", 1, 8, "knn", 0, 16029082.666666666, 103616, 0},
    {"rtree", 1, 0, "window", 0, 227541.33333333334, 7520, 0},
    {"rtree", 1, 0, "window", 0.5, 3013450.6666666665, 14069.333333333334, 0},
    {"rtree", 1, 0, "knn", 0, 521450.66666666669, 11552, 0},
};

/// One golden row of the erasure-coded engine: the same workloads and seed
/// as kGolden, run with a (group, parity) coding config. theta = 0 pins the
/// parity padding and data-to-physical slot translation; theta = 0.5 pins
/// the repair path — listens, reconstructions and the repaired counter —
/// byte for byte. Captured by the coded section of tools/golden_gen.
struct CodedGoldenRow {
  const char* family;
  uint32_t group;
  uint32_t parity;
  const char* kind;
  double theta;
  double latency_bytes;
  double tuning_bytes;
  size_t incomplete;
  size_t repaired;
};

const CodedGoldenRow kGoldenCoded[] = {
    {"dsi", 2, 1, "window", 0, 353616, 10650.666666666666, 0, 0},
    {"dsi", 2, 1, "window", 0.5, 3079189.3333333335, 39493.333333333336, 0, 64},
    {"dsi", 2, 2, "window", 0, 522832, 10650.666666666666, 0, 0},
    {"dsi", 2, 2, "window", 0.5, 2717434.6666666665, 47909.333333333336, 0, 108},
    {"rtree", 2, 1, "window", 0, 350277.33333333331, 7520, 0, 0},
    {"rtree", 2, 1, "window", 0.5, 3752752, 15152, 0, 54},
    {"rtree", 2, 2, "window", 0, 477072, 7520, 0, 0},
    {"rtree", 2, 2, "window", 0.5, 3489866.6666666665, 20325.333333333332, 0, 93},
    {"hci", 2, 1, "window", 0, 450336, 6874.666666666667, 0, 0},
    {"hci", 2, 1, "window", 0.5, 4554869.333333333, 16218.666666666666, 0, 37},
    {"hci", 2, 2, "window", 0, 609749.33333333337, 6874.666666666667, 0, 0},
    {"hci", 2, 2, "window", 0.5, 3614640, 17546.666666666668, 0, 69},
    {"expindex", 2, 1, "window", 0, 2670602.6666666665, 17856, 0, 0},
    {"expindex", 2, 1, "window", 0.5, 10126581.333333334, 69717.333333333328, 0, 93},
    {"expindex", 2, 2, "window", 0, 3914938.6666666665, 17856, 0, 0},
    {"expindex", 2, 2, "window", 0.5, 8791728, 92800, 0, 191},
};

/// One golden row of the skewed multi-disk engine: the same workloads and
/// seed as kGolden, run with a (num_disks, skew) DiskConfig (grid 8, region
/// popularity seed 5). The (1, 0) config is the identity contract — its
/// rows must stay byte-identical to the flat order-6 window rows in
/// kGolden — while (2, 1.2) and (3, 1.2) pin the chunked hottest-first
/// layout and the repetition-aware client hops byte for byte. Captured by
/// the disk section of tools/golden_gen.
struct DiskGoldenRow {
  const char* family;
  uint32_t disks;
  double skew;
  const char* kind;
  double theta;
  double latency_bytes;
  double tuning_bytes;
  size_t incomplete;
};

const DiskGoldenRow kGoldenDisks[] = {
    {"dsi", 1, 0, "window", 0, 184389.33333333334, 10640, 0},
    {"dsi", 1, 0, "window", 0.5, 2743162.6666666665, 24928, 0},
    {"dsi", 2, 1.2, "window", 0, 260725.33333333334, 10602.666666666666, 0},
    {"dsi", 2, 1.2, "window", 0.5, 3670896, 20976, 0},
    {"dsi", 3, 1.2, "window", 0, 279162.66666666669, 10549.333333333334, 0},
    {"dsi", 3, 1.2, "window", 0.5, 4390762.666666667, 21802.666666666668, 0},
    {"rtree", 1, 0, "window", 0, 227541.33333333334, 7520, 0},
    {"rtree", 1, 0, "window", 0.5, 3013450.6666666665, 14069.333333333334, 0},
    {"rtree", 2, 1.2, "window", 0, 378752, 7520, 0},
    {"rtree", 2, 1.2, "window", 0.5, 3479898.6666666665, 14965.333333333334, 0},
    {"rtree", 3, 1.2, "window", 0, 531642.66666666663, 7520, 0},
    {"rtree", 3, 1.2, "window", 0.5, 3958165.3333333335, 14218.666666666666, 0},
    {"hci", 1, 0, "window", 0, 290933.33333333331, 6874.666666666667, 0},
    {"hci", 1, 0, "window", 0.5, 3769648, 13696, 0},
    {"hci", 2, 1.2, "window", 0, 513162.66666666669, 7130.666666666667, 0},
    {"hci", 2, 1.2, "window", 0.5, 6149658.666666667, 14320, 0},
    {"hci", 3, 1.2, "window", 0, 789984, 7194.666666666667, 0},
    {"hci", 3, 1.2, "window", 0.5, 7997482.666666667, 13168, 0},
    {"expindex", 1, 0, "window", 0, 1426272, 17834.666666666668, 0},
    {"expindex", 1, 0, "window", 0.5, 7125546.666666667, 42858.666666666664, 0},
    {"expindex", 2, 1.2, "window", 0, 2035216, 21674.666666666668, 0},
    {"expindex", 2, 1.2, "window", 0.5, 9351952, 58528, 0},
    {"expindex", 3, 1.2, "window", 0, 2585712, 21482.666666666668, 0},
    {"expindex", 3, 1.2, "window", 0.5, 14168506.666666666, 65098.666666666664, 0},
};

/// One golden row with both server layouts: the same workloads and seed as
/// kGolden on the 3-disk skewed cycle (grid 8, region popularity seed 5)
/// with (group, parity) parity groups cut from its physical stream. theta =
/// 0 pins the composed layout; theta = 0.5 pins repair over disk airings.
/// Captured by the coded multi-disk section of tools/golden_gen.
struct CodedDiskGoldenRow {
  const char* family;
  uint32_t disks;
  double skew;
  uint32_t group;
  uint32_t parity;
  const char* kind;
  double theta;
  double latency_bytes;
  double tuning_bytes;
  size_t incomplete;
  size_t repaired;
};

const CodedDiskGoldenRow kGoldenCodedDisks[] = {
    {"dsi", 3, 1.2, 2, 1, "window", 0, 535189.33333333337, 10549.333333333334, 0, 0},
    {"dsi", 3, 1.2, 2, 1, "window", 0.5, 4551797.333333333, 30464, 0, 59},
    {"rtree", 3, 1.2, 2, 1, "window", 0, 817850.66666666663, 7520, 0, 0},
    {"rtree", 3, 1.2, 2, 1, "window", 0.5, 5608917.333333333, 16261.333333333334, 0, 47},
    {"hci", 3, 1.2, 2, 1, "window", 0, 1231674.6666666667, 7194.666666666667, 0, 0},
    {"hci", 3, 1.2, 2, 1, "window", 0.5, 8883472, 19904, 0, 50},
    {"expindex", 3, 1.2, 2, 1, "window", 0, 4833882.666666667, 21482.666666666668, 0, 0},
    {"expindex", 3, 1.2, 2, 1, "window", 0.5, 21155877.333333332, 129216, 0, 170},
};

/// One order-6 handle per family: what the server-layout sections of
/// tools/golden_gen run on.
struct LayoutHandles {
  explicit LayoutHandles(const std::vector<datasets::SpatialObject>& objects)
      : mapper(datasets::UnitUniverse(), 6),
        dsi(objects, mapper, 64, core::DsiConfig{}),
        hci(objects, mapper, 64),
        rtree(objects, 64),
        dsi_handle(dsi),
        hci_handle(hci),
        rtree_handle(rtree),
        exp_handle(objects, mapper, 64) {}

  const air::AirIndexHandle& For(const char* family) const {
    if (std::strcmp(family, "dsi") == 0) return dsi_handle;
    if (std::strcmp(family, "rtree") == 0) return rtree_handle;
    if (std::strcmp(family, "hci") == 0) return hci_handle;
    return exp_handle;
  }

  hilbert::SpaceMapper mapper;
  core::DsiIndex dsi;
  hci::HciIndex hci;
  rtree::RtreeIndex rtree;
  air::DsiHandle dsi_handle;
  air::HciHandle hci_handle;
  air::RtreeHandle rtree_handle;
  air::ExpHandle exp_handle;
};

class GoldenMetricsTest : public ::testing::Test {
 protected:
  static constexpr size_t kQueries = 12;
  static constexpr size_t kCapacity = 64;

  GoldenMetricsTest()
      : objects_(datasets::MakeUniform(300, datasets::UnitUniverse(), 19)),
        windows_(sim::MakeWindowWorkload(kQueries, 0.12,
                                         datasets::UnitUniverse(), 23)),
        points_(
            sim::MakeKnnWorkload(kQueries, datasets::UnitUniverse(), 27)) {}

  sim::Workload WorkloadFor(const GoldenRow& row) const {
    const std::string kind = row.kind;
    if (kind == "window") return sim::Workload::Window(windows_, row.theta);
    if (kind == "knn") return sim::Workload::Knn(points_, 4);
    return sim::Workload::Knn(points_, 4, air::KnnStrategy::kAggressive);
  }

  void Check(const air::AirIndexHandle& handle, const GoldenRow& row) {
    const auto metrics =
        sim::RunWorkload(handle, WorkloadFor(row), sim::RunOptions{77, 1});
    EXPECT_EQ(metrics.latency_bytes, row.latency_bytes)
        << row.family << " m=" << row.m << " order=" << row.order << " "
        << row.kind << " theta=" << row.theta;
    EXPECT_EQ(metrics.tuning_bytes, row.tuning_bytes)
        << row.family << " m=" << row.m << " order=" << row.order << " "
        << row.kind << " theta=" << row.theta;
    EXPECT_EQ(metrics.incomplete, row.incomplete);
  }

  std::vector<datasets::SpatialObject> objects_;
  std::vector<common::Rect> windows_;
  std::vector<common::Point> points_;
};

TEST_F(GoldenMetricsTest, DsiAcrossOrdersAndReorgLayouts) {
  for (const int order : {6, 8}) {
    const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), order);
    for (const uint32_t m : {1u, 2u, 3u}) {
      core::DsiConfig cfg;
      cfg.num_segments = m;
      const core::DsiIndex dsi(objects_, mapper, kCapacity, cfg);
      const air::DsiHandle handle(dsi);
      for (const GoldenRow& row : kGolden) {
        if (std::strcmp(row.family, "dsi") != 0) continue;
        if (row.order != order || row.m != static_cast<int>(m)) continue;
        Check(handle, row);
      }
    }
  }
}

TEST_F(GoldenMetricsTest, HciAndExpAcrossOrders) {
  for (const int order : {6, 8}) {
    const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), order);
    const hci::HciIndex hci(objects_, mapper, kCapacity);
    const air::HciHandle hci_handle(hci);
    const air::ExpHandle exp_handle(objects_, mapper, kCapacity);
    for (const GoldenRow& row : kGolden) {
      if (row.order != order) continue;
      if (std::strcmp(row.family, "hci") == 0) Check(hci_handle, row);
      if (std::strcmp(row.family, "expindex") == 0) Check(exp_handle, row);
    }
  }
}

TEST_F(GoldenMetricsTest, Rtree) {
  const rtree::RtreeIndex rt(objects_, kCapacity);
  const air::RtreeHandle handle(rt);
  for (const GoldenRow& row : kGolden) {
    if (std::strcmp(row.family, "rtree") == 0) Check(handle, row);
  }
}

TEST_F(GoldenMetricsTest, CodedConfigsAllFamilies) {
  const LayoutHandles handles(objects_);
  for (const CodedGoldenRow& row : kGoldenCoded) {
    sim::RunOptions opt;
    opt.seed = 77;
    opt.workers = 1;
    opt.coding = broadcast::CodingConfig{row.group, row.parity};
    const auto metrics = sim::RunWorkload(
        handles.For(row.family), sim::Workload::Window(windows_, row.theta),
        opt);
    const std::string label = std::string(row.family) + " (" +
                              std::to_string(row.group) + "," +
                              std::to_string(row.parity) +
                              ") theta=" + std::to_string(row.theta);
    EXPECT_EQ(metrics.latency_bytes, row.latency_bytes) << label;
    EXPECT_EQ(metrics.tuning_bytes, row.tuning_bytes) << label;
    EXPECT_EQ(metrics.incomplete, row.incomplete) << label;
    EXPECT_EQ(metrics.repaired, row.repaired) << label;
  }
}

TEST_F(GoldenMetricsTest, DiskConfigsAllFamilies) {
  const LayoutHandles handles(objects_);
  for (const DiskGoldenRow& row : kGoldenDisks) {
    sim::RunOptions opt;
    opt.seed = 77;
    opt.workers = 1;
    opt.disks = broadcast::DiskConfig{row.disks, row.skew, 8, 5};
    const auto metrics = sim::RunWorkload(
        handles.For(row.family), sim::Workload::Window(windows_, row.theta),
        opt);
    const std::string label = std::string(row.family) + " disks=" +
                              std::to_string(row.disks) +
                              " skew=" + std::to_string(row.skew) +
                              " theta=" + std::to_string(row.theta);
    EXPECT_EQ(metrics.latency_bytes, row.latency_bytes) << label;
    EXPECT_EQ(metrics.tuning_bytes, row.tuning_bytes) << label;
    EXPECT_EQ(metrics.incomplete, row.incomplete) << label;
  }
}

TEST_F(GoldenMetricsTest, CodedDiskConfigsAllFamilies) {
  const LayoutHandles handles(objects_);
  for (const CodedDiskGoldenRow& row : kGoldenCodedDisks) {
    sim::RunOptions opt;
    opt.seed = 77;
    opt.workers = 1;
    opt.disks = broadcast::DiskConfig{row.disks, row.skew, 8, 5};
    opt.coding = broadcast::CodingConfig{row.group, row.parity};
    const auto metrics = sim::RunWorkload(
        handles.For(row.family), sim::Workload::Window(windows_, row.theta),
        opt);
    const std::string label = std::string(row.family) + " disks=" +
                              std::to_string(row.disks) + " (" +
                              std::to_string(row.group) + "," +
                              std::to_string(row.parity) +
                              ") theta=" + std::to_string(row.theta);
    EXPECT_EQ(metrics.latency_bytes, row.latency_bytes) << label;
    EXPECT_EQ(metrics.tuning_bytes, row.tuning_bytes) << label;
    EXPECT_EQ(metrics.incomplete, row.incomplete) << label;
    EXPECT_EQ(metrics.repaired, row.repaired) << label;
  }
}

// ---------------------------------------------------------------------------
// Program lookups: stride table vs binary search
// ---------------------------------------------------------------------------

TEST(ProgramGoldenTest, StrideLookupsMatchBinarySearch) {
  common::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    broadcast::BroadcastProgram p(64);
    const int buckets = static_cast<int>(rng.UniformInt(1, 120));
    for (int b = 0; b < buckets; ++b) {
      p.AddBucket(broadcast::BucketKind::kDataObject, 0,
                  static_cast<uint32_t>(rng.UniformInt(1, 1024)));
    }
    p.Finalize();
    std::vector<uint64_t> starts;
    for (size_t s = 0; s < p.num_buckets(); ++s) {
      starts.push_back(p.bucket(s).start_packet);
    }
    for (uint64_t packet = 0; packet < p.cycle_packets(); ++packet) {
      // Reference: direct binary search over bucket start offsets.
      const auto it =
          std::upper_bound(starts.begin(), starts.end(), packet);
      const size_t expect_at =
          static_cast<size_t>(std::distance(starts.begin(), it)) - 1;
      ASSERT_EQ(p.SlotAtPacket(packet), expect_at) << "packet " << packet;
      const auto lo = std::lower_bound(starts.begin(), starts.end(), packet);
      const size_t expect_after =
          lo == starts.end()
              ? 0
              : static_cast<size_t>(std::distance(starts.begin(), lo));
      ASSERT_EQ(p.SlotStartingAtOrAfter(packet), expect_after)
          << "packet " << packet;
    }
    ASSERT_EQ(p.SlotStartingAtOrAfter(p.cycle_packets()), 0u);
  }
}

}  // namespace
}  // namespace dsi
