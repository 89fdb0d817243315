#pragma once

/// \file disks.hpp
/// \brief Broadcast-Disks multi-frequency cycle layout: the server bins the
/// cycle's buckets by popularity into frequency tiers ("disks") and airs hot
/// tiers several times per cycle, so queries over hot regions wait a
/// fraction of the flat cycle.
///
/// The layout follows the classic Broadcast Disks construction: with K
/// disks (hottest first), disk d airs with relative frequency
/// f_d = 2^(K-1-d), i.e. {2,1} for K = 2 and {4,2,1} for K = 3 — hot
/// buckets repeat 2-4x per cycle. Disk d is split into 2^d equal chunks and
/// the major cycle is L = 2^(K-1) minor cycles, minor cycle i airing chunk
/// (i mod 2^d) of every disk, hottest disk first. Airtime shares are
/// chosen inversely proportional to frequency (K = 2: 1/3 and 2/3 of the
/// cycle's packets; K = 3: 1/7, 2/7, 4/7) so all chunks air about equally
/// long and the cycle expands by roughly 4/3 (K = 2) or 12/7 (K = 3).
/// Within a disk, buckets stay in flat-cycle order: weight decides only
/// the tier, so pipelined dependency chains (index node before subtree,
/// table before its objects) survive whenever the chain shares a disk.
///
/// Buckets keep their kind/payload/size; only the airing schedule changes.
/// Clients keep addressing the flat program's slot space — every physical
/// bucket names the data slot it airs (the program's air schedule) and
/// ClientSession resolves every read to the nearest upcoming airing. This
/// is the first of the two on-air transforms: erasure coding
/// (broadcast/coding.hpp) may then group the disk stream into parity
/// groups. A single-disk config reproduces the flat cycle exactly; the
/// simulator then keeps the index's own program by reference, so disabled
/// runs are byte-identical to a build without this layer (the same
/// contract CodingConfig{0,0} carries).

#include <cstdint>
#include <vector>

#include "broadcast/program.hpp"

namespace dsi::broadcast {

/// Server-side multi-disk knobs. Disabled (the default) reproduces the flat
/// single-frequency broadcast exactly.
struct DiskConfig {
  uint32_t num_disks = 1;  ///< Frequency tiers; 1 disables (flat cycle).
  double skew = 0.0;       ///< Zipf skew of the region popularity ranking.
  uint32_t grid = 8;       ///< Popularity grid side (grid^2 regions).
  uint64_t pop_seed = 0;   ///< Seed of the region rank permutation.

  bool enabled() const { return num_disks > 1; }
};

/// Re-emits \p flat as a multi-frequency cycle: slots are ranked by
/// \p weights (descending, ties by slot order), the hottest share binned
/// onto the fastest disk, and the chunked minor-cycle schedule above is
/// materialized bucket by bucket. \p weights must have one entry per slot
/// of \p flat, which must be flat (no transform applied yet). \p num_disks
/// is clamped to 3 (and to the slot count); a single-disk request returns a
/// plain copy.
BroadcastProgram MakeMultiDiskProgram(const BroadcastProgram& flat,
                                      uint32_t num_disks,
                                      const std::vector<double>& weights);

}  // namespace dsi::broadcast
