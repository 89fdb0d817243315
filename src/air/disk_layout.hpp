#pragma once

/// \file disk_layout.hpp
/// \brief The on-air cycle of any air index: glue between the
/// family-agnostic server layouts (broadcast::MakeMultiDiskProgram, then
/// broadcast::MakeCodedProgram) and a family's spatial layout.
///
/// Each bucket of the index's program is weighted by the Zipf region
/// popularity of its spatial anchor via AirIndexHandle::DiskWeights: data
/// buckets weigh their own region; anchorless buckets — DSI tables, tree
/// nodes, chunk tables — default to inheriting the next anchored weight in
/// cycle order (an index bucket is read immediately before the data it
/// points at), and tree families override with a subtree-max rule so the
/// root rides the hottest disk. Weights are evaluated over the unit
/// universe, the data space of every simulated broadcast.

#include <optional>

#include "air/air_index.hpp"
#include "broadcast/coding.hpp"
#include "broadcast/disks.hpp"

namespace dsi::broadcast {
class AirTreeBroadcast;
}

namespace dsi::air {

/// Multi-disk re-layout of \p index's program under \p config. With the
/// config disabled this returns a plain copy of the flat program — callers
/// that care about byte identity (sim::RunWorkload) keep the index's own
/// program by reference instead of calling this.
broadcast::BroadcastProgram MakeSkewedProgram(
    const AirIndexHandle& index, const broadcast::DiskConfig& config);

/// The cycle \p index airs under the server layouts: the multi-disk
/// re-layout first (when \p disks is enabled), then the parity interleave
/// over its physical stream (when \p coding is enabled). Returns nullopt
/// when both are disabled — callers then air the index's own program by
/// reference, byte-identical to a build without either layer.
std::optional<broadcast::BroadcastProgram> OnAirProgram(
    const AirIndexHandle& index, const broadcast::DiskConfig& disks,
    const broadcast::CodingConfig& coding);

/// Subtree-max DiskWeights for AirTreeBroadcast-backed families (R-tree,
/// HCI): each data bucket weighs its anchor's region, each node occurrence
/// the maximum over its subtree's data — a node is requested by every
/// query descending into it, so it must air at least as often as its
/// hottest descendant (and the root at the global maximum).
std::vector<double> TreeDiskWeights(
    const broadcast::AirTreeBroadcast& air, const AirIndexHandle& handle,
    const datasets::RegionPopularity& popularity,
    const common::Rect& universe);

}  // namespace dsi::air
