#pragma once

/// \file program.hpp
/// \brief The broadcast program: the fixed, periodically repeated sequence
/// of buckets (index tables, tree nodes, data objects) a server pushes onto
/// the wireless channel.
///
/// Model (Section 4 of the paper):
///  * The atomic on-air unit is a packet of `packet_capacity` bytes.
///  * A bucket occupies ceil(size_bytes / capacity) consecutive packets and
///    always starts on a packet boundary (clients synchronize per packet).
///  * The program repeats forever; global time is measured in packets and
///    metrics are reported in bytes (packets x capacity).
///
/// A program built from an index is *flat*: its physical slots are the
/// data slots clients address. The server may re-lay a flat cycle out with
/// two transforms, applied in this order:
///  1. Broadcast Disks (broadcast/disks.hpp) repeats hot buckets, so one
///     data slot airs at one or more physical slots;
///  2. erasure coding (broadcast/coding.hpp) cuts the resulting physical
///     stream into groups of `coding_group` buckets, each closed by
///     `coding_parity` parity buckets.
/// Either, both or neither may apply. A re-laid-out program carries one air
/// schedule for all of them: every physical slot's data slot and parity
/// group, every data slot's airings in start order, and every group's first
/// physical slot. A flat program stores no schedule.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dsi::broadcast {

/// What a bucket carries; lets tests and traces introspect programs.
enum class BucketKind : uint8_t {
  kDsiFrameTable,   ///< One DSI index table (one packet by construction).
  kIndexNode,       ///< A tree index node (R-tree or B+-tree).
  kDataObject,      ///< One spatial data object (1024 bytes).
  kParity,          ///< Erasure-coding parity over a group of data buckets.
};

/// One bucket of the broadcast program.
struct Bucket {
  BucketKind kind = BucketKind::kDataObject;
  uint32_t payload = 0;     ///< Id meaningful to the owning index structure.
  uint32_t size_bytes = 0;  ///< Serialized size; on-air size rounds up.
  uint64_t packets = 0;     ///< Derived: ceil(size_bytes / capacity).
  uint64_t start_packet = 0;  ///< Derived: offset within the cycle.

  bool operator==(const Bucket&) const = default;
};

/// Which transforms laid the cycle out. It rides the packet header (next to
/// the bucket-boundary offset and the generation stamp), so one probe
/// teaches a client the layout; the default is the flat cycle.
struct Layout {
  uint32_t num_disks = 1;      ///< Frequency tiers (1 = every slot airs once).
  uint32_t coding_group = 0;   ///< Buckets per parity group (0 = uncoded).
  uint32_t coding_parity = 0;  ///< Parity buckets closing each group.

  bool operator==(const Layout&) const = default;
};

/// An immutable-after-finalize broadcast cycle description.
class BroadcastProgram {
 public:
  /// The data slot of a parity bucket (it airs no data slot).
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  explicit BroadcastProgram(size_t packet_capacity, Layout layout = {})
      : packet_capacity_(packet_capacity), layout_(layout) {
    assert(packet_capacity_ > 0);
  }

  /// Appends a bucket; returns its physical slot within the cycle. A
  /// re-laid-out program must name the \p data_slot each non-parity bucket
  /// airs; a flat program ignores it (slot i airs data slot i).
  size_t AddBucket(BucketKind kind, uint32_t payload, uint32_t size_bytes,
                   uint32_t data_slot = kNoSlot) {
    assert(!finalized_);
    Bucket b;
    b.kind = kind;
    b.payload = payload;
    b.size_bytes = size_bytes;
    b.packets = (size_bytes + packet_capacity_ - 1) / packet_capacity_;
    if (b.packets == 0) b.packets = 1;
    buckets_.push_back(b);
    if (!flat()) {
      assert((kind == BucketKind::kParity) == (data_slot == kNoSlot));
      air_.push_back(AirSlot{data_slot, 0});
    }
    return buckets_.size() - 1;
  }

  /// Computes packet offsets and, for a re-laid-out program, the air
  /// schedule (parity groups close at the end of each run of parity
  /// buckets); no further AddBucket calls allowed.
  void Finalize();

  bool finalized() const { return finalized_; }
  size_t packet_capacity() const { return packet_capacity_; }
  size_t num_buckets() const { return buckets_.size(); }
  uint64_t cycle_packets() const { return cycle_packets_; }
  uint64_t cycle_bytes() const { return cycle_packets_ * packet_capacity_; }

  /// True when physical slot i airs data slot i (no transform applied).
  bool flat() const { return layout_ == Layout{}; }
  /// True when the cycle interleaves parity buckets.
  bool coded() const { return layout_.coding_group > 0; }
  uint32_t coding_group() const { return layout_.coding_group; }
  uint32_t coding_parity() const { return layout_.coding_parity; }
  /// True when the cycle repeats hot buckets.
  bool multi_disk() const { return layout_.num_disks > 1; }
  uint32_t num_disks() const { return layout_.num_disks; }

  /// Number of DATA slots — the slot space query clients address; equals
  /// num_buckets() for flat programs.
  size_t num_data_buckets() const {
    return flat() ? buckets_.size() : num_data_;
  }
  /// Data slot aired by physical slot \p phys (a non-parity bucket).
  size_t DataSlotOf(size_t phys) const {
    return flat() ? phys : air_[phys].data_slot;
  }
  /// Physical slots airing data slot \p data_slot, in start order; never
  /// empty. Re-laid-out programs only — a flat slot airs at its own index.
  std::span<const uint32_t> AiringsOf(size_t data_slot) const {
    assert(!flat() && data_slot < num_data_);
    return {airings_.data() + airing_begin_[data_slot],
            airing_begin_[data_slot + 1] - airing_begin_[data_slot]};
  }
  /// Parity group of physical slot \p phys (coded programs only).
  size_t GroupOf(size_t phys) const { return air_[phys].group; }
  /// First physical slot of parity group \p group; GroupStart(group + 1)
  /// ends it. A group is its member buckets followed by coding_parity()
  /// parity buckets (coded programs only).
  size_t GroupStart(size_t group) const { return group_start_[group]; }

  const Bucket& bucket(size_t slot) const {
    assert(slot < buckets_.size());
    return buckets_[slot];
  }

  /// Slot of the bucket covering the given cycle-relative packet offset.
  size_t SlotAtPacket(uint64_t cycle_packet) const;

  /// Slot of the first bucket starting at or after the given cycle-relative
  /// packet (wraps to slot 0 past the end of the cycle).
  size_t SlotStartingAtOrAfter(uint64_t cycle_packet) const;

  /// Structural equality: buckets, layout and air schedule.
  bool operator==(const BroadcastProgram&) const = default;

 private:
  struct AirSlot {
    uint32_t data_slot;  // kNoSlot for parity buckets
    uint32_t group;      // parity group (0 when uncoded)

    bool operator==(const AirSlot&) const = default;
  };

  size_t packet_capacity_;
  Layout layout_;
  std::vector<Bucket> buckets_;
  uint64_t cycle_packets_ = 0;
  // Air schedule (empty when flat).
  size_t num_data_ = 0;
  std::vector<AirSlot> air_;              // phys slot -> data slot, group
  std::vector<uint32_t> airing_begin_;    // data slot -> first airings_ index
  std::vector<uint32_t> airings_;         // phys slots grouped by data slot
  std::vector<uint32_t> group_start_;     // group -> first phys slot (+ end)
  uint64_t slot_stride_ = 1;        // packets per stride-table entry
  std::vector<size_t> stride_slot_; // coarse packet -> slot table
  bool finalized_ = false;
};

}  // namespace dsi::broadcast
