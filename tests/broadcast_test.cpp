#include "broadcast/client.hpp"
#include "broadcast/coding.hpp"
#include "broadcast/disks.hpp"
#include "broadcast/program.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "air/disk_layout.hpp"
#include "air/dsi_handle.hpp"
#include "air/exp_handle.hpp"
#include "air/hci_handle.hpp"
#include "air/rtree_handle.hpp"
#include "common/rng.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"

namespace dsi::broadcast {
namespace {

BroadcastProgram MakeSimpleProgram() {
  // Capacity 64: [table 50B = 1 pkt][obj 1024B = 16 pkt][obj][table][obj]
  BroadcastProgram p(64);
  p.AddBucket(BucketKind::kDsiFrameTable, 0, 50);
  p.AddBucket(BucketKind::kDataObject, 0, 1024);
  p.AddBucket(BucketKind::kDataObject, 1, 1024);
  p.AddBucket(BucketKind::kDsiFrameTable, 1, 50);
  p.AddBucket(BucketKind::kDataObject, 2, 1024);
  p.Finalize();
  return p;
}

TEST(BroadcastProgramTest, PacketAccounting) {
  const BroadcastProgram p = MakeSimpleProgram();
  EXPECT_EQ(p.num_buckets(), 5u);
  EXPECT_EQ(p.bucket(0).packets, 1u);
  EXPECT_EQ(p.bucket(1).packets, 16u);
  EXPECT_EQ(p.cycle_packets(), 1u + 16 + 16 + 1 + 16);
  EXPECT_EQ(p.cycle_bytes(), p.cycle_packets() * 64);
  EXPECT_EQ(p.bucket(1).start_packet, 1u);
  EXPECT_EQ(p.bucket(3).start_packet, 33u);
}

TEST(BroadcastProgramTest, ZeroSizeBucketOccupiesOnePacket) {
  BroadcastProgram p(64);
  p.AddBucket(BucketKind::kIndexNode, 0, 0);
  p.Finalize();
  EXPECT_EQ(p.bucket(0).packets, 1u);
}

TEST(BroadcastProgramTest, SlotAtPacket) {
  const BroadcastProgram p = MakeSimpleProgram();
  EXPECT_EQ(p.SlotAtPacket(0), 0u);
  EXPECT_EQ(p.SlotAtPacket(1), 1u);
  EXPECT_EQ(p.SlotAtPacket(16), 1u);
  EXPECT_EQ(p.SlotAtPacket(17), 2u);
  EXPECT_EQ(p.SlotAtPacket(33), 3u);
  EXPECT_EQ(p.SlotAtPacket(34), 4u);
  EXPECT_EQ(p.SlotAtPacket(49), 4u);
}

TEST(BroadcastProgramTest, SlotStartingAtOrAfter) {
  const BroadcastProgram p = MakeSimpleProgram();
  EXPECT_EQ(p.SlotStartingAtOrAfter(0), 0u);
  EXPECT_EQ(p.SlotStartingAtOrAfter(1), 1u);
  EXPECT_EQ(p.SlotStartingAtOrAfter(2), 2u);   // next start >= 2 is slot 2@17
  EXPECT_EQ(p.SlotStartingAtOrAfter(17), 2u);
  EXPECT_EQ(p.SlotStartingAtOrAfter(34), 4u);
  EXPECT_EQ(p.SlotStartingAtOrAfter(35), 0u);  // wraps
}

TEST(ClientSessionTest, InitialProbeCostsOnePacket) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  const Metrics m = s.metrics();
  EXPECT_EQ(m.tuning_bytes, 64u);
  // Tuned in at packet 0 (start of slot 0); after the sync packet the next
  // boundary is slot 1 at packet 1.
  EXPECT_EQ(s.current_slot(), 1u);
  EXPECT_EQ(m.access_latency_bytes, 64u);
}

TEST(ClientSessionTest, ReadBucketAccountsTuningAndLatency) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_TRUE(s.ReadBucket(1));  // 16 packets
  const Metrics m = s.metrics();
  EXPECT_EQ(m.tuning_bytes, (1u + 16u) * 64u);
  EXPECT_EQ(m.access_latency_bytes, 17u * 64u);
  EXPECT_EQ(s.current_slot(), 2u);
}

TEST(ClientSessionTest, DozeCostsLatencyNotTuning) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_TRUE(s.ReadBucket(3));  // doze past slots 1-2, listen to slot 3
  const Metrics m = s.metrics();
  EXPECT_EQ(m.tuning_bytes, (1u + 1u) * 64u);
  EXPECT_EQ(m.access_latency_bytes, 34u * 64u);
}

TEST(ClientSessionTest, ReadBehindWrapsToNextCycle) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  ASSERT_TRUE(s.ReadBucket(3));  // now at slot 4 start (packet 34)
  ASSERT_TRUE(s.ReadBucket(0));  // slot 0 next occurs at packet 50
  EXPECT_EQ(s.now_packets(), 51u);
  EXPECT_EQ(s.current_slot(), 1u);
}

TEST(ClientSessionTest, PacketsUntilZeroAtBoundary) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_EQ(s.PacketsUntil(1), 0u);
  EXPECT_EQ(s.PacketsUntil(3), 32u);
  EXPECT_EQ(s.PacketsUntil(0), 49u);  // wrap
}

TEST(ClientSessionTest, SkipBucketAdvancesWithoutTuning) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  s.SkipBucket();
  EXPECT_EQ(s.current_slot(), 2u);
  EXPECT_EQ(s.metrics().tuning_bytes, 64u);  // probe only
}

TEST(ClientSessionTest, TuneInMidCycle) {
  const BroadcastProgram p = MakeSimpleProgram();
  // Tune in inside slot 1 (packet 5); next boundary is slot 2 at packet 17.
  ClientSession s(p, 5, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_EQ(s.current_slot(), 2u);
  EXPECT_EQ(s.now_packets(), 17u);
}

TEST(ClientSessionTest, TuneInLateWrapsToSlotZero) {
  const BroadcastProgram p = MakeSimpleProgram();
  // Tune in at packet 45 (inside the last bucket); next boundary wraps.
  ClientSession s(p, 45, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_EQ(s.current_slot(), 0u);
  EXPECT_EQ(s.now_packets(), 50u);
}

TEST(ClientSessionTest, TuneInAcrossCycles) {
  const BroadcastProgram p = MakeSimpleProgram();
  // Global packet 123 = cycle offset 23 (inside slot 2, 17..32).
  ClientSession s(p, 123, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_EQ(s.current_slot(), 3u);
  EXPECT_EQ(s.now_packets(), 100u + 33u);
}

TEST(BroadcastProgramTest, SlotStartingAtOrAfterLastPacketAndPastEnd) {
  const BroadcastProgram p = MakeSimpleProgram();
  // Inside the last bucket, including its final packet: wraps to slot 0.
  EXPECT_EQ(p.SlotStartingAtOrAfter(p.cycle_packets() - 1), 0u);
  // At or past the cycle length (callers normalize, but the function is
  // documented to wrap).
  EXPECT_EQ(p.SlotStartingAtOrAfter(p.cycle_packets()), 0u);
  // A bucket boundary exactly on the last packet must NOT wrap.
  BroadcastProgram q(64);
  q.AddBucket(BucketKind::kDataObject, 0, 1024);  // packets 0..15
  q.AddBucket(BucketKind::kDsiFrameTable, 0, 50);  // packet 16 (last)
  q.Finalize();
  ASSERT_EQ(q.cycle_packets(), 17u);
  EXPECT_EQ(q.SlotStartingAtOrAfter(16), 1u);
  EXPECT_EQ(q.SlotStartingAtOrAfter(15), 1u);
}

TEST(ClientSessionTest, TuneInOnLastPacketOfCycle) {
  const BroadcastProgram p = MakeSimpleProgram();
  // Tune in exactly on the cycle's last packet (49): the probe listens to
  // it, and the next bucket boundary is slot 0 of the NEXT cycle, with no
  // extra doze (the probe ends exactly on the boundary).
  ClientSession s(p, p.cycle_packets() - 1, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_EQ(s.current_slot(), 0u);
  EXPECT_EQ(s.now_packets(), p.cycle_packets());
  EXPECT_EQ(s.metrics().access_latency_bytes, 64u);  // one probe packet
  EXPECT_TRUE(s.ReadBucket(0));
  EXPECT_EQ(s.current_slot(), 1u);
}

TEST(ClientSessionTest, TuneInOnLastPacketOfLaterCycle) {
  const BroadcastProgram p = MakeSimpleProgram();
  // Same, several cycles in: global packet 3*50 - 1.
  ClientSession s(p, 3 * p.cycle_packets() - 1, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_EQ(s.current_slot(), 0u);
  EXPECT_EQ(s.now_packets(), 3 * p.cycle_packets());
}

TEST(ClientSessionTest, TuneInOnLastSlotBoundary) {
  BroadcastProgram p(64);
  p.AddBucket(BucketKind::kDataObject, 0, 1024);   // packets 0..15
  p.AddBucket(BucketKind::kDsiFrameTable, 0, 50);  // packet 16 (last)
  p.Finalize();
  // Tune in on packet 15: probe listens to it, the next boundary is the
  // one-packet bucket starting exactly on the last packet of the cycle.
  ClientSession s(p, 15, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_EQ(s.current_slot(), 1u);
  EXPECT_EQ(s.now_packets(), 16u);
  ASSERT_TRUE(s.ReadBucket(1));  // reading it wraps into the next cycle
  EXPECT_EQ(s.current_slot(), 0u);
  EXPECT_EQ(s.now_packets(), 17u);
  EXPECT_EQ(s.PacketsUntil(0), 0u);
}

TEST(ClientSessionTest, PerBucketLossIsChannelDeterministic) {
  const BroadcastProgram p = MakeSimpleProgram();
  const ErrorModel errors{0.5, ErrorMode::kPerBucketLoss};
  // Two sessions with the same rng seed observing the same bucket instances
  // agree on every outcome, regardless of what else they read in between.
  std::vector<bool> a_out, b_out;
  {
    ClientSession a(p, 0, errors, common::Rng(7));
    a.InitialProbe();
    for (int i = 0; i < 40; ++i) a_out.push_back(a.ReadBucket(1));
  }
  {
    ClientSession b(p, 0, errors, common::Rng(7));
    b.InitialProbe();
    b.ReadBucket(3);  // extra read; bucket 1's instances are unaffected
    for (int i = 0; i < 39; ++i) b_out.push_back(b.ReadBucket(1));
  }
  // Session b skipped bucket 1's first instance while reading bucket 3, so
  // its outcomes align with a's from the second instance on.
  for (size_t i = 0; i < b_out.size(); ++i) {
    EXPECT_EQ(b_out[i], a_out[i + 1]) << "instance " << i + 1;
  }
}

TEST(ClientSessionTest, PerBucketLossRetryNextCycleDrawsFreshCoin) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{0.5, ErrorMode::kPerBucketLoss},
                  common::Rng(21));
  s.InitialProbe();
  // Under a fresh coin per cycle, 60 consecutive cycles cannot all lose
  // (probability 2^-60); a read-order-coupled model would livelock here.
  bool got = false;
  for (int i = 0; i < 60 && !got; ++i) got = s.ReadBucket(2);
  EXPECT_TRUE(got);
}

TEST(ClientSessionTest, PerBucketLossRateStatistical) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{0.3, ErrorMode::kPerBucketLoss},
                  common::Rng(42));
  s.InitialProbe();
  int lost = 0;
  const int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    if (!s.ReadBucket(s.current_slot())) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / kTrials, 0.3, 0.04);
}

TEST(ClientSessionTest, LossyChannelStillChargesCosts) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{1.0}, common::Rng(1));
  s.InitialProbe();
  EXPECT_FALSE(s.ReadBucket(1));
  EXPECT_EQ(s.metrics().tuning_bytes, 17u * 64u);
}

TEST(ClientSessionTest, LossRateStatistical) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{0.3}, common::Rng(42));
  s.InitialProbe();
  int lost = 0;
  const int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    if (!s.ReadBucket(s.current_slot())) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / kTrials, 0.3, 0.04);
}

TEST(ClientSessionTest, ThetaZeroNeverLoses) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 7, ErrorModel{0.0}, common::Rng(3));
  s.InitialProbe();
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(s.ReadBucket(s.current_slot()));
  }
}

// ---------------------------------------------------------------------------
// Erasure-coded broadcasts
// ---------------------------------------------------------------------------

TEST(CodedProgramTest, InterleavedShape) {
  // 5 data buckets, groups of 2 + 1 parity: [d0 d1 P][d2 d3 P][d4 P] — the
  // last group is the wrap-around short group (d = 1) and still gets its
  // parity. Parity is padded to the group's largest member (1024 B = 16
  // packets in every group of MakeSimpleProgram).
  const BroadcastProgram p =
      MakeCodedProgram(MakeSimpleProgram(), CodingConfig{2, 1});
  EXPECT_TRUE(p.coded());
  EXPECT_EQ(p.coding_group(), 2u);
  EXPECT_EQ(p.coding_parity(), 1u);
  EXPECT_EQ(p.num_buckets(), 8u);
  EXPECT_EQ(p.num_data_buckets(), 5u);
  const BucketKind kinds[8] = {
      BucketKind::kDsiFrameTable, BucketKind::kDataObject, BucketKind::kParity,
      BucketKind::kDataObject,    BucketKind::kDsiFrameTable,
      BucketKind::kParity,        BucketKind::kDataObject, BucketKind::kParity};
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(p.bucket(i).kind, kinds[i]) << "phys slot " << i;
  }
  EXPECT_EQ(p.bucket(2).packets, 16u);  // padded to max(50 B, 1024 B)
  EXPECT_EQ(p.bucket(5).packets, 16u);
  EXPECT_EQ(p.bucket(7).packets, 16u);
  EXPECT_EQ(p.cycle_packets(), (1u + 16 + 16) + (16 + 1 + 16) + (16 + 16));
}

TEST(CodedProgramTest, DisabledConfigIsIdentity) {
  const BroadcastProgram original = MakeSimpleProgram();
  for (const CodingConfig& off :
       {CodingConfig{}, CodingConfig{2, 0}, CodingConfig{0, 3}}) {
    const BroadcastProgram p = MakeCodedProgram(original, off);
    EXPECT_FALSE(p.coded());
    ASSERT_EQ(p.num_buckets(), original.num_buckets());
    EXPECT_EQ(p.cycle_packets(), original.cycle_packets());
    for (size_t i = 0; i < p.num_buckets(); ++i) {
      EXPECT_EQ(p.bucket(i).kind, original.bucket(i).kind);
      EXPECT_EQ(p.bucket(i).start_packet, original.bucket(i).start_packet);
    }
  }
}

TEST(CodedProgramTest, WrapAroundShortGroupGetsFullParity) {
  // Groups of 4 over 5 data buckets: [d0..d3 P P][d4 P P].
  const BroadcastProgram p =
      MakeCodedProgram(MakeSimpleProgram(), CodingConfig{4, 2});
  EXPECT_EQ(p.num_buckets(), 5u + 2u * 2u);
  EXPECT_EQ(p.bucket(4).kind, BucketKind::kParity);
  EXPECT_EQ(p.bucket(5).kind, BucketKind::kParity);
  EXPECT_EQ(p.bucket(6).kind, BucketKind::kDataObject);
  EXPECT_EQ(p.bucket(7).kind, BucketKind::kParity);
  EXPECT_EQ(p.bucket(8).kind, BucketKind::kParity);
}

TEST(ClientSessionTest, CodedCleanReadsAreExactlyAccounted) {
  // Clean channel: the coded cycle costs only latency (dozing over parity),
  // never tuning, and slot numbers stay in data space. Tune in on the last
  // packet of cycle 0 (97) so the probe parks exactly on data slot 0 of
  // cycle 1 (absolute packet 98) and the whole walk streams one cycle.
  const BroadcastProgram p =
      MakeCodedProgram(MakeSimpleProgram(), CodingConfig{2, 1});
  ASSERT_EQ(p.cycle_packets(), 98u);
  ClientSession s(p, 97, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  for (size_t slot = 0; slot < 5; ++slot) {
    EXPECT_TRUE(s.ReadBucket(slot)) << "slot " << slot;
  }
  const Metrics m = s.metrics();
  EXPECT_EQ(m.repaired, 0u);
  // Probe (1 packet) + the five data buckets (1+16+16+1+16 = 50 packets).
  EXPECT_EQ(m.tuning_bytes, (1u + 50u) * 64u);
  // Slot 4 (phys 6, cycle offset 66..82) ends at absolute 98 + 82 = 180.
  EXPECT_EQ(s.now_packets(), 180u);
  EXPECT_EQ(m.access_latency_bytes, (180u - 97u) * 64u);
}

TEST(ClientSessionTest, CodedSingleLossRepairsWithoutFailing) {
  // Exactly one on-air loss (kSingleEvent, theta = 1): a sequential reader
  // always holds or can still hear d of the group's d+p symbols, so the
  // read repairs transparently — no caller-visible failure, repaired == 1.
  const BroadcastProgram p =
      MakeCodedProgram(MakeSimpleProgram(), CodingConfig{2, 1});
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ClientSession s(p, seed * 7, ErrorModel{1.0, ErrorMode::kSingleEvent},
                    common::Rng(seed));
    s.InitialProbe();
    int failures = 0;
    for (int i = 0; i < 200; ++i) {
      if (!s.ReadBucket(s.current_slot())) ++failures;
    }
    EXPECT_EQ(failures, 0) << "seed " << seed;
    EXPECT_EQ(s.metrics().repaired, 1u) << "seed " << seed;
  }
}

TEST(ClientSessionTest, CodedBufferServesRereadsFree) {
  // Symbols heard in the current group/occurrence are an in-memory copy: a
  // re-read costs no airtime and no clock movement at all.
  const BroadcastProgram p =
      MakeCodedProgram(MakeSimpleProgram(), CodingConfig{2, 1});
  ClientSession s(p, 97, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  ASSERT_TRUE(s.ReadBucket(0));
  ASSERT_TRUE(s.ReadBucket(1));
  const uint64_t tuning = s.metrics().tuning_bytes;
  const uint64_t now = s.now_packets();
  EXPECT_TRUE(s.ReadBucket(0));  // same group, same occurrence: buffered
  EXPECT_EQ(s.metrics().tuning_bytes, tuning);
  EXPECT_EQ(s.now_packets(), now);
  EXPECT_TRUE(s.ReadBucket(2));  // next group: back on the radio
  EXPECT_GT(s.metrics().tuning_bytes, tuning);
}

TEST(ClientSessionTest, CodedPerBucketLossSharedChannelWithColdFork) {
  // kPerBucketLoss coins belong to the channel: a cold fork tuning in at
  // the same instant and issuing the same reads sees the same losses and
  // performs the same repairs, coded or not.
  const BroadcastProgram p =
      MakeCodedProgram(MakeSimpleProgram(), CodingConfig{2, 2});
  ClientSession warm(p, 3, ErrorModel{0.5, ErrorMode::kPerBucketLoss},
                     common::Rng(11));
  warm.InitialProbe();
  ClientSession cold = warm.ForkColdSession(3, common::Rng(99));
  cold.InitialProbe();
  for (int i = 0; i < 120; ++i) {
    const size_t slot = warm.current_slot();
    ASSERT_EQ(cold.current_slot(), slot) << "read " << i;
    EXPECT_EQ(warm.ReadBucket(slot), cold.ReadBucket(slot)) << "read " << i;
    ASSERT_EQ(warm.now_packets(), cold.now_packets()) << "read " << i;
  }
  EXPECT_EQ(warm.metrics().repaired, cold.metrics().repaired);
  EXPECT_GT(warm.metrics().repaired, 0u);
  EXPECT_EQ(warm.metrics().tuning_bytes, cold.metrics().tuning_bytes);
}

TEST(ClientSessionTest, CodedRepairChargesExactBytes) {
  // Every repair listen is charged like an ordinary listen: tuning equals
  // listened packets times capacity, with no untracked airtime.
  const BroadcastProgram p =
      MakeCodedProgram(MakeSimpleProgram(), CodingConfig{2, 1});
  ClientSession s(p, 0, ErrorModel{0.5, ErrorMode::kPerBucketLoss},
                  common::Rng(5));
  s.InitialProbe();
  std::vector<TraceEvent> trace;
  s.set_trace(&trace);
  const uint64_t tuning_before = s.metrics().tuning_bytes;
  for (int i = 0; i < 200; ++i) s.ReadBucket(s.current_slot());
  uint64_t listened = 0;
  for (const TraceEvent& e : trace) {
    if (e.kind == TraceEvent::Kind::kListen ||
        e.kind == TraceEvent::Kind::kRepair) {
      listened += e.end_packet - e.start_packet;
    }
  }
  EXPECT_EQ(s.metrics().tuning_bytes - tuning_before,
            listened * p.packet_capacity());
  EXPECT_GT(s.metrics().repaired, 0u);
}

// ---------------------------------------------------------------------------
// Multi-disk (Broadcast Disks) cycle layout
// ---------------------------------------------------------------------------

/// Seven one-packet buckets, payloads 0..6 — small enough to pin the
/// chunked schedule by hand.
BroadcastProgram MakeSevenSlots() {
  BroadcastProgram p(64);
  for (uint32_t i = 0; i < 7; ++i) {
    p.AddBucket(BucketKind::kDataObject, i, 64);
  }
  p.Finalize();
  return p;
}

TEST(MultiDiskProgramTest, SingleDiskIsIdentity) {
  const BroadcastProgram flat = MakeSimpleProgram();
  const std::vector<double> weights = {5.0, 1.0, 9.0, 2.0, 3.0};
  const BroadcastProgram p = MakeMultiDiskProgram(flat, 1, weights);
  EXPECT_FALSE(p.multi_disk());
  ASSERT_EQ(p.num_buckets(), flat.num_buckets());
  EXPECT_EQ(p.cycle_packets(), flat.cycle_packets());
  for (size_t i = 0; i < p.num_buckets(); ++i) {
    EXPECT_EQ(p.bucket(i).kind, flat.bucket(i).kind);
    EXPECT_EQ(p.bucket(i).payload, flat.bucket(i).payload);
    EXPECT_EQ(p.bucket(i).start_packet, flat.bucket(i).start_packet);
    EXPECT_EQ(p.DataSlotOf(i), i);
  }
}

TEST(MultiDiskProgramTest, TwoDiskChunkedShape) {
  // Slots 2 and 5 are hot. K = 2 puts the hottest third of the airtime
  // (2 of 7 packets) on disk 0, aired every minor cycle; the cold 5 slots
  // split into two chunks. Within each disk, slots return to flat order:
  //   minor 0: [2 5 | 0 1]   minor 1: [2 5 | 3 4 6]
  std::vector<double> weights(7, 1.0);
  weights[2] = weights[5] = 10.0;
  const BroadcastProgram p = MakeMultiDiskProgram(MakeSevenSlots(), 2, weights);
  EXPECT_TRUE(p.multi_disk());
  EXPECT_EQ(p.num_disks(), 2u);
  EXPECT_EQ(p.num_data_buckets(), 7u);
  ASSERT_EQ(p.num_buckets(), 9u);  // 4/3 expansion: 7 data packets -> 9
  const uint32_t phys_payload[9] = {2, 5, 0, 1, 2, 5, 3, 4, 6};
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(p.bucket(i).payload, phys_payload[i]) << "phys " << i;
    EXPECT_EQ(p.DataSlotOf(i), phys_payload[i]) << "phys " << i;
  }
  // Hot slots air twice per major cycle, cold ones once.
  for (uint32_t slot = 0; slot < 7; ++slot) {
    EXPECT_EQ(p.AiringsOf(slot).size(), (slot == 2 || slot == 5) ? 2u : 1u);
  }
}

TEST(MultiDiskProgramTest, ThreeDiskFrequenciesAndExpansion) {
  // Equal weights keep flat order; 14 one-packet slots split 2/4/8 across
  // the three disks (airtime shares 1/7, 2/7, 4/7), aired 4x/2x/1x over a
  // 4-minor major cycle — the classic 12/7 expansion.
  BroadcastProgram flat(64);
  for (uint32_t i = 0; i < 14; ++i) {
    flat.AddBucket(BucketKind::kDataObject, i, 64);
  }
  flat.Finalize();
  const BroadcastProgram p =
      MakeMultiDiskProgram(flat, 3, std::vector<double>(14, 1.0));
  EXPECT_EQ(p.num_disks(), 3u);
  EXPECT_EQ(p.num_data_buckets(), 14u);
  EXPECT_EQ(p.cycle_packets(), 24u);  // 14 * 12/7
  const size_t airings_by_disk[3] = {4, 2, 1};
  for (uint32_t slot = 0; slot < 14; ++slot) {
    const size_t disk = slot < 2 ? 0 : slot < 6 ? 1 : 2;
    EXPECT_EQ(p.AiringsOf(slot).size(), airings_by_disk[disk])
        << "slot " << slot;
  }
}

TEST(ClientSessionTest, MultiDiskReadsResolveToNearestAiring) {
  // On the two-disk program above, data slot 2 airs at packets 0 and 4 of
  // the 9-packet cycle. A client parked at packet 3 reaches it in one
  // packet (the repetition), not a near-full cycle as on the flat layout.
  std::vector<double> weights(7, 1.0);
  weights[2] = weights[5] = 10.0;
  const BroadcastProgram p = MakeMultiDiskProgram(MakeSevenSlots(), 2, weights);
  ClientSession s(p, 2, ErrorModel{}, common::Rng(1));
  s.InitialProbe();  // tuned at packet 2, parked at packet 3
  EXPECT_EQ(s.PacketsUntil(2), 1u);
  ASSERT_TRUE(s.ReadBucket(2));
  EXPECT_EQ(s.now_packets(), 5u);
  // Next airing of slot 2 wraps to packet 0 of the next major cycle.
  EXPECT_EQ(s.PacketsUntil(2), 4u);
  ASSERT_TRUE(s.ReadBucket(2));
  EXPECT_EQ(s.now_packets(), 10u);
}

// ---------------------------------------------------------------------------
// Soonest-airing walk against the brute-force argmin of PacketsUntil
// ---------------------------------------------------------------------------

/// Checks SoonestAiring(kind, keep) where \p s stands against the argmin of
/// PacketsUntil over the data slots of \p kind that pass \p keep: the first
/// slot on ties, nullopt when none qualifies.
void ExpectSoonestAiring(const BroadcastProgram& p, const ClientSession& s,
                         BucketKind kind,
                         const std::function<bool(size_t)>& keep,
                         const std::string& what) {
  std::optional<size_t> want;
  uint64_t best = UINT64_MAX;
  for (size_t slot = 0; slot < p.num_data_buckets(); ++slot) {
    const size_t phys = p.flat() ? slot : p.AiringsOf(slot).front();
    if (p.bucket(phys).kind != kind || !keep(slot)) continue;
    const uint64_t wait = s.PacketsUntil(slot);
    if (wait < best) {
      best = wait;
      want = slot;
    }
  }
  ASSERT_EQ(s.SoonestAiring(kind, keep), want)
      << what << " kind " << static_cast<int>(kind) << " at packet "
      << s.now_packets();
}

TEST(ClientSessionTest, SoonestAiringIsTheBruteForceArgmin) {
  // Fourteen buckets of mixed kinds and airtimes (1 to 7 packets), so the
  // kind filter and uneven disk shares both show.
  BroadcastProgram mixed(64);
  const BucketKind kinds[] = {BucketKind::kDsiFrameTable,
                              BucketKind::kIndexNode, BucketKind::kDataObject};
  for (uint32_t i = 0; i < 14; ++i) {
    mixed.AddBucket(kinds[i % 3], i, 50 + 97 * (i % 5));
  }
  mixed.Finalize();
  std::vector<double> hot7(7, 1.0);
  hot7[2] = hot7[5] = 10.0;
  std::vector<double> skew14(14);
  for (size_t i = 0; i < 14; ++i) skew14[i] = static_cast<double>(i * 5 % 14);
  const CodingConfig coding{2, 1};
  const std::pair<const char*, BroadcastProgram> programs[] = {
      {"flat", MakeSimpleProgram()},
      {"coded", MakeCodedProgram(MakeSimpleProgram(), coding)},
      {"2-disk", MakeMultiDiskProgram(MakeSevenSlots(), 2, hot7)},
      {"3-disk", MakeMultiDiskProgram(mixed, 3, skew14)},
      {"coded 2-disk",
       MakeCodedProgram(MakeMultiDiskProgram(MakeSevenSlots(), 2, hot7),
                        coding)},
      {"coded 3-disk",
       MakeCodedProgram(MakeMultiDiskProgram(mixed, 3, skew14), coding)}};
  // A keep that rejects everything expects nullopt; on the coded cycles
  // the walk passes parity buckets, which match no data kind.
  const std::function<bool(size_t)> keeps[] = {
      [](size_t) { return true; },
      [](size_t) { return false; },
      [](size_t slot) { return slot % 2 == 1; },
      [](size_t slot) { return slot % 3 == 1; },
      [](size_t slot) { return slot == 6; }};
  for (const auto& [name, p] : programs) {
    auto check = [&](const ClientSession& s) {
      for (const BucketKind kind : kinds) {
        for (const auto& keep : keeps) {
          ExpectSoonestAiring(p, s, kind, keep, name);
        }
      }
    };
    // Every tune-in packet of one cycle, where the probe parks, then the
    // boundaries a read of the parked slot and a read of slot 0 end on.
    for (uint64_t tune_in = 0; tune_in < p.cycle_packets(); ++tune_in) {
      ClientSession s(p, tune_in, ErrorModel{}, common::Rng(1));
      s.InitialProbe();
      check(s);
      ASSERT_TRUE(s.ReadBucket(s.current_slot()));
      check(s);
      ASSERT_TRUE(s.ReadBucket(0));
      check(s);
    }
  }
}

// ---------------------------------------------------------------------------
// Coded multi-disk cycles: parity groups over the disk stream
// ---------------------------------------------------------------------------

TEST(CodedDiskProgramTest, ParityGroupsCutThePhysicalDiskStream) {
  // Coding the two-disk cycle above in groups of 2: the disk stream
  // [2 5 0 1 2 5 3 4 6] becomes [2 5 P][0 1 P][2 5 P][3 4 P][6 P]. Both
  // repetitions of a hot slot keep their data slot; each airing belongs to
  // its own group.
  std::vector<double> weights(7, 1.0);
  weights[2] = weights[5] = 10.0;
  const BroadcastProgram p = MakeCodedProgram(
      MakeMultiDiskProgram(MakeSevenSlots(), 2, weights), CodingConfig{2, 1});
  EXPECT_TRUE(p.coded());
  EXPECT_TRUE(p.multi_disk());
  EXPECT_EQ(p.num_disks(), 2u);
  EXPECT_EQ(p.num_data_buckets(), 7u);
  ASSERT_EQ(p.num_buckets(), 14u);
  const uint32_t data_of[14] = {2, 5, BroadcastProgram::kNoSlot,
                                0, 1, BroadcastProgram::kNoSlot,
                                2, 5, BroadcastProgram::kNoSlot,
                                3, 4, BroadcastProgram::kNoSlot,
                                6, BroadcastProgram::kNoSlot};
  for (size_t i = 0; i < 14; ++i) {
    const bool parity = data_of[i] == BroadcastProgram::kNoSlot;
    EXPECT_EQ(p.bucket(i).kind == BucketKind::kParity, parity) << "phys " << i;
    if (!parity) EXPECT_EQ(p.DataSlotOf(i), data_of[i]) << "phys " << i;
    EXPECT_EQ(p.GroupOf(i), i / 3) << "phys " << i;
  }
  for (size_t g = 0; g <= 4; ++g) EXPECT_EQ(p.GroupStart(g), g * 3);
  EXPECT_EQ(p.GroupStart(5), 14u);  // short wrap-around group [6 P]
  const std::vector<uint32_t> hot(p.AiringsOf(2).begin(),
                                  p.AiringsOf(2).end());
  EXPECT_EQ(hot, (std::vector<uint32_t>{0, 6}));
}

TEST(ClientSessionTest, CodedDiskSingleLossRepairsWithoutFailing) {
  // The coded-broadcast repair guarantee carries over to a coded
  // multi-disk cycle: a reader following the air from a group boundary
  // always holds or can still hear d of a group's d+p physical airings, so
  // one on-air loss is reconstructed whichever repetition it hit.
  std::vector<double> weights(7, 1.0);
  weights[2] = weights[5] = 10.0;
  const BroadcastProgram p = MakeCodedProgram(
      MakeMultiDiskProgram(MakeSevenSlots(), 2, weights), CodingConfig{2, 1});
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    // Tune in on a cycle's last packet: the probe parks on physical slot 0.
    ClientSession s(p, seed * p.cycle_packets() - 1,
                    ErrorModel{1.0, ErrorMode::kSingleEvent},
                    common::Rng(seed));
    s.InitialProbe();
    int failures = 0;
    for (int i = 0; i < 100; ++i) {
      // The data slot of the next data bucket on air.
      size_t phys =
          p.SlotStartingAtOrAfter(s.now_packets() % p.cycle_packets());
      while (p.bucket(phys).kind == BucketKind::kParity) {
        phys = (phys + 1) % p.num_buckets();
      }
      if (!s.ReadBucket(p.DataSlotOf(phys))) ++failures;
    }
    EXPECT_EQ(failures, 0) << "seed " << seed;
    EXPECT_EQ(s.metrics().repaired, 1u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// One air schedule: nearest-airing lookup against brute force
// ---------------------------------------------------------------------------

/// Checks the session's view of \p p where it stands: every non-parity
/// physical bucket carries exactly the flat bucket of the data slot it
/// claims, and PacketsUntil(s) is the minimum wait over every physical
/// slot airing data slot s.
void ExpectNearestAirings(const BroadcastProgram& flat,
                          const BroadcastProgram& p, const ClientSession& s,
                          const std::string& what) {
  const uint64_t cycle = p.cycle_packets();
  const uint64_t pos = s.now_packets() % cycle;
  std::vector<uint64_t> best(p.num_data_buckets(), UINT64_MAX);
  for (size_t phys = 0; phys < p.num_buckets(); ++phys) {
    const Bucket& b = p.bucket(phys);
    if (b.kind == BucketKind::kParity) continue;
    const size_t slot = p.DataSlotOf(phys);
    ASSERT_LT(slot, best.size()) << what << " phys " << phys;
    const Bucket& want = flat.bucket(slot);
    ASSERT_TRUE(b.kind == want.kind && b.payload == want.payload &&
                b.size_bytes == want.size_bytes)
        << what << " phys " << phys << " does not air data slot " << slot;
    best[slot] = std::min(best[slot], (b.start_packet + cycle - pos) % cycle);
  }
  for (size_t slot = 0; slot < best.size(); ++slot) {
    ASSERT_NE(best[slot], UINT64_MAX) << what << " slot " << slot;
    ASSERT_EQ(s.PacketsUntil(slot), best[slot])
        << what << " slot " << slot << " at cycle packet " << pos;
  }
}

TEST(AirScheduleTest, PacketsUntilIsTheNearestAiringForEveryLayout) {
  // Every family's program, flat and under each layout the engine airs.
  // The session is tuned in at every packet offset of one cycle and
  // checked where the probe parks it (every data-bucket boundary) and after
  // one read (every boundary a read ends on — parity starts included).
  const auto objects =
      datasets::MakeUniform(24, datasets::UnitUniverse(), 19);
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 6);
  const core::DsiIndex dsi(objects, mapper, 64, core::DsiConfig{});
  const rtree::RtreeIndex rtree(objects, 64);
  const hci::HciIndex hci(objects, mapper, 64);
  const air::DsiHandle dsi_air(dsi);
  const air::RtreeHandle rtree_air(rtree);
  const air::HciHandle hci_air(hci);
  const air::ExpHandle exp_air(objects, mapper, 64);
  const DiskConfig disks{3, 1.2, 8, 5};
  const CodingConfig coding{2, 1};
  for (const air::AirIndexHandle* h :
       {static_cast<const air::AirIndexHandle*>(&dsi_air),
        static_cast<const air::AirIndexHandle*>(&rtree_air),
        static_cast<const air::AirIndexHandle*>(&hci_air),
        static_cast<const air::AirIndexHandle*>(&exp_air)}) {
    const BroadcastProgram& flat = h->program();
    const std::pair<const char*, BroadcastProgram> layouts[] = {
        {"flat", flat},
        {"coded", *air::OnAirProgram(*h, DiskConfig{}, coding)},
        {"3-disk", *air::OnAirProgram(*h, disks, CodingConfig{})},
        {"coded 3-disk", *air::OnAirProgram(*h, disks, coding)}};
    for (const auto& [name, p] : layouts) {
      const std::string what = std::string(h->family()) + " " + name;
      EXPECT_EQ(p.num_data_buckets(), flat.num_buckets()) << what;
      for (uint64_t tune_in = 0; tune_in < p.cycle_packets(); ++tune_in) {
        ClientSession s(p, tune_in, ErrorModel{}, common::Rng(1));
        s.InitialProbe();
        ExpectNearestAirings(flat, p, s, what);
        ASSERT_TRUE(s.ReadBucket(s.current_slot()));
        ExpectNearestAirings(flat, p, s, what);
      }
    }
  }
}

}  // namespace
}  // namespace dsi::broadcast
