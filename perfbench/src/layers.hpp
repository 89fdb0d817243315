#pragma once

/// \file layers.hpp
/// \brief Per-layer measurements of traced runs. Every layer is timed from
/// outside the library by timing the calls into it; re-timings of a layer
/// on a query's own input (decomposition, PacketsUntil, frame codec) are
/// measured next to the query, not as self time inside the client.

#include <array>
#include <cstdint>
#include <vector>

#include "broadcast/client.hpp"
#include "common.hpp"
#include "transport/live_source.hpp"

namespace pb {

/// Per-family accumulators of the traced per-query loop.
struct ClientTrace {
  std::vector<double> query_us;  // client.query spans
  std::vector<double> make_arena_ns;
  std::vector<double> make_heap_ns;
  double query_s = 0.0;  // summed client.query time
  double reads = 0.0;    // index_reads + object_reads
  uint64_t queries = 0;
  // Radio-trace counts over the run's fixed prefix of queries (see
  // kExactRounds), so they are a function of the seed alone.
  uint64_t counted = 0;  // queries counted
  uint64_t listens = 0;  // kListen events
  uint64_t lost = 0;     // lost kListen events
  uint64_t repairs = 0;  // kRepair events
  // Overhead: make + query time per query with tracing on vs off, same
  // loop (medians, so a rare pathological query cannot swing it).
  std::vector<double> traced_us;
  std::vector<double> untraced_us;
};

/// Traced loops alternate traced and untraced rounds; the session.* counts
/// cover the traced rounds among the first kExactRounds, a prefix every run
/// completes, which makes them exact (perf work must not move them).
inline constexpr size_t kExactRounds = 16;

/// Counts listen/lost/repair episodes of one query's radio trace.
void CountEvents(const std::vector<broadcast::TraceEvent>& events,
                 ClientTrace* t);

/// Re-times ClientSession::PacketsUntil on the slots a query listened to
/// (its kListen events), from the session's final position. Returns the
/// summed results for the caller to keep observable.
uint64_t RetimePacketsUntil(const broadcast::ClientSession& session,
                            const std::vector<broadcast::TraceEvent>& events);

/// Times MakeClientIn (arena) against MakeClient (heap) on fresh sessions
/// over each handle's program; fills the make_*_ns samples of \p traces.
void MeasureMakeClient(
    const std::array<const air::AirIndexHandle*, kNumFamilies>& handles,
    uint64_t seed, std::array<ClientTrace, kNumFamilies>* traces);

/// client.*, session.*, air.make_client_ns.* and trace.overhead_frac.*.
void EmitClientMetrics(const std::array<ClientTrace, kNumFamilies>& t,
                       MetricMap* m);

/// build.* and datasets.generate_s from set-up bookkeeping.
void EmitBuildMetrics(const BuildStats& build, double objects,
                      double generate_s, double republish_s, MetricMap* m);

/// Inputs for the layer re-timings every workload reports.
struct LayerInputs {
  std::array<const air::AirIndexHandle*, kNumFamilies> handles{};  // flat
  const hilbert::SpaceMapper* mapper = nullptr;
  std::vector<common::Rect> windows;
  std::vector<common::Point> points;
  std::vector<double> radii;  // oracle k-th distance around each point
  uint64_t seed = 0;
};

/// hilbert.*, broadcast.disk_layout_s / coded_program_s /
/// packets_until_ns.*, sim.calendar_ns_per_event over \p wakes, and the
/// RunOptions::scheduled evidence (sim.scheduled_qps_ratio.*).
void MeasureCommonLayers(const LayerInputs& in,
                         const std::vector<uint64_t>& wakes, MetricMap* m);

/// sim.pool_speedup for one-shot clients: RunWorkload over \p windows at
/// 2 workers against 1 worker, all four families.
double OneShotPoolSpeedup(const LayerInputs& in);

/// build.republish_s for a static workload: DsiIndex::Republish of a 1%
/// update stream plus full rebuilds of the other three families.
double MeasureRepublish(const FamilySet& fams,
                        const std::vector<datasets::SpatialObject>& objects,
                        uint64_t seed);

/// wire.* and transport.* from a small in-process live broadcast (the live
/// workload's recipe, one DSI connection): the only way a simulated
/// workload reaches those layers.
void MeasureLiveCompanion(const RunConfig& cfg, MetricMap* m, Gate* gate);

/// wire.bucket_content_ns / bucket_frame_encode_ns / decode_ns over random
/// physical slots of \p source's generation 0.
void MeasureWire(const transport::LiveSource& source, uint64_t seed,
                 MetricMap* m);

}  // namespace pb
