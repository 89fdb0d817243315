#pragma once

/// \file runner.hpp
/// \brief The experiment engine: executes a Workload against any air index
/// through the AirIndexHandle abstraction, with uniformly random tune-in
/// instants, and averages the two paper metrics (access latency and tuning
/// time, in bytes).
///
/// One query = one mobile client tuning in: every query gets a fresh
/// ClientSession and AirClient (the latter built into a per-worker arena so
/// back-to-back queries recycle storage). Queries are sharded across a
/// persistent worker pool (threads parked between calls); randomness is
/// forked per query INDEX (not per iteration order), and metrics accumulate
/// in exact integer sums, so the averaged results are bit-identical for any
/// worker count and fully determined by (workload, seed).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "air/air_index.hpp"
#include "broadcast/coding.hpp"
#include "broadcast/disks.hpp"
#include "sim/workload.hpp"

namespace dsi::sim {

/// The answer one query produced, captured when RunOptions::results is set.
/// Conformance harnesses compare these against brute-force oracles; the
/// byte metrics deliberately stay separate (they are averages, results are
/// per query).
struct QueryResult {
  std::vector<uint32_t> ids;  ///< Object ids of the result set, sorted.
  /// kKnn only: distances from the query point, sorted ascending. Oracle
  /// comparisons use these (ids may legitimately differ under ties).
  std::vector<double> knn_distances;
  bool completed = true;  ///< False if the watchdog aborted the query.
  /// The broadcast generation this result answers for: the one the client
  /// was synchronized to when it finished (= live at its last (re)tune-in).
  /// Always 0 for static runs; generation-aware oracles check the result
  /// against the object set of THIS generation.
  uint64_t generation = 0;
  /// Republications the query observed mid-flight (each one invalidated
  /// all learned state and restarted the search on the new layout).
  size_t restarts = 0;
  /// This query's own byte metrics (the aggregate averages are separate).
  /// For trajectory steps these are the step's deltas, so per-query
  /// invariants (tuning <= latency) can be audited at every query, not
  /// just on averages.
  uint64_t latency_bytes = 0;
  uint64_t tuning_bytes = 0;
  /// Lost bucket reads this query recovered from parity instead of a
  /// next-cycle retry (coded broadcasts only; always 0 uncoded).
  uint64_t repaired = 0;
};

/// Averaged byte metrics over a workload.
struct AvgMetrics {
  double latency_bytes = 0.0;
  double tuning_bytes = 0.0;
  size_t queries = 0;
  size_t incomplete = 0;  ///< Watchdog-aborted queries (extreme loss only).
  /// Queries that straddled at least one republication instant and had to
  /// restart on a new generation (generational runs only).
  size_t restarted = 0;
  /// TOTAL parity repairs across all queries (not an average): lost reads
  /// recovered in place from the erasure code. Exact-accounting invariant,
  /// audited by the conformance oracle: equals the sum of the per-query
  /// QueryResult::repaired counters, and is 0 when coding is disabled.
  size_t repaired = 0;

  /// Relative deterioration of this run versus a lossless baseline, in
  /// percent (Table 1's quantity).
  static double DeteriorationPct(double lossy, double clean) {
    return clean == 0.0 ? 0.0 : (lossy - clean) / clean * 100.0;
  }
};

/// Execution knobs of one run. The seed drives tune-in instants and error
/// streams; workers only changes wall-clock time, never the result.
struct RunOptions {
  uint64_t seed = 0;
  /// Worker threads to shard queries over; 0 = one per hardware thread.
  size_t workers = 1;
  /// When set, resized to the workload size and filled with the per-query
  /// result sets (entry i belongs to query i regardless of worker count).
  std::vector<QueryResult>* results = nullptr;
  /// Server-side erasure coding of the on-air cycle. Disabled by default;
  /// when enabled every query listens to the coded program (parity buckets
  /// interleaved per group) and lost reads repair in place. Disabled runs
  /// are byte-identical to a build without the coding layer.
  broadcast::CodingConfig coding;
  /// Server-side multi-disk (Broadcast-Disks) layout of the on-air cycle
  /// (air/disk_layout.hpp): buckets binned by Zipf region popularity into
  /// frequency tiers, hot tiers airing 2-4x per cycle, every read resolved
  /// to the nearest upcoming repetition. Disabled runs take the index's own
  /// program by reference — byte-identical to a build without the layer.
  /// Combines with coding: the disk layout applies first and the parity
  /// interleave groups its physical stream (air::OnAirProgram).
  broadcast::DiskConfig disks;
  /// Event-driven execution order (sim/scheduler.hpp): each query is a
  /// one-shot client whose single wake is its tune-in packet, and every
  /// shard processes its queries through a calendar queue in wake order —
  /// the channel timeline, not the workload array, drives execution.
  /// Queries are independent clients with index-forked randomness, so this
  /// is a pure reordering: metrics and results are bit-identical to the
  /// default path for any worker count (tests/scheduler_test.cpp).
  bool scheduled = false;
};

/// Runs every query of \p workload against \p index and averages the
/// session metrics. Returns a zeroed AvgMetrics for an empty workload or an
/// empty broadcast program (nothing on air to tune into).
AvgMetrics RunWorkload(const air::AirIndexHandle& index,
                       const Workload& workload,
                       const RunOptions& options = {});

/// One index family across broadcast generations: handle g serves the
/// republished content after the g-th update batch. All handles must be
/// the same family over the same channel (equal packet capacity).
struct GenerationalIndex {
  /// Per-generation handles (non-owning); at least one.
  std::vector<const air::AirIndexHandle*> generations;
  /// Airtime of each generation in its own broadcast cycles (>= 1). Entry
  /// g < last bounds when generation g+1 takes over; the LAST generation
  /// airs forever so in-flight queries always finish — its entry only
  /// widens the uniform tune-in horizon.
  std::vector<uint64_t> cycles;
};

/// The dynamic-broadcast experiment: like RunWorkload, but tune-in instants
/// are uniform over the whole generational horizon, so queries straddle
/// republication instants. A query that observes a generation switch
/// (stale read) discards everything it learned and restarts against the
/// new generation's handle on the SAME session — latency keeps counting
/// from the original tune-in, exactly what a long-lived client pays.
/// QueryResult::generation records which object set each answer reflects.
/// Returns zeroed metrics for an empty workload or if any generation's
/// program is empty.
AvgMetrics GenerationalRun(const GenerationalIndex& index,
                           const Workload& workload,
                           const RunOptions& options = {});

namespace detail {

/// Captures one answered query into \p out: ids sorted, kNN distance
/// multiset from \p query_point (ignored for windows), flags and byte
/// metrics. The ONE result-capture routine, shared by RunWorkload,
/// GenerationalRun and RunTrajectories — the conformance oracles compare
/// these fields, so the capture rules must be identical everywhere.
void CaptureResult(QueryKind kind, const common::Point& query_point,
                   const std::vector<datasets::SpatialObject>& answer,
                   bool completed, uint64_t generation, size_t restarts,
                   uint64_t latency_bytes, uint64_t tuning_bytes,
                   uint64_t repaired, QueryResult* out);

}  // namespace detail

}  // namespace dsi::sim
