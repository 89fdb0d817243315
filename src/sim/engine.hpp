#pragma once

/// \file engine.hpp
/// \brief Internals shared by the one-shot engine (runner.hpp) and the
/// trajectory engine (trajectory.hpp): what the server airs, how a fresh
/// client answers across republications, and how results are captured.
/// Not part of the public API.
///
/// Both engines run over a broadcast::GenerationSchedule. A static
/// broadcast is the one-generation schedule ({&index}, {1}): one cycle of
/// tune-in horizon and no republication ever, byte-identical to a session
/// over the single program.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "air/air_index.hpp"
#include "broadcast/client.hpp"
#include "broadcast/coding.hpp"
#include "broadcast/disks.hpp"
#include "broadcast/generation.hpp"
#include "sim/runner.hpp"

namespace dsi::sim::detail {

/// The generations of one run as they go on air: each one re-laid-out
/// independently under the run's server layouts (air::OnAirProgram; parity
/// groups and disk schedules die with their generation) and appended to
/// one schedule. Generations with both layouts disabled air the handle's
/// own program by reference. Owns the re-laid programs the schedule points
/// into, so it is neither copied nor moved.
class OnAirSchedule {
 public:
  OnAirSchedule(const std::vector<const air::AirIndexHandle*>& generations,
                const std::vector<uint64_t>& cycles,
                const broadcast::DiskConfig& disks,
                const broadcast::CodingConfig& coding);
  OnAirSchedule(const OnAirSchedule&) = delete;
  OnAirSchedule& operator=(const OnAirSchedule&) = delete;

  /// False when some generation's program is empty: there is no packet to
  /// tune into, and the schedule is left empty.
  bool airs() const { return schedule_.num_generations() > 0; }
  const broadcast::GenerationSchedule& schedule() const { return schedule_; }

 private:
  std::vector<std::optional<broadcast::BroadcastProgram>> relaid_;
  broadcast::GenerationSchedule schedule_;
};

/// What a fresh client answered, and how many republications it restarted
/// across on the way.
struct FreshAnswer {
  std::vector<datasets::SpatialObject> objects;
  bool completed = true;
  size_t restarts = 0;
};

/// One fresh client's query on \p session, the one stale-restart loop of
/// both engines: probe, build the client (into \p arena) for the generation
/// on air, and when the broadcast is republished mid-query (ClientStats::
/// stale) discard everything it learned and re-run on a client for the new
/// generation — same session, so latency keeps counting from the original
/// tune-in. The probe comes first because it may itself park past a
/// republication instant (family clients re-probe idempotently).
/// Generations strictly advance, so the loop runs at most once per
/// generation. \p query runs the query on a client and returns its answer.
template <typename Query>
FreshAnswer RunFresh(
    const std::vector<const air::AirIndexHandle*>& generations,
    broadcast::ClientSession& session, air::ClientArena& arena,
    Query&& query) {
  session.InitialProbe();
  FreshAnswer out;
  while (true) {
    const uint64_t gen = session.generation();
    air::AirClient* client = generations[gen]->MakeClientIn(arena, &session);
    out.objects = query(*client);
    const air::ClientStats st = client->stats();
    if (!st.stale) {
      out.completed = st.completed;
      return out;
    }
    assert(session.generation() > gen);
    ++out.restarts;
  }
}

/// Captures one answered query into \p out: ids sorted, kNN distance
/// multiset from \p query_point (ignored for windows), flags and byte
/// metrics. The ONE result-capture routine of both engines — the
/// conformance oracles compare these fields, so the capture rules must be
/// identical everywhere.
void CaptureResult(QueryKind kind, const common::Point& query_point,
                   const std::vector<datasets::SpatialObject>& answer,
                   bool completed, uint64_t generation, size_t restarts,
                   uint64_t latency_bytes, uint64_t tuning_bytes,
                   uint64_t repaired, QueryResult* out);

}  // namespace dsi::sim::detail
