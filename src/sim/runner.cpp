#include "sim/runner.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "air/disk_layout.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/seed_mix.hpp"
#include "sim/worker_pool.hpp"
#include "transport/transport.hpp"

namespace dsi::sim {

namespace {

/// Exact per-shard sums. Latency/tuning are integer byte counts, so shard
/// merges are associative — no floating-point order sensitivity.
struct ShardSums {
  uint64_t latency_bytes = 0;
  uint64_t tuning_bytes = 0;
  size_t queries = 0;
  size_t incomplete = 0;
  size_t restarted = 0;
  size_t repaired = 0;

  ShardSums& operator+=(const ShardSums& o) {
    latency_bytes += o.latency_bytes;
    tuning_bytes += o.tuning_bytes;
    queries += o.queries;
    incomplete += o.incomplete;
    restarted += o.restarted;
    repaired += o.repaired;
    return *this;
  }
};

/// Runs query i of \p wl on \p client.
std::vector<datasets::SpatialObject> RunQuery(air::AirClient& client,
                                              const Workload& wl, size_t i) {
  if (wl.kind == QueryKind::kWindow) {
    return client.WindowQuery(wl.windows[i]);
  }
  return client.KnnQuery(wl.points[i], wl.k, wl.strategy);
}

/// Visits the shard's queries either in workload order (the default) or —
/// RunOptions::scheduled — in tune-in order through a calendar queue: each
/// one-shot query is a client whose single wake is its tune-in packet, so
/// the channel timeline drives execution. The tune-in draw here replays
/// exactly the first draw of query i's index-forked rng, which \p run
/// re-derives from scratch — a pure reordering of independent clients,
/// bit-identical to index order.
template <typename RunQuery>
void DriveShard(const RunOptions& options, uint64_t horizon, size_t begin,
                size_t end, RunQuery&& run) {
  if (!options.scheduled) {
    for (size_t i = begin; i < end; ++i) run(i);
    return;
  }
  CalendarQueue calendar(std::max<uint64_t>(1, horizon / 256));
  for (size_t i = begin; i < end; ++i) {
    common::Rng rng(MixSeed(options.seed, i));
    const auto tune_in = static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(horizon) - 1));
    calendar.Push(tune_in, static_cast<uint32_t>(i));
  }
  while (!calendar.empty()) run(calendar.Pop().client);
}

/// The one shard body of one-shot queries: each query is a fresh client on
/// its own session, tuning in uniformly over the schedule's horizon.
/// \p channel is a stateless view every session on every worker shares.
ShardSums RunShard(const std::vector<const air::AirIndexHandle*>& generations,
                   transport::SimTransport& channel, const Workload& wl,
                   const RunOptions& options, size_t begin, size_t end) {
  // One arena per pool thread, kept warm across shards AND runs: every
  // query constructs its client into recycled storage.
  thread_local air::ClientArena arena;
  ShardSums sums;
  const uint64_t horizon = channel.schedule()->TuneInHorizon();
  DriveShard(options, horizon, begin, end, [&](size_t i) {
    common::Rng rng(MixSeed(options.seed, i));
    const auto tune_in = static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(horizon) - 1));
    broadcast::ClientSession session(
        channel, tune_in, broadcast::ErrorModel{wl.theta, wl.error_mode},
        rng.Fork());
    const detail::FreshAnswer answer = detail::RunFresh(
        generations, session, arena,
        [&](air::AirClient& client) { return RunQuery(client, wl, i); });
    const broadcast::Metrics m = session.metrics();
    sums.latency_bytes += m.access_latency_bytes;
    sums.tuning_bytes += m.tuning_bytes;
    sums.repaired += m.repaired;
    ++sums.queries;
    if (!answer.completed) ++sums.incomplete;
    if (answer.restarts > 0) ++sums.restarted;
    if (options.results != nullptr) {
      // Entry i belongs to query i for any worker count: disjoint, no race.
      detail::CaptureResult(
          wl.kind,
          wl.kind == QueryKind::kKnn ? wl.points[i] : common::Point{},
          answer.objects, answer.completed, session.generation(),
          answer.restarts, m.access_latency_bytes, m.tuning_bytes,
          m.repaired, &(*options.results)[i]);
    }
  });
  return sums;
}

}  // namespace

namespace detail {

OnAirSchedule::OnAirSchedule(
    const std::vector<const air::AirIndexHandle*>& generations,
    const std::vector<uint64_t>& cycles, const broadcast::DiskConfig& disks,
    const broadcast::CodingConfig& coding) {
  assert(cycles.size() == generations.size());
  for (const air::AirIndexHandle* handle : generations) {
    if (handle->program().cycle_packets() == 0) return;
  }
  // Reserved up front: the schedule points into relaid_, which must never
  // reallocate.
  relaid_.reserve(generations.size());
  for (size_t g = 0; g < generations.size(); ++g) {
    relaid_.push_back(air::OnAirProgram(*generations[g], disks, coding));
    schedule_.Append(
        relaid_[g] ? &*relaid_[g] : &generations[g]->program(), cycles[g]);
  }
}

void CaptureResult(QueryKind kind, const common::Point& query_point,
                   const std::vector<datasets::SpatialObject>& answer,
                   bool completed, uint64_t generation, size_t restarts,
                   uint64_t latency_bytes, uint64_t tuning_bytes,
                   uint64_t repaired, QueryResult* out) {
  out->ids.clear();
  out->knn_distances.clear();
  out->ids.reserve(answer.size());
  for (const datasets::SpatialObject& o : answer) out->ids.push_back(o.id);
  std::sort(out->ids.begin(), out->ids.end());
  if (kind == QueryKind::kKnn) {
    out->knn_distances.reserve(answer.size());
    for (const datasets::SpatialObject& o : answer) {
      out->knn_distances.push_back(common::Distance(query_point, o.location));
    }
    std::sort(out->knn_distances.begin(), out->knn_distances.end());
  }
  out->completed = completed;
  out->generation = generation;
  out->restarts = restarts;
  out->latency_bytes = latency_bytes;
  out->tuning_bytes = tuning_bytes;
  out->repaired = repaired;
}

}  // namespace detail

AvgMetrics RunWorkload(const air::AirIndexHandle& index,
                       const Workload& workload, const RunOptions& options) {
  // A static broadcast is the one-generation schedule airing one cycle.
  return GenerationalRun(GenerationalIndex{{&index}, {1}}, workload, options);
}

AvgMetrics GenerationalRun(const GenerationalIndex& index,
                           const Workload& workload,
                           const RunOptions& options) {
  assert(!index.generations.empty());
  const size_t n = workload.size();
  AvgMetrics avg;
  if (options.results != nullptr) options.results->assign(n, QueryResult{});
  // Guard: an empty workload has nothing to average, and an empty program
  // has no packet to tune into (the tune-in draw would underflow).
  if (n == 0) return avg;
  const detail::OnAirSchedule on_air(index.generations, index.cycles,
                                     options.disks, options.coding);
  if (!on_air.airs()) return avg;
  // The simulator's channel substrate: the same Transport seam a live
  // StreamTransport plugs into.
  transport::SimTransport channel(on_air.schedule());

  const ShardSums total = RunSharded<ShardSums>(
      n, options.workers, [&](size_t begin, size_t end) {
        return RunShard(index.generations, channel, workload, options, begin,
                        end);
      });
  avg.queries = total.queries;
  avg.incomplete = total.incomplete;
  avg.restarted = total.restarted;
  avg.repaired = total.repaired;
  if (total.queries > 0) {
    avg.latency_bytes = static_cast<double>(total.latency_bytes) /
                        static_cast<double>(total.queries);
    avg.tuning_bytes = static_cast<double>(total.tuning_bytes) /
                       static_cast<double>(total.queries);
  }
  return avg;
}

}  // namespace dsi::sim
