#include "sim/runner.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <thread>
#include <vector>

#include "air/disk_layout.hpp"
#include "broadcast/generation.hpp"
#include "common/rng.hpp"
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
};

/// Runs query i of \p wl on \p client. Shared by the static and
/// generational shard loops so query-kind dispatch cannot diverge.
std::vector<datasets::SpatialObject> RunQuery(air::AirClient* client,
                                              const Workload& wl, size_t i) {
  if (wl.kind == QueryKind::kWindow) {
    return client->WindowQuery(wl.windows[i]);
  }
  return client->KnnQuery(wl.points[i], wl.k, wl.strategy);
}

/// Captures query i into the caller's result slot (entry i belongs to
/// query i for any worker count — disjoint, no race).
void RecordResult(const Workload& wl, size_t i,
                  const std::vector<datasets::SpatialObject>& answer,
                  bool completed, uint64_t generation, size_t restarts,
                  const broadcast::Metrics& m,
                  std::vector<QueryResult>* results) {
  detail::CaptureResult(wl.kind,
                        wl.kind == QueryKind::kKnn ? wl.points[i]
                                                   : common::Point{},
                        answer, completed, generation, restarts,
                        m.access_latency_bytes, m.tuning_bytes, m.repaired,
                        &(*results)[i]);
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

ShardSums RunShard(const air::AirIndexHandle& index,
                   transport::SimTransport& channel, const Workload& wl,
                   const RunOptions& options, size_t begin, size_t end) {
  // \p channel views what is actually on air: index.program() itself, or
  // its re-layout under RunOptions::disks / RunOptions::coding. Family
  // clients keep addressing data slots either way. SimTransport is
  // shareable, so every session on every worker drives the same instance.
  //
  // One arena per pool thread, kept warm across shards AND RunWorkload
  // calls: every query constructs its client into recycled storage.
  thread_local air::ClientArena arena;
  const broadcast::BroadcastProgram& program = channel.ProgramOf(0);
  ShardSums sums;
  DriveShard(options, program.cycle_packets(), begin, end, [&](size_t i) {
    common::Rng rng(MixSeed(options.seed, i));
    const auto tune_in = static_cast<uint64_t>(rng.UniformInt(
        0, static_cast<int64_t>(program.cycle_packets()) - 1));
    broadcast::ClientSession session(
        channel, tune_in, broadcast::ErrorModel{wl.theta, wl.error_mode},
        rng.Fork());
    air::AirClient* client = index.MakeClientIn(arena, &session);
    const std::vector<datasets::SpatialObject> answer =
        RunQuery(client, wl, i);
    const broadcast::Metrics m = session.metrics();
    sums.latency_bytes += m.access_latency_bytes;
    sums.tuning_bytes += m.tuning_bytes;
    sums.repaired += m.repaired;
    ++sums.queries;
    if (!client->stats().completed) ++sums.incomplete;
    if (options.results != nullptr) {
      RecordResult(wl, i, answer, client->stats().completed, /*generation=*/0,
                   /*restarts=*/0, m, options.results);
    }
  });
  return sums;
}

ShardSums RunGenerationalShard(const GenerationalIndex& index,
                               transport::SimTransport& channel,
                               const Workload& wl, const RunOptions& options,
                               size_t begin, size_t end) {
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
    // Probe before picking the client: the probe itself may park past a
    // republication instant, and the client must be built for the
    // generation actually on air (family clients re-probe idempotently).
    session.InitialProbe();
    std::vector<datasets::SpatialObject> answer;
    bool completed = true;
    size_t restarts = 0;
    while (true) {
      const uint64_t gen = session.generation();
      air::AirClient* client =
          index.generations[gen]->MakeClientIn(arena, &session);
      answer = RunQuery(client, wl, i);
      const air::ClientStats st = client->stats();
      if (st.stale) {
        // The broadcast was republished mid-query: all learned state died
        // with the old layout. Same session (latency keeps accruing), fresh
        // client bound to the new generation. Generations strictly advance,
        // so this loop runs at most num_generations times.
        assert(session.generation() > gen);
        ++restarts;
        continue;
      }
      completed = st.completed;
      break;
    }
    const broadcast::Metrics m = session.metrics();
    sums.latency_bytes += m.access_latency_bytes;
    sums.tuning_bytes += m.tuning_bytes;
    sums.repaired += m.repaired;
    ++sums.queries;
    if (!completed) ++sums.incomplete;
    if (restarts > 0) ++sums.restarted;
    if (options.results != nullptr) {
      RecordResult(wl, i, answer, completed, session.generation(), restarts,
                   m, options.results);
    }
  });
  return sums;
}

}  // namespace

namespace detail {

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
  const size_t n = workload.size();
  AvgMetrics avg;
  if (options.results != nullptr) options.results->assign(n, QueryResult{});
  // Guard: an empty program has no packet to tune into (the tune-in draw
  // would underflow), and an empty workload has nothing to average.
  if (n == 0 || index.program().cycle_packets() == 0) return avg;

  // Re-layout the on-air cycle once per run, not per query; shards share
  // the (immutable) re-emitted program. Disabled coding AND disks take the
  // index's own program by reference — no copy, byte-identical to the
  // plain engine.
  const std::optional<broadcast::BroadcastProgram> relaid =
      air::OnAirProgram(index, options.disks, options.coding);
  const broadcast::BroadcastProgram& on_air =
      relaid.has_value() ? *relaid : index.program();
  // The simulator's channel substrate: a stateless view every session in
  // every shard shares (the same Transport seam a live StreamTransport
  // plugs into).
  transport::SimTransport channel(on_air);

  size_t workers =
      options.workers != 0
          ? options.workers
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  workers = std::min(workers, n);

  ShardSums total;
  if (workers <= 1) {
    total = RunShard(index, channel, workload, options, 0, n);
  } else {
    // Shard boundaries depend only on (n, workers); per-query seeds depend
    // only on the query index, so any worker count reproduces the serial
    // result exactly. The pool persists across calls — no thread spawn per
    // data point.
    std::vector<ShardSums> shard_sums(workers);
    WorkerPool::Instance().Run(workers, [&](size_t w) {
      const size_t begin = n * w / workers;
      const size_t end = n * (w + 1) / workers;
      shard_sums[w] = RunShard(index, channel, workload, options, begin, end);
    });
    for (const ShardSums& s : shard_sums) {
      total.latency_bytes += s.latency_bytes;
      total.tuning_bytes += s.tuning_bytes;
      total.queries += s.queries;
      total.incomplete += s.incomplete;
      total.repaired += s.repaired;
    }
  }

  avg.queries = total.queries;
  avg.incomplete = total.incomplete;
  avg.repaired = total.repaired;
  if (total.queries > 0) {
    avg.latency_bytes = static_cast<double>(total.latency_bytes) /
                        static_cast<double>(total.queries);
    avg.tuning_bytes = static_cast<double>(total.tuning_bytes) /
                       static_cast<double>(total.queries);
  }
  return avg;
}

AvgMetrics GenerationalRun(const GenerationalIndex& index,
                           const Workload& workload,
                           const RunOptions& options) {
  assert(!index.generations.empty());
  assert(index.cycles.size() == index.generations.size());
  const size_t n = workload.size();
  AvgMetrics avg;
  if (options.results != nullptr) options.results->assign(n, QueryResult{});
  for (const air::AirIndexHandle* handle : index.generations) {
    if (handle->program().cycle_packets() == 0) return avg;
  }
  if (n == 0) return avg;

  // Each generation is re-laid-out independently: parity groups (and disk
  // schedules) die with their generation, and a republication re-encodes
  // the new cycle.
  std::vector<std::optional<broadcast::BroadcastProgram>> relaid;
  for (const air::AirIndexHandle* handle : index.generations) {
    relaid.push_back(air::OnAirProgram(*handle, options.disks, options.coding));
  }
  broadcast::GenerationSchedule schedule;
  for (size_t g = 0; g < index.generations.size(); ++g) {
    schedule.Append(relaid[g] ? &*relaid[g] : &index.generations[g]->program(),
                    index.cycles[g]);
  }
  transport::SimTransport channel(schedule);

  size_t workers =
      options.workers != 0
          ? options.workers
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  workers = std::min(workers, n);

  ShardSums total;
  if (workers <= 1) {
    total = RunGenerationalShard(index, channel, workload, options, 0, n);
  } else {
    std::vector<ShardSums> shard_sums(workers);
    WorkerPool::Instance().Run(workers, [&](size_t w) {
      const size_t begin = n * w / workers;
      const size_t end = n * (w + 1) / workers;
      shard_sums[w] =
          RunGenerationalShard(index, channel, workload, options, begin, end);
    });
    for (const ShardSums& s : shard_sums) {
      total.latency_bytes += s.latency_bytes;
      total.tuning_bytes += s.tuning_bytes;
      total.queries += s.queries;
      total.incomplete += s.incomplete;
      total.restarted += s.restarted;
      total.repaired += s.repaired;
    }
  }

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
