/// The `city` workload: churned moving clients re-evaluating small windows
/// on a dynamic, skewed, lossy broadcast. n = 10^4 uniform objects; 4
/// generations of 2 cycles each, 1% updates per generation (DSI
/// republished incrementally, the other families rebuilt); every cycle laid
/// out as 3 Broadcast Disks at skew 1.2; burst loss theta = 0.2. Clients
/// follow hotspot-waypoint tours of 4 steps around the popularity hotspot
/// (window side 0.02, pace = cycle/4), churn rate 0.3, warm continuous
/// clients on the scheduler engine (sim::RunTrajectories). The measured
/// loop runs the engine with 1 worker, in the calling thread: with 2, a
/// host phase moved R-tree and HCI by 30% after host-speed scaling, as the
/// single-threaded calibration does not see the hand-offs to the workers. The worker pool is
/// timed in the traced run (sim.pool_speedup, 2 workers against 1).
///
/// Populations come in chunks; the families take turns chunk by chunk. DSI
/// and expindex (~3 ms per step here) get 2-client chunks, so their
/// answer-time quantiles rest on hundreds of calls; R-tree and HCI (~50 us
/// per step) get 16-client chunks and two per turn, so per-call set-up
/// stays a small share of what is timed.

#include <algorithm>

#include "air/disk_layout.hpp"
#include "broadcast/disks.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "sim/runner.hpp"
#include "sim/trajectory.hpp"

namespace pb {
namespace {

constexpr size_t kCityObjects = 10000;
constexpr size_t kGenerations = 4;
constexpr uint64_t kGenCycles = 2;
constexpr std::array<size_t, kNumFamilies> kChunkClients = {2, 16, 16, 2};
constexpr std::array<size_t, kNumFamilies> kCityMult = {1, 2, 2, 1};
constexpr size_t kSteps = 4;
constexpr size_t kChunks = 256;  // distinct populations per run
constexpr size_t kWorkers = 1;   // engine workers of the measured loop
constexpr double kTheta = 0.2;

broadcast::DiskConfig Disks(uint64_t seed) {
  return broadcast::DiskConfig{3, 1.2, 8, Mix(seed, 5)};
}

struct CitySetup {
  std::vector<std::vector<datasets::SpatialObject>> objects;  // per generation
  std::unique_ptr<hilbert::SpaceMapper> mapper;
  std::vector<std::unique_ptr<FamilySet>> gens;
  std::vector<std::unique_ptr<OnAirHandle>> on_air;  // [f * kGenerations + g]
  std::array<sim::GenerationalIndex, kNumFamilies> index;
  std::vector<std::array<sim::TrajectoryWorkload, kNumFamilies>> chunks;
  BuildStats build;  // generation 0
  double generate_s = 0.0;
  double republish_s = 0.0;

  const OnAirHandle& handle(size_t f, size_t g) const {
    return *on_air[f * kGenerations + g];
  }
};

std::unique_ptr<CitySetup> BuildSetup(uint64_t seed) {
  auto s = std::make_unique<CitySetup>();
  const common::Rect u = datasets::UnitUniverse();
  const broadcast::DiskConfig disks = Disks(seed);

  double t0 = WallNow();
  s->objects.push_back(datasets::MakeUniform(kCityObjects, u, Mix(seed, 1)));
  std::vector<std::vector<datasets::UpdateOp>> ops;
  for (size_t g = 1; g < kGenerations; ++g) {
    ops.push_back(datasets::MakeUpdateStream(s->objects.back(), kCityObjects / 100,
                                             u, Mix(seed, 10 + g)));
    s->objects.push_back(datasets::ApplyUpdates(s->objects.back(), ops.back()));
  }
  s->generate_s = WallNow() - t0;

  s->mapper = std::make_unique<hilbert::SpaceMapper>(
      u, hilbert::ChooseOrder(kCityObjects));
  s->gens.push_back(std::make_unique<FamilySet>(s->objects[0], *s->mapper, &s->build));
  t0 = WallNow();
  for (size_t g = 1; g < kGenerations; ++g) {
    s->gens.push_back(std::make_unique<FamilySet>(*s->gens.back(), s->objects[g],
                                                  ops[g - 1], nullptr));
  }
  s->republish_s = WallNow() - t0;

  for (size_t f = 0; f < kNumFamilies; ++f) {
    for (size_t g = 0; g < kGenerations; ++g) {
      const air::AirIndexHandle& flat = s->gens[g]->handle(f);
      s->on_air.push_back(std::make_unique<OnAirHandle>(
          flat, air::MakeSkewedProgram(flat, disks)));
    }
  }
  for (size_t f = 0; f < kNumFamilies; ++f) {
    for (size_t g = 0; g < kGenerations; ++g) {
      s->index[f].generations.push_back(&s->handle(f, g));
      s->index[f].cycles.push_back(kGenCycles);
    }
  }

  // Client populations: hotspot-waypoint tours around the hottest region of
  // the popularity model the disks are ranked by.
  t0 = WallNow();
  const datasets::RegionPopularity popularity(disks.grid, disks.skew,
                                              disks.pop_seed);
  datasets::TrajectoryParams params;
  params.model = datasets::TrajectoryModel::kHotspotWaypoint;
  params.hotspot = popularity.HottestCenter(u);
  for (size_t c = 0; c < kChunks; ++c) {
    std::array<sim::TrajectoryWorkload, kNumFamilies> per_family;
    for (size_t f = 0; f < kNumFamilies; ++f) {
      sim::TrajectoryWorkload wl = sim::MakeTrajectoryWorkload(
          sim::QueryKind::kWindow, kChunkClients[f], kSteps, params, u,
          Mix(seed, 200 + c));
      const uint64_t cycle = s->handle(f, 0).program().cycle_packets();
      wl.window_side = 0.02;
      wl.theta = kTheta;
      wl.error_mode = broadcast::ErrorMode::kBurstLoss;
      wl.pace_packets = cycle / 4;
      wl.churn = datasets::MakeChurnStream(kChunkClients[f],
                                           kGenerations * kGenCycles * cycle,
                                           0.3, Mix(seed, 300 + c));
      per_family[f] = std::move(wl);
    }
    s->chunks.push_back(std::move(per_family));
  }
  s->generate_s += WallNow() - t0;
  return s;
}

sim::TrajectoryOptions Options(uint64_t seed, size_t chunk, size_t workers) {
  sim::TrajectoryOptions o;
  o.seed = Mix(seed, 400 + chunk);
  o.workers = workers;
  o.cold_baseline = false;
  o.engine = sim::TrajectoryEngine::kScheduler;
  return o;
}

/// Checks one chunk's warm steps against the oracle of each answer's
/// generation and the engine's exact churn accounting.
void CheckChunk(const std::vector<Oracle>& oracles,
                const sim::TrajectoryWorkload& wl, const sim::TrajectoryMetrics& m,
                const std::vector<std::vector<sim::TrajectoryStep>>& results,
                size_t f, size_t chunk, Gate* gate, PinSums* pin) {
  const std::string who =
      std::string(kFamilies[f]) + " city chunk " + std::to_string(chunk);
  gate->Attempt();
  if (m.steps + m.skipped_steps != wl.num_steps()) {
    gate->Fail(who + ": churn accounting broke");
  }
  for (size_t c = 0; c < results.size(); ++c) {
    for (size_t s = 0; s < results[c].size(); ++s) {
      const sim::TrajectoryStep& step = results[c][s];
      if (!step.ran) continue;
      const std::string what =
          who + " client " + std::to_string(c) + " step " + std::to_string(s);
      if (!step.warm.completed) {
        gate->Attempt();
        gate->Fail(what + ": watchdog-incomplete");
        continue;
      }
      gate->Expect(step.warm.ids, oracles[step.warm.generation].Window(wl.WindowAt(c, s)),
                   what + ": ids differ from the oracle");
      if (pin != nullptr) {
        pin->latency += step.warm.latency_bytes;
        pin->tuning += step.warm.tuning_bytes;
        ++pin->queries;
      }
    }
  }
}

/// Traced re-evaluation loop: the same tours driven directly through a warm
/// continuous client per tour (BeginQuery / WindowQuery / Pace), spans per
/// step, radio trace per step.
void TraceChunk(const CitySetup& s, const std::vector<Oracle>& oracles,
                size_t f, size_t chunk, uint64_t seed, bool traced,
                bool exact, uint64_t* qid, ClientTrace* t, SpanLog* log, Gate* gate,
                uint64_t* restarts, uint64_t* steps) {
  const sim::TrajectoryWorkload& wl = s.chunks[chunk][f];
  broadcast::GenerationSchedule sched;
  for (size_t g = 0; g < kGenerations; ++g) {
    sched.Append(&s.handle(f, g).program(), kGenCycles);
  }
  std::vector<broadcast::TraceEvent> events;
  for (size_t c = 0; c < wl.clients.size(); ++c) {
    const datasets::ChurnSpan span = wl.churn[c];
    if (span.depart_packet <= span.arrive_packet) continue;
    broadcast::ClientSession session(
        sched, span.arrive_packet, broadcast::ErrorModel{wl.theta, wl.error_mode},
        common::Rng(Mix(Mix(seed, 500 + chunk), c)));
    if (traced) session.set_trace(&events);
    session.InitialProbe();
    uint64_t gen = session.generation();
    std::unique_ptr<air::AirClient> client;
    for (size_t st = 0; st < wl.clients[c].size(); ++st, ++*qid) {
      if (st > 0 && session.now_packets() >= span.depart_packet) break;
      events.clear();
      const common::Rect window = wl.WindowAt(c, st);
      const uint32_t root =
          traced ? log->Open(*qid, Span::kNoParent, "query", static_cast<int>(f)) : 0;
      const double s0 = WallNow();
      std::vector<datasets::SpatialObject> answer;
      double query_s = 0.0;
      for (;;) {
        if (client == nullptr || session.generation() != gen) {
          gen = session.generation();
          const double m0 = WallNow();
          client = s.handle(f, gen).MakeContinuousClient(&session);
          if (traced) log->Add(*qid, root, "client.make", static_cast<int>(f), m0, WallNow());
        }
        const double q0 = WallNow();
        client->BeginQuery();
        answer = client->WindowQuery(window);
        const double q1 = WallNow();
        query_s += q1 - q0;
        if (traced) log->Add(*qid, root, "client.query", static_cast<int>(f), q0, q1);
        if (!client->stats().stale) break;
        ++*restarts;
      }
      const double dt = WallNow() - s0;
      ++*steps;
      if (traced) {
        t->query_us.push_back(query_s * 1e6);
        t->query_s += query_s;
        const air::ClientStats cs = client->stats();
        t->reads += static_cast<double>(cs.index_reads + cs.object_reads);
        ++t->queries;
        if (exact) CountEvents(events, t);
        t->traced_us.push_back(dt * 1e6);
        double r0 = WallNow();
        std::vector<hilbert::HcRange> ranges;
        s.mapper->WindowToRanges(window, &ranges);
        log->Add(*qid, root, "hilbert.window_ranges", static_cast<int>(f), r0, WallNow());
        r0 = WallNow();
        Sink(RetimePacketsUntil(session, events));
        log->Add(*qid, root, "broadcast.packets_until", static_cast<int>(f), r0,
                 WallNow());
        log->Close(root);
      } else {
        t->untraced_us.push_back(dt * 1e6);
      }
      const std::string what = std::string(kFamilies[f]) + " traced city chunk " +
                               std::to_string(chunk) + " client " +
                               std::to_string(c) + " step " + std::to_string(st);
      if (!client->stats().completed) {
        gate->Attempt();
        gate->Fail(what + ": watchdog-incomplete");
      } else {
        gate->Expect(SortedIds(answer), oracles[session.generation()].Window(window),
                     what + ": ids differ from the oracle");
      }
      session.Pace(wl.pace_packets);
    }
  }
}

}  // namespace

void RunCity(const RunConfig& cfg, RunOutput* out) {
  std::vector<double> setup_s;
  std::unique_ptr<CitySetup> s;
  double heap_delta = 0.0;
  while (MoreSetups(cfg, setup_s)) {
    s.reset();
    const double heap0 = HeapInUse();
    setup_s.push_back(HostScaledSeconds([&] { s = BuildSetup(cfg.seed); }));
    heap_delta = HeapInUse() - heap0;
  }
  std::vector<Oracle> oracles;
  for (const auto& objects : s->objects) oracles.emplace_back(objects);

  std::array<PinSums, kNumFamilies> pins{};
  std::vector<std::vector<sim::TrajectoryStep>> results;
  if (cfg.pins_only) {
    for (size_t f = 0; f < kNumFamilies; ++f) {
      sim::TrajectoryOptions o = Options(cfg.seed, 0, kWorkers);
      o.results = &results;
      const auto m = sim::RunTrajectories(s->index[f], s->chunks[0][f], o);
      CheckChunk(oracles, s->chunks[0][f], m, results, f, 0, &out->gate, &pins[f]);
    }
    CheckPins(cfg, pins, out);
    return;
  }

  if (!cfg.trace) {
    std::array<uint64_t, kNumFamilies> cursor{};
    std::array<double, kNumFamilies> busy{};
    std::array<uint64_t, kNumFamilies> steps{};
    SliceRates rates(cfg.seconds);
    uint64_t incomplete = 0;
    const double wall0 = WallNow();
    const double cpu0 = CpuNow();
    while (cursor[0] == 0 || WallNow() - wall0 < cfg.seconds) {
      for (size_t f = 0; f < kNumFamilies; ++f) {
        for (size_t j = 0; j < kCityMult[f]; ++j) {
          const uint64_t q = cursor[f]++;
          const size_t chunk = q % kChunks;
          sim::TrajectoryOptions o = Options(cfg.seed, chunk, kWorkers);
          o.results = &results;
          const double t0 = WallNow();
          const sim::TrajectoryMetrics m =
              sim::RunTrajectories(s->index[f], s->chunks[chunk][f], o);
          const double dt = WallNow() - t0;
          busy[f] += dt;
          steps[f] += m.steps;
          incomplete += m.incomplete;
          if (m.steps > 0) rates.AddAnswer(f, dt * 1e3 / static_cast<double>(m.steps));
          rates.Add(f, static_cast<double>(m.steps), dt,
                    m.tuning_bytes * static_cast<double>(m.steps) / kCapacity);
          CheckChunk(oracles, s->chunks[chunk][f], m, results, f, chunk, &out->gate,
                     q == 0 ? &pins[f] : nullptr);
          rates.Calibrate();
        }
      }
    }
    const double wall = WallNow() - wall0;
    const double cpu = CpuNow() - cpu0;
    CheckPins(cfg, pins, out);
    for (size_t f = 0; f < kNumFamilies; ++f) {
      Put(&out->metrics, std::string("qps.") + kFamilies[f], rates.Rate(f), "q/s");
      out->info.push_back(std::string(kFamilies[f]) + ": " + std::to_string(steps[f]) +
                          " steps in " + std::to_string(busy[f]) + " s");
    }
    Put(&out->metrics, "answer_ms.p50", rates.AnswerQuantile(0.50), "ms");
    Put(&out->metrics, "answer_ms.p95", rates.AnswerQuantile(0.95), "ms");
    Put(&out->metrics, "frames_per_s", rates.PacketRate(), "1/s");
    Put(&out->metrics, "setup_s", Quantile(setup_s, 0.5), "s");
    Put(&out->metrics, "heap_bytes_per_object",
        heap_delta / static_cast<double>(kCityObjects), "B");
    Put(&out->metrics, "peak_rss_mb", PeakRssMb(), "MiB");
    out->info.push_back("host slowdown against the reference: " +
                        std::to_string(rates.Slowdown()));
    out->info.push_back("cpu/wall over the measured loop: " +
                        std::to_string(cpu / wall));
    out->info.push_back("watchdog-incomplete warm steps: " + std::to_string(incomplete));
    return;
  }

  // Traced run.
  std::array<ClientTrace, kNumFamilies> traces;
  std::array<uint64_t, kNumFamilies> cursor{};
  SpanLog log;
  uint64_t qid = 0;
  uint64_t restarts = 0;
  uint64_t traced_steps = 0;
  const double wall0 = WallNow();
  for (size_t round = 0; round < kExactRounds || WallNow() - wall0 < cfg.seconds;
       ++round) {
    for (size_t f = 0; f < kNumFamilies; ++f) {
      for (size_t j = 0; j < kCityMult[f]; ++j) {
        const size_t chunk = cursor[f]++ % kChunks;
        TraceChunk(*s, oracles, f, chunk, cfg.seed, round % 2 == 0,
                   round < kExactRounds, &qid, &traces[f], &log, &out->gate,
                   &restarts, &traced_steps);
      }
    }
  }
  std::array<const air::AirIndexHandle*, kNumFamilies> gen0{};
  for (size_t f = 0; f < kNumFamilies; ++f) gen0[f] = &s->handle(f, 0);
  MeasureMakeClient(gen0, Mix(cfg.seed, 63), &traces);
  EmitClientMetrics(traces, &out->metrics);
  EmitBuildMetrics(s->build, kCityObjects, s->generate_s, s->republish_s,
                   &out->metrics);

  // The engine on a few chunks: worker-pool speedup and exact counts.
  double serial = 0.0;
  double pooled = 0.0;
  uint64_t engine_steps = 0;
  uint64_t engine_restarts = 0;
  uint64_t skipped = 0;
  for (size_t chunk = 0; chunk < 16; ++chunk) {
    for (size_t f = 0; f < kNumFamilies; ++f) {
      for (size_t workers : {1, 2}) {
        const double t0 = WallNow();
        const sim::TrajectoryMetrics m = sim::RunTrajectories(
            s->index[f], s->chunks[chunk][f], Options(cfg.seed, chunk, workers));
        (workers == 1 ? serial : pooled) += WallNow() - t0;
        if (workers == 1) {
          engine_steps += m.steps;
          engine_restarts += m.restarted;
          skipped += m.skipped_steps;
        }
      }
    }
  }
  Put(&out->metrics, "sim.pool_speedup", serial / pooled, "x");
  Put(&out->metrics, "sim.restarts_per_step",
      static_cast<double>(engine_restarts) / static_cast<double>(engine_steps), "count");
  Put(&out->metrics, "sim.skipped_steps", static_cast<double>(skipped), "count");
  out->info.push_back("traced loop: " + std::to_string(traced_steps) + " steps, " +
                      std::to_string(restarts) + " stale restarts");

  LayerInputs in;
  for (size_t f = 0; f < kNumFamilies; ++f) in.handles[f] = &s->gens[0]->handle(f);
  in.mapper = s->mapper.get();
  in.seed = cfg.seed;
  std::vector<uint64_t> wakes;
  for (size_t chunk = 0; chunk < kChunks; ++chunk) {
    const sim::TrajectoryWorkload& wl = s->chunks[chunk][0];
    for (size_t c = 0; c < wl.clients.size(); ++c) {
      for (size_t st = 0; st < wl.clients[c].size(); ++st) {
        in.windows.push_back(wl.WindowAt(c, st));
        in.points.push_back(wl.clients[c][st]);
        in.radii.push_back(oracles[0].KnnDistances(wl.clients[c][st], 10).back());
        wakes.push_back(wl.churn[c].arrive_packet + st * wl.pace_packets);
      }
    }
  }
  MeasureCommonLayers(in, wakes, &out->metrics);
  MeasureLiveCompanion(cfg, &out->metrics, &out->gate);
  if (!cfg.work_dir.empty()) {
    const std::string path = TraceDir(cfg) + "/city-seed" + std::to_string(cfg.seed) + ".spans.jsonl";
    if (!log.Write(path)) out->info.push_back("could not write " + path);
  }
}

}  // namespace pb
