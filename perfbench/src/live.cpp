/// The `live` workload: in-process BroadcastDaemons, unthrottled (pps = 0),
/// on unix sockets, each airing the live recipe — n = 1000, DSI m = 2,
/// (4,1) coding, 3 generations of 100 updates. (At n = 10^4 one HCI answer
/// under this loss takes ~1.5 s of wall time, too few answers per run for a
/// steady rate.) Every family gets its own
/// pair of daemons; the families take turns phase by phase, and in a phase
/// two concurrent StreamTransport connections (one per daemon of the pair)
/// each answer a mixed window/kNN stream at per-read loss 0.1, then
/// disconnect. The next phase of that family reconnects.
///
/// Tune-ins are placed, not raced: before each connect the benchmark
/// advances its daemon's air position (BroadcastDaemon::AdvanceAirTo) to a
/// seed-derived phase of the cycle, ahead of anything the previous
/// connection streamed. A connection's byte metrics are then a function of
/// the seed alone. Every live answer is replayed through SimTransport over
/// an independent rebuild of the recipe and must match it bit for bit, and
/// is checked against the brute-force oracle of its generation.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <thread>

#include "common.hpp"
#include "layers.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"
#include "transport/broadcast_daemon.hpp"
#include "transport/stream_transport.hpp"

namespace pb {
namespace {

constexpr uint32_t kLiveObjects = 1000;
constexpr size_t kSlots = 2;          // concurrent connections per family
constexpr size_t kStreamQueries = 8;  // answers per connection
constexpr uint64_t kMinAnswers = 200;  // per family and run
constexpr size_t kK = 10;
constexpr double kTheta = 0.1;

wire::HelloPayload Recipe(uint64_t seed, size_t family) {
  wire::HelloPayload h;
  h.family = static_cast<wire::FamilyId>(family);
  h.seed = Mix(seed, 20) % 1000003;
  h.num_objects = kLiveObjects;
  h.packet_capacity = kCapacity;
  h.hilbert_order = static_cast<uint32_t>(hilbert::ChooseOrder(kLiveObjects));
  h.num_segments = 2;
  h.coding_group = 4;
  h.coding_parity = 1;
  h.num_generations = 3;
  h.updates_per_gen = 100;
  h.gen_cycles = 2;
  return h;
}

struct LiveQuery {
  bool window = false;
  common::Rect rect;
  common::Point point;
};

/// Stream \p stream of connection slot \p slot: alternating Fig-9 windows
/// and 10NN points. The same for every family.
std::vector<LiveQuery> StreamQueries(uint64_t seed, size_t slot,
                                     uint64_t stream) {
  const common::Rect u = datasets::UnitUniverse();
  common::Rng rng(Mix(seed, 30 + slot * 1000003 + stream * 7));
  std::vector<LiveQuery> out(kStreamQueries);
  for (size_t i = 0; i < out.size(); ++i) {
    const common::Point c{rng.Uniform(u.min_x, u.max_x),
                          rng.Uniform(u.min_y, u.max_y)};
    out[i].window = (i % 2 == 0);
    out[i].point = c;
    out[i].rect = common::MakeClippedWindow(c, 0.1 * u.Width(), u);
  }
  return out;
}

uint64_t SessionSeed(uint64_t seed, size_t slot, uint64_t stream) {
  return Mix(seed, 40 + slot * 1000003 + stream * 7);
}

/// Per-stream tracing hooks (traced runs only).
struct StreamTrace {
  ClientTrace* client = nullptr;
  SpanLog* log = nullptr;
  uint64_t qid_base = 0;
  int family = 0;
  bool exact = false;  // inside the run's fixed prefix: count radio events
};

/// Re-times the frame codec on one query's listens: the bucket content of
/// each listened slot (treated as a physical slot of the generation's
/// program — a representative frame, not the exact aired one), encoded
/// and decoded as a bucket frame.
uint64_t RetimeFrameCodec(const transport::LiveSource& source, uint64_t gen,
                          const std::vector<broadcast::TraceEvent>& events) {
  const broadcast::BroadcastProgram& program = source.program(gen);
  uint64_t acc = 0;
  wire::BucketFrame frame;
  wire::BucketFrame decoded;
  for (const broadcast::TraceEvent& e : events) {
    if (e.kind != broadcast::TraceEvent::Kind::kListen) continue;
    frame.phys_slot = e.slot % program.num_buckets();
    frame.generation = gen;
    frame.content = source.BucketContent(gen, frame.phys_slot);
    acc += wire::DecodeBucketFrame(wire::EncodeBucketFrame(frame), &decoded)
               ? decoded.content.size()
               : 0;
  }
  return acc;
}

struct StreamResult {
  std::vector<sim::QueryResult> answers;
  std::vector<double> answer_ms;
  uint64_t restarts = 0;
  double query_wall_s = 0.0;
};

/// One connection's query stream over \p channel, continuous client per
/// generation (rebuilt on republication), exactly like tools/live_client.
StreamResult RunStream(const transport::LiveSource& source,
                       transport::Transport& channel, uint64_t tune_in,
                       const std::vector<LiveQuery>& queries,
                       uint64_t session_seed, StreamTrace* trace) {
  StreamResult out;
  broadcast::ClientSession session(
      channel, tune_in,
      broadcast::ErrorModel{kTheta, broadcast::ErrorMode::kPerReadLoss},
      common::Rng(session_seed));
  std::vector<broadcast::TraceEvent> events;
  if (trace != nullptr) session.set_trace(&events);
  session.InitialProbe();
  uint64_t gen = session.generation();
  std::unique_ptr<air::AirClient> client =
      source.handle(gen).MakeContinuousClient(&session);
  for (size_t i = 0; i < queries.size(); ++i) {
    const LiveQuery& q = queries[i];
    const broadcast::Metrics before = session.metrics();
    events.clear();
    const uint64_t qid = trace != nullptr ? trace->qid_base + i : 0;
    const uint32_t root =
        trace != nullptr ? trace->log->Open(qid, Span::kNoParent, "query", trace->family)
                         : 0;
    const double t0 = WallNow();
    std::vector<datasets::SpatialObject> answer;
    double query_s = 0.0;
    for (;;) {
      if (session.generation() != gen) {
        gen = session.generation();
        const double m0 = WallNow();
        client = source.handle(gen).MakeContinuousClient(&session);
        if (trace != nullptr) {
          trace->log->Add(qid, root, "client.make", trace->family, m0, WallNow());
        }
      }
      const double q0 = WallNow();
      client->BeginQuery();
      answer = q.window ? client->WindowQuery(q.rect)
                        : client->KnnQuery(q.point, kK);
      const double q1 = WallNow();
      query_s += q1 - q0;
      if (trace != nullptr) {
        trace->log->Add(qid, root, "client.query", trace->family, q0, q1);
      }
      if (!client->stats().stale) break;
      ++out.restarts;  // republished mid-query: rebuild and re-issue
    }
    const double dt = WallNow() - t0;
    out.answer_ms.push_back(dt * 1e3);
    out.query_wall_s += dt;
    if (trace != nullptr) {
      ClientTrace& t = *trace->client;
      t.query_us.push_back(query_s * 1e6);
      t.query_s += query_s;
      const air::ClientStats st = client->stats();
      t.reads += static_cast<double>(st.index_reads + st.object_reads);
      ++t.queries;
      if (trace->exact) CountEvents(events, &t);
      // Re-timings of the session's slot lookup and of the frame codec on
      // this query's own slots.
      double r0 = WallNow();
      Sink(RetimePacketsUntil(session, events));
      trace->log->Add(qid, root, "broadcast.packets_until", trace->family, r0,
                      WallNow());
      r0 = WallNow();
      Sink(RetimeFrameCodec(source, session.generation(), events));
      trace->log->Add(qid, root, "wire.frame_codec", trace->family, r0, WallNow());
      trace->log->Close(root);
    }
    const broadcast::Metrics after = session.metrics();
    sim::QueryResult r;
    r.ids = SortedIds(answer);
    if (!q.window) r.knn_distances = SortedDistances(answer, q.point);
    r.completed = client->stats().completed;
    r.generation = session.generation();
    r.latency_bytes = after.access_latency_bytes - before.access_latency_bytes;
    r.tuning_bytes = after.tuning_bytes - before.tuning_bytes;
    out.answers.push_back(std::move(r));
  }
  return out;
}

/// Where connection \p stream of a daemon tunes in: stream 0 joins a fresh
/// daemon inside generation 0 (its stream crosses the republications);
/// later streams join the last generation at a seed-derived cycle phase,
/// at least two cycles past \p floor (the previous connection's end), so
/// no frame the previous connection's server thread still streams can
/// reach it.
uint64_t TuneInFor(const transport::LiveSource& src, uint64_t seed, size_t slot,
                   uint64_t stream, uint64_t floor) {
  const broadcast::GenerationSchedule& sched = src.schedule();
  const uint64_t phase_seed = Mix(seed, 50 + slot * 1000003 + stream * 7);
  if (stream == 0) return phase_seed % sched.program(0).cycle_packets();
  const size_t last = sched.num_generations() - 1;
  const uint64_t start = sched.start_packet(last);
  const uint64_t cycle = sched.program(last).cycle_packets();
  const uint64_t min = std::max(floor + 2 * cycle, start);
  const uint64_t k = (min - start + cycle - 1) / cycle;
  return start + k * cycle + phase_seed % cycle;
}

/// The daemon side of a run: kSlots daemons per family.
struct Daemons {
  std::vector<std::unique_ptr<transport::BroadcastDaemon>> d;  // [f * kSlots + s]
  std::vector<std::string> endpoints;
};

std::string SocketDir(const RunConfig& cfg) {
  const std::string dir = cfg.work_dir + "/sock";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

/// A socket name no other daemon of this process uses (a stopping daemon
/// unlinks its path).
std::string NewEndpoint(const RunConfig& cfg) {
  static int next = 0;
  return "unix:" + SocketDir(cfg) + "/" + std::to_string(::getpid()) + "-" +
         std::to_string(next++) + ".sock";
}

/// Stops every daemon of \p sets concurrently (each Stop waits out its
/// accept loop's poll interval).
void StopAll(std::vector<std::unique_ptr<Daemons>>* sets) {
  std::vector<std::thread> stoppers;
  for (auto& set : *sets) {
    for (auto& d : set->d) stoppers.emplace_back([&d] { d->Stop(); });
  }
  for (std::thread& t : stoppers) t.join();
  sets->clear();
}

std::unique_ptr<Daemons> StartDaemons(const RunConfig& cfg, Gate* gate) {
  const uint64_t seed = cfg.seed;
  auto ds = std::make_unique<Daemons>();
  for (size_t f = 0; f < kNumFamilies; ++f) {
    for (size_t s = 0; s < kSlots; ++s) {
      auto daemon = std::make_unique<transport::BroadcastDaemon>(Recipe(seed, f), 0.0);
      const std::string ep = NewEndpoint(cfg);
      std::string error;
      if (!daemon->Listen(ep, &error)) {
        gate->Attempt();
        gate->Fail("daemon listen failed: " + error);
        return nullptr;
      }
      daemon->Start();
      ds->d.push_back(std::move(daemon));
      ds->endpoints.push_back(ep);
    }
  }
  return ds;
}

/// What one connection of a phase produced.
struct Connection {
  uint64_t stream = 0;
  uint64_t tune_in = 0;
  StreamResult result;
  double connect_ms = 0.0;
  transport::WallStats wall;
  bool ok = false;
  std::string error;
};

void Connect(const std::string& endpoint, transport::BroadcastDaemon* daemon,
             uint64_t tune_in, const std::vector<LiveQuery>& queries,
             uint64_t session_seed, StreamTrace* trace, Connection* out) {
  daemon->AdvanceAirTo(tune_in);
  std::string error;
  const double c0 = WallNow();
  std::unique_ptr<transport::StreamTransport> stream =
      transport::StreamTransport::Connect(endpoint, {}, &error);
  out->connect_ms = (WallNow() - c0) * 1e3;
  if (stream == nullptr) {
    out->error = "connect failed: " + error;
    return;
  }
  out->tune_in = stream->tune_in_packet();
  try {
    out->result = RunStream(stream->source(), *stream, out->tune_in, queries,
                            session_seed, trace);
    out->ok = true;
  } catch (const transport::TransportError& e) {
    out->error = std::string("transport error: ") + e.what();
  }
  out->wall = stream->wall();
}

/// The packet a finished connection had consumed up to (its probe aside,
/// which TuneInFor's two-cycle margin covers).
uint64_t StreamEnd(const Connection& c) {
  uint64_t end = c.tune_in;
  for (const sim::QueryResult& a : c.result.answers) end += a.latency_bytes / kCapacity;
  return end;
}

/// Replays a connection through SimTransport over \p replay and checks
/// every answer against it and against the generation's oracle.
void CheckConnection(const transport::LiveSource& replay,
                     const std::vector<Oracle>& oracles, uint64_t seed,
                     size_t f, size_t slot, const Connection& c, Gate* gate,
                     PinSums* pin) {
  const std::string who = std::string(kFamilies[f]) + " live slot " +
                          std::to_string(slot) + " stream " +
                          std::to_string(c.stream);
  if (!c.ok) {
    gate->Attempt();
    gate->Fail(who + ": " + c.error);
    return;
  }
  const std::vector<LiveQuery> queries = StreamQueries(seed, slot, c.stream);
  transport::SimTransport sim(replay.schedule());
  const StreamResult expect = RunStream(replay, sim, c.tune_in, queries,
                                        SessionSeed(seed, slot, c.stream), nullptr);
  for (size_t i = 0; i < queries.size(); ++i) {
    const sim::QueryResult& got = c.result.answers[i];
    const sim::QueryResult& want = expect.answers[i];
    const std::string what = who + " answer " + std::to_string(i);
    gate->Attempt();
    if (got.ids != want.ids || got.latency_bytes != want.latency_bytes ||
        got.tuning_bytes != want.tuning_bytes || got.completed != want.completed) {
      gate->Fail(what + ": differs from its SimTransport replay");
      continue;
    }
    if (!got.completed) {
      gate->Fail(what + ": watchdog-incomplete");
      continue;
    }
    const Oracle& oracle = oracles[got.generation];
    if (queries[i].window) {
      if (got.ids != oracle.Window(queries[i].rect)) {
        gate->Fail(what + ": ids differ from the oracle");
      }
    } else if (got.knn_distances != oracle.KnnDistances(queries[i].point, kK)) {
      gate->Fail(what + ": kNN distances differ from the oracle");
    }
    if (pin != nullptr) {
      pin->latency += got.latency_bytes;
      pin->tuning += got.tuning_bytes;
      ++pin->queries;
    }
  }
}

/// The pinned batch: stream 0 of slot 0, computed through SimTransport.
PinSums PinBatch(const transport::LiveSource& replay, uint64_t seed) {
  const std::vector<LiveQuery> queries = StreamQueries(seed, 0, 0);
  transport::SimTransport sim(replay.schedule());
  const StreamResult r = RunStream(replay, sim, TuneInFor(replay, seed, 0, 0, 0),
                                   queries, SessionSeed(seed, 0, 0), nullptr);
  PinSums p;
  for (const sim::QueryResult& a : r.answers) {
    p.latency += a.latency_bytes;
    p.tuning += a.tuning_bytes;
    ++p.queries;
  }
  return p;
}

/// Checker-side state: an independent rebuild of each family's recipe and
/// the per-generation oracles.
struct Replay {
  std::vector<std::unique_ptr<transport::LiveSource>> sources;
  std::vector<std::vector<Oracle>> oracles;  // [family][generation]
};

std::unique_ptr<Replay> BuildReplay(uint64_t seed) {
  auto r = std::make_unique<Replay>();
  for (size_t f = 0; f < kNumFamilies; ++f) {
    r->sources.push_back(std::make_unique<transport::LiveSource>(Recipe(seed, f)));
    std::vector<Oracle> per_gen;
    for (size_t g = 0; g < r->sources[f]->num_generations(); ++g) {
      per_gen.emplace_back(r->sources[f]->objects(g));
    }
    r->oracles.push_back(std::move(per_gen));
  }
  return r;
}

}  // namespace

void RunLive(const RunConfig& cfg, RunOutput* out) {
  const std::unique_ptr<Replay> replay = BuildReplay(cfg.seed);
  const Pins pins(cfg.pins_path);
  if (cfg.pins_only) {
    std::array<PinSums, kNumFamilies> sums;
    for (size_t f = 0; f < kNumFamilies; ++f) {
      sums[f] = PinBatch(*replay->sources[f], cfg.seed);
    }
    CheckPins(cfg, sums, out);
    return;
  }

  // Set-up: every daemon's LiveSource, listen and start; median of repeats.
  std::vector<double> setup_s;
  std::unique_ptr<Daemons> daemons;
  std::vector<std::unique_ptr<Daemons>> retired;
  double heap_delta = 0.0;
  while (MoreSetups(cfg, setup_s)) {
    if (daemons != nullptr) {
      retired.push_back(std::move(daemons));
      StopAll(&retired);
    }
    const double heap0 = HeapInUse();
    setup_s.push_back(
        HostScaledSeconds([&] { daemons = StartDaemons(cfg, &out->gate); }));
    heap_delta = HeapInUse() - heap0;
    if (daemons == nullptr) return;
  }

  std::array<double, kNumFamilies> busy{};
  std::array<uint64_t, kNumFamilies> answers{};
  std::array<std::array<uint64_t, kSlots>, kNumFamilies> next_stream{};
  std::array<std::array<uint64_t, kSlots>, kNumFamilies> floor{};
  std::array<ClientTrace, kNumFamilies> traces;
  std::vector<double> connect_ms;
  SpanLog log;
  uint64_t wait_ns = 0;
  double query_wall = 0.0;
  // The first round (one phase per family) is the run's fixed prefix: its
  // frame and restart counts depend on the seed alone.
  uint64_t first_frames = 0;
  uint64_t first_restarts = 0;
  uint64_t first_answers = 0;
  uint64_t qid = 0;
  size_t phases = 0;

  SliceRates rates(cfg.seconds);
  const double wall0 = WallNow();
  const double cpu0 = CpuNow();
  // Past --seconds the loop still finishes rounds until every family has
  // kMinAnswers answers (its p95 then rests on >= 10 samples beyond it),
  // but never runs past 1.5 times --seconds, so a run's length stays close
  // to what it was asked for.
  auto more = [&] {
    const double elapsed = WallNow() - wall0;
    const uint64_t fewest = *std::min_element(answers.begin(), answers.end());
    return phases % kNumFamilies != 0 || phases == 0 || elapsed < cfg.seconds ||
           (fewest < kMinAnswers && elapsed < 1.5 * cfg.seconds);
  };
  while (more()) {
    const size_t f = phases % kNumFamilies;
    const bool first_round = phases < kNumFamilies;
    // Traced runs alternate traced and untraced rounds of all families.
    const bool traced = cfg.trace && (phases / kNumFamilies) % 2 == 0;
    std::array<Connection, kSlots> conns;
    std::array<StreamTrace, kSlots> st;
    std::array<std::vector<LiveQuery>, kSlots> queries;
    std::array<ClientTrace, kSlots> slot_trace;
    std::array<SpanLog, kSlots> slot_log;
    for (size_t s = 0; s < kSlots; ++s) {
      conns[s].stream = next_stream[f][s]++;
      queries[s] = StreamQueries(cfg.seed, s, conns[s].stream);
      st[s] = StreamTrace{&slot_trace[s], &slot_log[s], qid, static_cast<int>(f),
                          first_round};
      qid += kStreamQueries;
    }
    const double p0 = WallNow();
    std::array<std::thread, kSlots> threads;
    for (size_t s = 0; s < kSlots; ++s) {
      const size_t di = f * kSlots + s;
      const uint64_t tune_in = TuneInFor(*replay->sources[f], cfg.seed, s,
                                         conns[s].stream, floor[f][s]);
      threads[s] = std::thread(Connect, daemons->endpoints[di],
                               daemons->d[di].get(), tune_in, queries[s],
                               SessionSeed(cfg.seed, s, conns[s].stream),
                               traced ? &st[s] : nullptr, &conns[s]);
    }
    for (std::thread& t : threads) t.join();
    const double phase_s = WallNow() - p0;
    busy[f] += phase_s;
    rates.Add(f, 0.0, phase_s, 0.0);
    if (cfg.trace) {
      (traced ? traces[f].traced_us : traces[f].untraced_us)
          .push_back(phase_s * 1e6 / (kSlots * kStreamQueries));
    }

    for (size_t s = 0; s < kSlots; ++s) {
      const Connection& c = conns[s];
      PinSums pin;
      const bool pinned_batch = (s == 0 && c.stream == 0);
      CheckConnection(*replay->sources[f], replay->oracles[f], cfg.seed, f, s, c,
                      &out->gate, pinned_batch ? &pin : nullptr);
      if (pinned_batch && c.ok &&
          !pins.Check("live", cfg.seed, f, pin, &out->gate)) {
        out->info.push_back("no pinned byte totals for live seed " +
                            std::to_string(cfg.seed) + " " + kFamilies[f]);
      }
      if (!c.ok) continue;
      floor[f][s] = StreamEnd(c);
      answers[f] += c.result.answers.size();
      rates.Add(f, static_cast<double>(c.result.answers.size()), 0.0,
                static_cast<double>(c.wall.frames));
      for (double ms : c.result.answer_ms) rates.AddAnswer(f, ms);
      wait_ns += c.wall.wait_nanos;
      query_wall += c.result.query_wall_s;
      connect_ms.push_back(c.connect_ms);
      if (first_round) {
        first_frames += c.wall.frames;
        first_restarts += c.result.restarts;
        first_answers += c.result.answers.size();
      }
      if (traced) {
        ClientTrace& t = traces[f];
        const ClientTrace& u = slot_trace[s];
        t.query_us.insert(t.query_us.end(), u.query_us.begin(), u.query_us.end());
        t.query_s += u.query_s;
        t.reads += u.reads;
        t.queries += u.queries;
        t.counted += u.counted;
        t.listens += u.listens;
        t.lost += u.lost;
        t.repairs += u.repairs;
      }
    }
    if (traced) {
      for (size_t s = 0; s < kSlots; ++s) log.Append(slot_log[s]);
    }
    rates.Calibrate(8);
    ++phases;
  }
  const double wall = WallNow() - wall0;
  const double cpu = CpuNow() - cpu0;
  out->info.push_back("cpu/wall over the measured loop: " + std::to_string(cpu / wall));
  retired.push_back(std::move(daemons));
  StopAll(&retired);

  out->info.push_back("host slowdown against the reference: " +
                      std::to_string(rates.Slowdown()));
  for (size_t f = 0; f < kNumFamilies; ++f) {
    out->info.push_back(std::string(kFamilies[f]) + ": " + std::to_string(answers[f]) +
                        " live answers in " + std::to_string(busy[f]) + " s");
  }

  if (!cfg.trace) {
    for (size_t f = 0; f < kNumFamilies; ++f) {
      Put(&out->metrics, std::string("qps.") + kFamilies[f], rates.Rate(f), "q/s");
    }
    Put(&out->metrics, "answer_ms.p50", rates.AnswerQuantile(0.50), "ms");
    Put(&out->metrics, "answer_ms.p95", rates.AnswerQuantile(0.95), "ms");
    Put(&out->metrics, "frames_per_s", rates.PacketRate(), "1/s");
    Put(&out->metrics, "setup_s", Quantile(setup_s, 0.5), "s");
    Put(&out->metrics, "heap_bytes_per_object", heap_delta / kLiveObjects, "B");
    Put(&out->metrics, "peak_rss_mb", PeakRssMb(), "MiB");
    return;
  }

  // Traced run: per-layer metrics. Live clients are continuous (heap)
  // clients; the arena/heap construction evidence comes from fresh
  // simulated sessions over each family's generation-0 program.
  std::array<const air::AirIndexHandle*, kNumFamilies> gen0{};
  for (size_t f = 0; f < kNumFamilies; ++f) gen0[f] = &replay->sources[f]->handle(0);
  MeasureMakeClient(gen0, Mix(cfg.seed, 63), &traces);
  EmitClientMetrics(traces, &out->metrics);
  Put(&out->metrics, "transport.connect_ms", Quantile(connect_ms, 0.5), "ms");
  Put(&out->metrics, "transport.wait_frac",
      static_cast<double>(wait_ns) * 1e-9 / query_wall, "fraction");
  Put(&out->metrics, "transport.frames_per_query",
      static_cast<double>(first_frames) / static_cast<double>(first_answers), "count");
  Put(&out->metrics, "sim.restarts_per_step",
      static_cast<double>(first_restarts) / static_cast<double>(first_answers), "count");
  Put(&out->metrics, "sim.skipped_steps", 0.0, "count");
  MeasureWire(*replay->sources[0], Mix(cfg.seed, 60), &out->metrics);

  // Index builds, re-layouts and decomposition on the recipe's own data.
  const transport::LiveSource& src = *replay->sources[0];
  const common::Rect u = datasets::UnitUniverse();
  const double g0 = WallNow();
  const auto objects = datasets::MakeUniform(kLiveObjects, u, Recipe(cfg.seed, 0).seed * 3 + 1);
  const auto ops = datasets::MakeUpdateStream(objects, 100, u, Mix(cfg.seed, 61));
  const double generate_s = WallNow() - g0;
  BuildStats build;
  const FamilySet fams(objects, src.mapper(), &build);
  EmitBuildMetrics(build, kLiveObjects, generate_s,
                   MeasureRepublish(fams, objects, cfg.seed), &out->metrics);
  LayerInputs in;
  for (size_t f = 0; f < kNumFamilies; ++f) in.handles[f] = &fams.handle(f);
  in.mapper = &src.mapper();
  in.seed = cfg.seed;
  const Oracle oracle(objects);
  for (uint64_t stream = 0; in.windows.size() < 512; ++stream) {
    for (const LiveQuery& q : StreamQueries(cfg.seed, 0, stream)) {
      in.windows.push_back(q.rect);
      in.points.push_back(q.point);
      in.radii.push_back(oracle.KnnDistances(q.point, kK).back());
    }
  }
  std::vector<uint64_t> wakes;
  const uint64_t horizon = src.schedule().TuneInHorizon();
  common::Rng rng(Mix(cfg.seed, 62));
  for (int i = 0; i < 4096; ++i) {
    wakes.push_back(static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(horizon) - 1)));
  }
  MeasureCommonLayers(in, wakes, &out->metrics);
  Put(&out->metrics, "sim.pool_speedup", OneShotPoolSpeedup(in), "x");
  if (!cfg.work_dir.empty()) {
    const std::string path = TraceDir(cfg) + "/live-seed" +
                             std::to_string(cfg.seed) + ".spans.jsonl";
    if (!log.Write(path)) out->info.push_back("could not write " + path);
  }
}

void MeasureLiveCompanion(const RunConfig& cfg, MetricMap* m, Gate* gate) {
  const uint64_t seed = cfg.seed;
  const std::unique_ptr<Replay> replay = BuildReplay(seed);
  transport::BroadcastDaemon daemon(Recipe(seed, 0), 0.0);
  const std::string ep = NewEndpoint(cfg);
  std::string error;
  if (!daemon.Listen(ep, &error)) {
    gate->Attempt();
    gate->Fail("companion daemon listen failed: " + error);
    return;
  }
  daemon.Start();
  std::vector<double> connect_ms;
  uint64_t frames = 0;
  uint64_t wait_ns = 0;
  double query_wall = 0.0;
  uint64_t answers = 0;
  uint64_t floor = 0;
  for (uint64_t stream = 0; stream < 4; ++stream) {
    Connection c;
    c.stream = stream;
    Connect(ep, &daemon, TuneInFor(*replay->sources[0], seed, 0, stream, floor),
            StreamQueries(seed, 0, stream), SessionSeed(seed, 0, stream), nullptr, &c);
    CheckConnection(*replay->sources[0], replay->oracles[0], seed, 0, 0, c, gate,
                    nullptr);
    if (!c.ok) continue;
    floor = StreamEnd(c);
    connect_ms.push_back(c.connect_ms);
    frames += c.wall.frames;
    wait_ns += c.wall.wait_nanos;
    query_wall += c.result.query_wall_s;
    answers += c.result.answers.size();
  }
  daemon.Stop();
  Put(m, "transport.connect_ms", Quantile(connect_ms, 0.5), "ms");
  Put(m, "transport.wait_frac",
      query_wall == 0.0 ? 0.0 : static_cast<double>(wait_ns) * 1e-9 / query_wall,
      "fraction");
  Put(m, "transport.frames_per_query",
      answers == 0 ? 0.0 : static_cast<double>(frames) / static_cast<double>(answers),
      "count");
  MeasureWire(*replay->sources[0], Mix(seed, 60), m);
}

}  // namespace pb
