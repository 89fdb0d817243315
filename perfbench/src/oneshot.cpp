/// The one-shot workloads, `window` and `knn`: paper-style single-query
/// clients on a clean flat cycle. Uniform data, n = 10^5, packet capacity
/// 64, DSI m = 2; Fig-9 windows (WinSideRatio 0.1) or Fig-11 10NN queries
/// (conservative). Every query is one sim::RunWorkload call with 1 worker,
/// so each answer is timed on its own; the four families take turns query
/// by query (round-robin), so slow host phases hit all of them alike.

#include <algorithm>
#include <cstdio>

#include "common.hpp"
#include "layers.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"

namespace pb {
namespace {

constexpr size_t kObjects = 100000;
// Distinct queries per run: more than any family answers in a run, so the
// rare pathological queries (HCI kNN has some) recur at their true rate
// instead of once per pass over a small pool.
constexpr size_t kPool = 1 << 16;
constexpr size_t kPinQueries = 16;   // pool prefix whose bytes are pinned
constexpr size_t kK = 10;

// Queries per family per round: the fast families run more queries so that
// none is timed in milliseconds over a run.
constexpr std::array<size_t, kNumFamilies> kWindowMult = {1, 1, 1, 8};
constexpr std::array<size_t, kNumFamilies> kKnnMult = {1, 8, 32, 64};

struct Setup {
  std::vector<datasets::SpatialObject> objects;
  std::vector<common::Rect> windows;
  std::vector<common::Point> points;
  std::unique_ptr<hilbert::SpaceMapper> mapper;
  std::unique_ptr<FamilySet> fams;
  BuildStats build;
  double generate_s = 0.0;
};

std::unique_ptr<Setup> BuildSetup(uint64_t seed, bool knn) {
  auto s = std::make_unique<Setup>();
  const common::Rect u = datasets::UnitUniverse();
  const double t0 = WallNow();
  s->objects = datasets::MakeUniform(kObjects, u, Mix(seed, 1));
  if (knn) {
    s->points = sim::MakeKnnWorkload(kPool, u, Mix(seed, 2));
  } else {
    s->windows = sim::MakeWindowWorkload(kPool, 0.1, u, Mix(seed, 2));
  }
  s->generate_s = WallNow() - t0;
  s->mapper = std::make_unique<hilbert::SpaceMapper>(
      u, hilbert::ChooseOrder(kObjects));
  s->fams = std::make_unique<FamilySet>(s->objects, *s->mapper, &s->build);
  return s;
}

/// RunOptions::seed of pool query \p idx: the same tune-in for every family.
uint64_t QuerySeed(uint64_t seed, size_t idx) { return Mix(seed, 1000 + idx); }

/// One answered query: checks it against the oracle, adds its bytes to the
/// family's pin sums while inside the pinned prefix.
void CheckAnswer(const Oracle& oracle, const Setup& s, bool knn, size_t f,
                 size_t idx, uint64_t q, const sim::QueryResult& r, Gate* gate,
                 std::array<PinSums, kNumFamilies>* pins) {
  const std::string what = std::string(kFamilies[f]) + (knn ? " knn" : " window") +
                           " query " + std::to_string(idx);
  if (!r.completed) {
    gate->Attempt();
    gate->Fail(what + ": watchdog-incomplete");
  } else if (knn) {
    gate->Expect(r.knn_distances, oracle.KnnDistances(s.points[idx], kK),
                 what + ": kNN distances differ from the oracle");
  } else {
    gate->Expect(r.ids, oracle.Window(s.windows[idx]),
                 what + ": ids differ from the oracle");
  }
  if (q < kPinQueries) {
    (*pins)[f].latency += r.latency_bytes;
    (*pins)[f].tuning += r.tuning_bytes;
    ++(*pins)[f].queries;
  }
}

/// The grid oracle must agree with the linear scan (a few queries per run).
void SelfCheckOracle(const Oracle& oracle, const Setup& s, bool knn,
                     Gate* gate) {
  for (size_t i = 0; i < 8; ++i) {
    if (knn) {
      gate->Expect(oracle.KnnDistances(s.points[i], kK),
                   oracle.KnnScan(s.points[i], kK), "grid oracle kNN vs scan");
    } else {
      gate->Expect(oracle.Window(s.windows[i]), oracle.WindowScan(s.windows[i]),
                   "grid oracle window vs scan");
    }
  }
}

/// Untraced end-to-end loop.
void MeasureEndToEnd(const RunConfig& cfg, bool knn, const Setup& s,
                     const Oracle& oracle, RunOutput* out) {
  const auto& mult = knn ? kKnnMult : kWindowMult;
  sim::Workload wl = knn ? sim::Workload::Knn({s.points[0]}, kK)
                         : sim::Workload::Window({s.windows[0]});
  std::vector<sim::QueryResult> results;
  sim::RunOptions opts;
  opts.workers = 1;
  opts.results = &results;

  std::array<uint64_t, kNumFamilies> cursor{};
  std::array<double, kNumFamilies> busy{};
  std::array<double, kNumFamilies> slowest_ms{};
  std::array<PinSums, kNumFamilies> pins{};
  SliceRates rates(cfg.seconds);
  bool pinned = false;

  const double wall0 = WallNow();
  const double cpu0 = CpuNow();
  while (!pinned || WallNow() - wall0 < cfg.seconds) {
    for (size_t f = 0; f < kNumFamilies; ++f) {
      const air::AirIndexHandle& handle = s.fams->handle(f);
      for (size_t j = 0; j < mult[f]; ++j) {
        const uint64_t q = cursor[f]++;
        const size_t idx = q % kPool;
        if (knn) {
          wl.points[0] = s.points[idx];
        } else {
          wl.windows[0] = s.windows[idx];
        }
        opts.seed = QuerySeed(cfg.seed, idx);
        const double t0 = WallNow();
        sim::RunWorkload(handle, wl, opts);
        const double dt = WallNow() - t0;
        busy[f] += dt;
        slowest_ms[f] = std::max(slowest_ms[f], dt * 1e3);
        rates.Add(f, 1.0, dt, static_cast<double>(results[0].tuning_bytes) / kCapacity);
        rates.AddAnswer(f, dt * 1e3);
        CheckAnswer(oracle, s, knn, f, idx, q, results[0], &out->gate, &pins);
      }
    }
    rates.Calibrate();
    pinned = std::all_of(cursor.begin(), cursor.end(),
                         [](uint64_t c) { return c >= kPinQueries; });
    if (cfg.pins_only && pinned) break;
  }
  const double wall = WallNow() - wall0;
  const double cpu = CpuNow() - cpu0;
  CheckPins(cfg, pins, out);

  for (size_t f = 0; f < kNumFamilies; ++f) {
    Put(&out->metrics, std::string("qps.") + kFamilies[f], rates.Rate(f), "q/s");
    out->info.push_back(std::string(kFamilies[f]) + ": " +
                        std::to_string(cursor[f]) + " queries in " +
                        std::to_string(busy[f]) + " s, slowest " +
                        std::to_string(slowest_ms[f]) + " ms (wall)");
  }
  Put(&out->metrics, "answer_ms.p50", rates.AnswerQuantile(0.50), "ms");
  Put(&out->metrics, "answer_ms.p95", rates.AnswerQuantile(0.95), "ms");
  Put(&out->metrics, "frames_per_s", rates.PacketRate(), "1/s");
  out->info.push_back("host slowdown against the reference: " +
                      std::to_string(rates.Slowdown()));
  out->info.push_back("cpu/wall over the measured loop: " +
                      std::to_string(cpu / wall));
}

/// Traced loop: the same queries driven directly through AirClient so each
/// query gets spans (client.make, client.query) and a radio trace; rounds
/// alternate traced / untraced for trace.overhead_frac.
void MeasureTraced(const RunConfig& cfg, bool knn, const Setup& s,
                   const Oracle& oracle, RunOutput* out) {
  const auto& mult = knn ? kKnnMult : kWindowMult;
  std::array<ClientTrace, kNumFamilies> traces;
  std::array<uint64_t, kNumFamilies> cursor{};
  std::array<PinSums, kNumFamilies> pins{};
  SpanLog log;
  air::ClientArena arena;
  std::vector<broadcast::TraceEvent> events;
  std::vector<hilbert::HcRange> ranges;
  uint64_t qid = 0;
  size_t round = 0;
  bool traced = true;
  bool pinned = false;

  const double wall0 = WallNow();
  while (!pinned || WallNow() - wall0 < cfg.seconds) {
    for (size_t f = 0; f < kNumFamilies; ++f) {
      const air::AirIndexHandle& handle = s.fams->handle(f);
      const broadcast::BroadcastProgram& program = handle.program();
      ClientTrace& t = traces[f];
      for (size_t j = 0; j < mult[f]; ++j, ++qid) {
        const uint64_t q = cursor[f]++;
        const size_t idx = q % kPool;
        // The engine's per-query derivation (sim::RunWorkload, query 0 of a
        // one-query workload): same tune-in, same session stream.
        common::Rng rng(sim::MixSeed(QuerySeed(cfg.seed, idx), 0));
        const auto tune_in = static_cast<uint64_t>(rng.UniformInt(
            0, static_cast<int64_t>(program.cycle_packets()) - 1));
        broadcast::ClientSession session(program, tune_in,
                                         broadcast::ErrorModel{}, rng.Fork());
        events.clear();
        const uint32_t root =
            traced ? log.Open(qid, Span::kNoParent, "query", static_cast<int>(f))
                   : 0;
        if (traced) session.set_trace(&events);
        const double m0 = WallNow();
        air::AirClient* client = handle.MakeClientIn(arena, &session);
        const double m1 = WallNow();
        const std::vector<datasets::SpatialObject> answer =
            knn ? client->KnnQuery(s.points[idx], kK)
                : client->WindowQuery(s.windows[idx]);
        const double m2 = WallNow();
        if (traced) {
          log.Add(qid, root, "client.make", static_cast<int>(f), m0, m1);
          log.Add(qid, root, "client.query", static_cast<int>(f), m1, m2);
          t.query_us.push_back((m2 - m1) * 1e6);
          t.query_s += m2 - m1;
          const air::ClientStats st = client->stats();
          t.reads += static_cast<double>(st.index_reads + st.object_reads);
          ++t.queries;
          if (round < kExactRounds) CountEvents(events, &t);
          t.traced_us.push_back((m2 - m0) * 1e6);
          // Re-timings of the Hilbert layer and of the session's slot
          // lookup on this query's own input.
          const double radius =
              knn ? oracle.KnnDistances(s.points[idx], kK).back() : 0.0;
          double r0 = WallNow();
          if (knn) {
            s.mapper->CircleToRanges(s.points[idx], radius, &ranges);
          } else {
            s.mapper->WindowToRanges(s.windows[idx], &ranges);
          }
          log.Add(qid, root, knn ? "hilbert.circle_ranges" : "hilbert.window_ranges",
                  static_cast<int>(f), r0, WallNow());
          r0 = WallNow();
          Sink(RetimePacketsUntil(session, events));
          log.Add(qid, root, "broadcast.packets_until", static_cast<int>(f), r0,
                  WallNow());
          log.Close(root);
        } else {
          t.untraced_us.push_back((m2 - m0) * 1e6);
        }

        sim::QueryResult r;
        const broadcast::Metrics bm = session.metrics();
        r.completed = client->stats().completed;
        r.ids = SortedIds(answer);
        if (knn) r.knn_distances = SortedDistances(answer, s.points[idx]);
        r.latency_bytes = bm.access_latency_bytes;
        r.tuning_bytes = bm.tuning_bytes;
        CheckAnswer(oracle, s, knn, f, idx, q, r, &out->gate, &pins);
      }
    }
    ++round;
    traced = round % 2 == 0;
    pinned = round >= kExactRounds &&
             std::all_of(cursor.begin(), cursor.end(),
                         [](uint64_t c) { return c >= kPinQueries; });
  }
  CheckPins(cfg, pins, out);
  std::array<const air::AirIndexHandle*, kNumFamilies> handles{};
  for (size_t f = 0; f < kNumFamilies; ++f) handles[f] = &s.fams->handle(f);
  MeasureMakeClient(handles, Mix(cfg.seed, 63), &traces);
  EmitClientMetrics(traces, &out->metrics);
  if (!cfg.work_dir.empty()) {
    const std::string path = TraceDir(cfg) + "/" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed) + ".spans.jsonl";
    if (!log.Write(path)) out->info.push_back("could not write " + path);
  }
}

}  // namespace

void RunOneShot(const RunConfig& cfg, bool knn, RunOutput* out) {
  // Set-up: repeated, reported as the median; the last build is kept. The
  // heap figure is the delta across that last build.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  double heap_delta = 0.0;
  while (MoreSetups(cfg, setup_s)) {
    s.reset();
    const double heap0 = HeapInUse();
    setup_s.push_back(HostScaledSeconds([&] { s = BuildSetup(cfg.seed, knn); }));
    heap_delta = HeapInUse() - heap0;
  }
  const Oracle oracle(s->objects);
  SelfCheckOracle(oracle, *s, knn, &out->gate);

  if (!cfg.trace) {
    MeasureEndToEnd(cfg, knn, *s, oracle, out);
    Put(&out->metrics, "setup_s", Quantile(setup_s, 0.5), "s");
    Put(&out->metrics, "heap_bytes_per_object",
        heap_delta / static_cast<double>(kObjects), "B");
    Put(&out->metrics, "peak_rss_mb", PeakRssMb(), "MiB");
    return;
  }

  MeasureTraced(cfg, knn, *s, oracle, out);
  EmitBuildMetrics(s->build, kObjects, s->generate_s,
                   MeasureRepublish(*s->fams, s->objects, cfg.seed),
                   &out->metrics);
  LayerInputs in;
  for (size_t f = 0; f < kNumFamilies; ++f) in.handles[f] = &s->fams->handle(f);
  in.mapper = s->mapper.get();
  in.seed = cfg.seed;
  const size_t n = 512;
  if (knn) {
    in.points.assign(s->points.begin(), s->points.begin() + n);
    in.windows = sim::MakeWindowWorkload(n, 0.1, datasets::UnitUniverse(),
                                         Mix(cfg.seed, 3));
  } else {
    in.windows.assign(s->windows.begin(), s->windows.begin() + n);
    for (const auto& w : in.windows) in.points.push_back(w.Center());
  }
  for (const auto& p : in.points) in.radii.push_back(oracle.KnnDistances(p, kK).back());
  // Calendar input: the one-shot clients' wakes are their tune-in packets.
  std::vector<uint64_t> wakes;
  const uint64_t cycle = s->fams->handle(0).program().cycle_packets();
  for (size_t i = 0; i < kPool; ++i) {
    common::Rng rng(sim::MixSeed(QuerySeed(cfg.seed, i), 0));
    wakes.push_back(static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(cycle) - 1)));
  }
  MeasureCommonLayers(in, wakes, &out->metrics);
  Put(&out->metrics, "sim.pool_speedup", OneShotPoolSpeedup(in), "x");
  Put(&out->metrics, "sim.restarts_per_step", 0.0, "count");
  Put(&out->metrics, "sim.skipped_steps", 0.0, "count");
  MeasureLiveCompanion(cfg, &out->metrics, &out->gate);
}

}  // namespace pb
