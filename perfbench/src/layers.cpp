#include "layers.hpp"

#include <algorithm>

#include "air/disk_layout.hpp"
#include "broadcast/coding.hpp"
#include "broadcast/disks.hpp"
#include "sim/runner.hpp"
#include "sim/scheduler.hpp"
#include "sim/workload.hpp"
#include "wire/framing.hpp"

namespace pb {
namespace {

std::string Fam(const char* prefix, size_t f, const char* suffix = "") {
  return std::string(prefix) + kFamilies[f] + suffix;
}

}  // namespace

void CountEvents(const std::vector<broadcast::TraceEvent>& events,
                 ClientTrace* t) {
  ++t->counted;
  for (const broadcast::TraceEvent& e : events) {
    if (e.kind == broadcast::TraceEvent::Kind::kListen) {
      ++t->listens;
      if (e.lost) ++t->lost;
    } else if (e.kind == broadcast::TraceEvent::Kind::kRepair) {
      ++t->repairs;
    }
  }
}

uint64_t RetimePacketsUntil(const broadcast::ClientSession& session,
                            const std::vector<broadcast::TraceEvent>& events) {
  // Listens from before a republication name slots of the old generation's
  // program; only those that are slots of the current one can be asked.
  const size_t slots = session.program().num_data_buckets();
  uint64_t acc = 0;
  for (const broadcast::TraceEvent& e : events) {
    if (e.kind == broadcast::TraceEvent::Kind::kListen && e.slot < slots) {
      acc += session.PacketsUntil(e.slot);
    }
  }
  return acc;
}

void MeasureMakeClient(
    const std::array<const air::AirIndexHandle*, kNumFamilies>& handles,
    uint64_t seed, std::array<ClientTrace, kNumFamilies>* traces) {
  common::Rng rng(seed);
  air::ClientArena arena;
  for (int i = 0; i < 256; ++i) {
    for (size_t f = 0; f < kNumFamilies; ++f) {
      const broadcast::BroadcastProgram& program = handles[f]->program();
      const auto tune_in = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(program.cycle_packets()) - 1));
      broadcast::ClientSession a(program, tune_in, broadcast::ErrorModel{},
                                 common::Rng(seed + static_cast<uint64_t>(i)));
      broadcast::ClientSession b = a;
      const double t0 = WallNow();
      air::AirClient* in_arena = handles[f]->MakeClientIn(arena, &a);
      const double t1 = WallNow();
      std::unique_ptr<air::AirClient> on_heap = handles[f]->MakeClient(&b);
      const double t2 = WallNow();
      Sink(reinterpret_cast<uintptr_t>(in_arena) ^
           reinterpret_cast<uintptr_t>(on_heap.get()));
      (*traces)[f].make_arena_ns.push_back((t1 - t0) * 1e9);
      (*traces)[f].make_heap_ns.push_back((t2 - t1) * 1e9);
    }
  }
}

void EmitClientMetrics(const std::array<ClientTrace, kNumFamilies>& traces,
                       MetricMap* m) {
  uint64_t repairs = 0;
  uint64_t queries = 0;
  for (size_t f = 0; f < kNumFamilies; ++f) {
    const ClientTrace& t = traces[f];
    const double n = std::max<double>(1.0, static_cast<double>(t.counted));
    Put(m, Fam("client.", f, ".query_us.p50"), Quantile(t.query_us, 0.50), "us");
    Put(m, Fam("client.", f, ".query_us.p95"), Quantile(t.query_us, 0.95), "us");
    Put(m, Fam("client.", f, ".query_us.max"), Quantile(t.query_us, 1.0), "us");
    Put(m, Fam("client.", f, ".ns_per_read"),
        t.reads == 0.0 ? 0.0 : t.query_s * 1e9 / t.reads, "ns");
    Put(m, Fam("session.listens_per_query.", f),
        static_cast<double>(t.listens) / n, "count");
    Put(m, Fam("session.lost_per_query.", f), static_cast<double>(t.lost) / n,
        "count");
    Put(m, Fam("air.make_client_ns.arena.", f), Quantile(t.make_arena_ns, 0.5),
        "ns");
    Put(m, Fam("air.make_client_ns.heap.", f), Quantile(t.make_heap_ns, 0.5),
        "ns");
    const double plain = Quantile(t.untraced_us, 0.5);
    Put(m, Fam("trace.overhead_frac.", f),
        plain == 0.0 ? 0.0 : Quantile(t.traced_us, 0.5) / plain - 1.0, "fraction");
    repairs += t.repairs;
    queries += t.counted;
  }
  Put(m, "session.repairs_per_query",
      static_cast<double>(repairs) / std::max<double>(1.0, static_cast<double>(queries)),
      "count");
}

void EmitBuildMetrics(const BuildStats& build, double objects,
                      double generate_s, double republish_s, MetricMap* m) {
  Put(m, "datasets.generate_s", generate_s, "s");
  for (size_t f = 0; f < kNumFamilies; ++f) {
    Put(m, Fam("build.", f, "_s"), build.seconds[f], "s");
    Put(m, Fam("build.", f, "_bytes_per_object"), build.heap_bytes[f] / objects,
        "B");
  }
  Put(m, "build.republish_s", republish_s, "s");
}

namespace {

/// Mean ns per PacketsUntil call over a fixed random slot sequence.
double PacketsUntilNs(const broadcast::BroadcastProgram& program,
                      uint64_t seed) {
  common::Rng rng(seed);
  const auto tune_in = static_cast<uint64_t>(
      rng.UniformInt(0, static_cast<int64_t>(program.cycle_packets()) - 1));
  broadcast::ClientSession session(program, tune_in, broadcast::ErrorModel{},
                                   rng.Fork());
  session.InitialProbe();
  std::vector<size_t> slots(4096);
  for (size_t& s : slots) {
    s = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(program.num_data_buckets()) - 1));
  }
  constexpr int kReps = 64;
  uint64_t acc = 0;
  const double t0 = WallNow();
  for (int r = 0; r < kReps; ++r) {
    for (size_t s : slots) acc += session.PacketsUntil(s);
  }
  const double dt = WallNow() - t0;
  Sink(acc);
  return dt * 1e9 / static_cast<double>(kReps * slots.size());
}

}  // namespace

void MeasureCommonLayers(const LayerInputs& in,
                         const std::vector<uint64_t>& wakes, MetricMap* m) {
  // Hilbert decomposition on the workload's own windows and kNN circles.
  std::vector<hilbert::HcRange> ranges;
  constexpr int kReps = 4;
  double ranges_total = 0.0;
  double t0 = WallNow();
  for (int r = 0; r < kReps; ++r) {
    for (const common::Rect& w : in.windows) {
      in.mapper->WindowToRanges(w, &ranges);
      if (r == 0) ranges_total += static_cast<double>(ranges.size());
    }
  }
  Put(m, "hilbert.window_ranges_ns",
      (WallNow() - t0) * 1e9 / static_cast<double>(kReps * in.windows.size()), "ns");
  Put(m, "hilbert.ranges_per_window",
      ranges_total / static_cast<double>(in.windows.size()), "count");
  t0 = WallNow();
  for (int r = 0; r < kReps; ++r) {
    for (size_t i = 0; i < in.points.size(); ++i) {
      in.mapper->CircleToRanges(in.points[i], in.radii[i], &ranges);
    }
  }
  Put(m, "hilbert.circle_ranges_ns",
      (WallNow() - t0) * 1e9 / static_cast<double>(kReps * in.points.size()), "ns");

  // Server-side re-layouts of every family's cycle.
  const broadcast::DiskConfig disks{3, 1.2, 8, Mix(in.seed, 5)};
  const broadcast::CodingConfig coding{4, 1};
  std::vector<broadcast::BroadcastProgram> skewed;
  std::vector<broadcast::BroadcastProgram> coded;
  t0 = WallNow();
  for (const air::AirIndexHandle* h : in.handles) {
    skewed.push_back(air::MakeSkewedProgram(*h, disks));
  }
  Put(m, "broadcast.disk_layout_s", WallNow() - t0, "s");
  t0 = WallNow();
  for (const air::AirIndexHandle* h : in.handles) {
    coded.push_back(broadcast::MakeCodedProgram(h->program(), coding));
  }
  Put(m, "broadcast.coded_program_s", WallNow() - t0, "s");

  // Slot lookups of the channel session, on DSI's flat, skewed and coded
  // cycles.
  Put(m, "broadcast.packets_until_ns.flat",
      PacketsUntilNs(in.handles[0]->program(), Mix(in.seed, 6)), "ns");
  Put(m, "broadcast.packets_until_ns.disk", PacketsUntilNs(skewed[0], Mix(in.seed, 6)),
      "ns");
  Put(m, "broadcast.packets_until_ns.coded", PacketsUntilNs(coded[0], Mix(in.seed, 6)),
      "ns");

  // Calendar queue Push + Pop over the workload's wake times.
  if (!wakes.empty()) {
    const uint64_t span = *std::max_element(wakes.begin(), wakes.end()) + 1;
    constexpr int kCalReps = 16;
    uint64_t acc = 0;
    t0 = WallNow();
    for (int r = 0; r < kCalReps; ++r) {
      sim::CalendarQueue cal(std::max<uint64_t>(1, span / 256));
      for (size_t i = 0; i < wakes.size(); ++i) {
        cal.Push(wakes[i], static_cast<uint32_t>(i));
      }
      while (!cal.empty()) acc += cal.Pop().wake_packet;
    }
    Sink(acc);
    Put(m, "sim.calendar_ns_per_event",
        (WallNow() - t0) * 1e9 / static_cast<double>(kCalReps * wakes.size()),
        "ns");
  }

  // RunOptions::scheduled (calendar-ordered one-shot clients) against the
  // default index order, same window batch, alternating.
  const size_t batch = std::min<size_t>(32, in.windows.size());
  const sim::Workload wl = sim::Workload::Window(
      std::vector<common::Rect>(in.windows.begin(), in.windows.begin() + batch));
  for (size_t f = 0; f < kNumFamilies; ++f) {
    double plain = 0.0;
    double sched = 0.0;
    for (int r = 0; r < 2; ++r) {
      for (bool scheduled : {false, true}) {
        sim::RunOptions opts;
        opts.seed = Mix(in.seed, 8);
        opts.workers = 1;
        opts.scheduled = scheduled;
        const double s0 = WallNow();
        sim::RunWorkload(*in.handles[f], wl, opts);
        (scheduled ? sched : plain) += WallNow() - s0;
      }
    }
    Put(m, Fam("sim.default_qps.", f), 2.0 * static_cast<double>(batch) / plain,
        "q/s");
    Put(m, Fam("sim.scheduled_qps.", f), 2.0 * static_cast<double>(batch) / sched,
        "q/s");
  }
}

double OneShotPoolSpeedup(const LayerInputs& in) {
  const size_t batch = std::min<size_t>(64, in.windows.size());
  const sim::Workload wl = sim::Workload::Window(
      std::vector<common::Rect>(in.windows.begin(), in.windows.begin() + batch));
  double serial = 0.0;
  double pooled = 0.0;
  for (size_t f = 0; f < kNumFamilies; ++f) {
    for (size_t workers : {1, 2}) {
      sim::RunOptions opts;
      opts.seed = Mix(in.seed, 9);
      opts.workers = workers;
      const double t0 = WallNow();
      sim::RunWorkload(*in.handles[f], wl, opts);
      (workers == 1 ? serial : pooled) += WallNow() - t0;
    }
  }
  return serial / pooled;
}

double MeasureRepublish(const FamilySet& fams,
                        const std::vector<datasets::SpatialObject>& objects,
                        uint64_t seed) {
  const common::Rect u = datasets::UnitUniverse();
  const auto ops = datasets::MakeUpdateStream(objects, objects.size() / 100, u,
                                              Mix(seed, 7));
  const auto next = datasets::ApplyUpdates(objects, ops);
  const double t0 = WallNow();
  const FamilySet republished(fams, next, ops, nullptr);
  return WallNow() - t0;
}

void MeasureWire(const transport::LiveSource& source, uint64_t seed,
                 MetricMap* m) {
  const broadcast::BroadcastProgram& program = source.program(0);
  common::Rng rng(seed);
  std::vector<size_t> slots(512);
  for (size_t& s : slots) {
    s = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(program.num_buckets()) - 1));
  }
  std::vector<wire::BucketFrame> frames(slots.size());
  double t0 = WallNow();
  for (size_t i = 0; i < slots.size(); ++i) {
    frames[i].content = source.BucketContent(0, slots[i]);
  }
  Put(m, "wire.bucket_content_ns",
      (WallNow() - t0) * 1e9 / static_cast<double>(slots.size()), "ns");
  std::vector<std::vector<uint8_t>> encoded(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    const broadcast::Bucket& b = program.bucket(slots[i]);
    frames[i].phys_slot = slots[i];
    frames[i].start_packet = b.start_packet;
    frames[i].kind = b.kind;
    frames[i].payload_id = b.payload;
  }
  t0 = WallNow();
  for (size_t i = 0; i < slots.size(); ++i) {
    encoded[i] = wire::EncodeBucketFrame(frames[i]);
  }
  Put(m, "wire.bucket_frame_encode_ns",
      (WallNow() - t0) * 1e9 / static_cast<double>(slots.size()), "ns");
  wire::BucketFrame decoded;
  uint64_t acc = 0;
  t0 = WallNow();
  for (size_t i = 0; i < slots.size(); ++i) {
    acc += wire::DecodeBucketFrame(encoded[i], &decoded) ? decoded.content.size() : 0;
  }
  Sink(acc);
  Put(m, "wire.bucket_frame_decode_ns",
      (WallNow() - t0) * 1e9 / static_cast<double>(slots.size()), "ns");
}

}  // namespace pb
