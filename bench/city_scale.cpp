/// City-scale capacity bench: one machine simulating up to 10^6+
/// concurrent moving clients with churn on a single broadcast channel —
/// the event-driven scheduler engine's headline deliverable.
///
/// The ladder sweeps the population 10^3 -> 10^6 (doubling nothing,
/// decade steps), every rung a churned window-query population riding the
/// same small DSI broadcast. Reported per rung:
///
///   * throughput: executed re-evaluations per second and us per step;
///   * memory: peak-RSS growth of the rung divided by its population —
///     the per-client footprint, which must stay flat up the ladder
///     (slot-pooled sessions, calendar events, churn spans: all O(1) per
///     client). The kernel's peak counter is reset before every rung
///     (/proc/self/clear_refs) so small rungs aren't masked by earlier,
///     larger peaks; where the reset is unsupported, masked rungs are
///     flagged "rss_reliable": false instead of reporting 0;
///   * exact churn accounting (ran + skipped = scheduled steps).
///
/// Scale must not change results: client c's tour depends only on
/// (seed, c, workload), never on who else is on the channel — the
/// broadcast is one-way, clients are passive listeners. The bench proves
/// it by re-running the first 20 clients of the smallest rung as their
/// own 20-client population through the LOOP oracle engine and demanding
/// bit-identical per-step results; any deviation fails the run.
///
/// The dataset deliberately defaults small (--objects to override):
/// capacity, not per-query cost, is what this bench scales. Run with
/// --help for the flags. Machine-readable rungs go to
/// BENCH_city_scale.json.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/trajectory.hpp"

namespace {

/// Peak resident set (VmHWM) in bytes. Linux-only; 0 where unavailable.
size_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<size_t>(std::stoull(line.substr(6))) * 1024;
    }
  }
  return 0;
}

/// Resets VmHWM to the current RSS (writing "5" to clear_refs, Linux >= 4.0)
/// so each rung's peak delta measures that rung alone. Without the reset the
/// counter is monotone over the whole process, and anything that ran earlier
/// at a comparable footprint — here the 1000-client load-independence proof
/// — masks the smallest rung's delta down to 0, which silently reported a
/// bogus 0 KB/client. Returns false where unsupported; those rungs are then
/// flagged unreliable instead of reported as zero.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5" << std::flush;
  return clear.good();
}

struct Rung {
  size_t clients = 0;
  size_t scheduled_steps = 0;
  dsi::sim::TrajectoryMetrics m;
  double seconds = 0.0;
  size_t rss_delta_bytes = 0;
  bool rss_reliable = true;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dsi;
  size_t max_clients = 1'000'000;
  size_t steps = 4;
  double churn_rate = 0.3;
  common::Flags flags;
  flags.Add("max-clients", &max_clients, "population ladder cap");
  flags.Add("steps", &steps, "re-evaluations per client tour");
  flags.Add("churn-rate", &churn_rate, "probability a client departs early");
  // Small channel by default: this bench scales clients, not data.
  const bench::Options opt =
      bench::ParseOptions(argc, argv, flags, bench::Options{.objects = 1024});

  const auto objects = bench::MakeDataset(opt);
  const auto u = datasets::UnitUniverse();
  const hilbert::SpaceMapper mapper(u, bench::OrderFor(opt));
  const core::DsiIndex dsi(objects, mapper, 128, bench::DsiReorganized());
  const air::DsiHandle handle(dsi);
  const uint64_t cycle = handle.program().cycle_packets();

  auto make_workload = [&](size_t clients) {
    datasets::TrajectoryParams params;
    params.model = datasets::TrajectoryModel::kRandomWaypoint;
    params.speed = 0.05;
    sim::TrajectoryWorkload wl = sim::MakeTrajectoryWorkload(
        sim::QueryKind::kWindow, clients, steps, params, u, opt.seed + 11);
    wl.window_side = 0.05 * u.Width();
    wl.pace_packets = cycle / 2;
    wl.churn = datasets::MakeChurnStream(
        clients, /*horizon=*/4 * cycle, churn_rate, opt.seed + 13);
    return wl;
  };
  sim::TrajectoryOptions run_opt;
  run_opt.seed = opt.seed;
  run_opt.workers = 0;
  run_opt.cold_baseline = false;  // capacity rungs: warm path only
  run_opt.engine = sim::TrajectoryEngine::kScheduler;

  // Load-independence proof at the smallest rung: the first 20 clients of
  // the 1000-client run, re-run alone through the loop oracle, must
  // produce bit-identical steps (tours depend only on (seed, c,
  // workload); churn spans and trajectories are per-client prefixes).
  {
    const sim::TrajectoryWorkload big = make_workload(1000);
    sim::TrajectoryWorkload small = big;
    small.clients.resize(20);
    small.churn.resize(20);
    std::vector<std::vector<sim::TrajectoryStep>> big_r;
    std::vector<std::vector<sim::TrajectoryStep>> small_r;
    sim::TrajectoryOptions big_opt = run_opt;
    big_opt.results = &big_r;
    sim::TrajectoryOptions small_opt = run_opt;
    small_opt.engine = sim::TrajectoryEngine::kLoop;
    small_opt.results = &small_r;
    sim::RunTrajectories(handle, big, big_opt);
    sim::RunTrajectories(handle, small, small_opt);
    for (size_t c = 0; c < 20; ++c) {
      for (size_t s = 0; s < steps; ++s) {
        const sim::TrajectoryStep& a = big_r[c][s];
        const sim::TrajectoryStep& b = small_r[c][s];
        if (a.ran != b.ran || a.warm.ids != b.warm.ids ||
            a.warm.latency_bytes != b.warm.latency_bytes ||
            a.warm.tuning_bytes != b.warm.tuning_bytes ||
            a.warm.completed != b.warm.completed) {
          std::fprintf(stderr,
                       "LOAD-INDEPENDENCE VIOLATION: client %zu step %zu "
                       "differs between the 1000-client scheduler run and "
                       "the 20-client loop run\n",
                       c, s);
          return 1;
        }
      }
    }
    std::cout << "load-independence: first 20 clients of the 1000-client "
                 "scheduler run == standalone 20-client loop run "
                 "(bit-identical)\n\n";
  }

  std::cout << "City-scale churned population ladder (" << objects.size()
            << " objects, DSI m=2, " << steps << " steps/client, churn "
            << churn_rate << ", pace = cycle/2, scheduler engine)\n\n";
  sim::TablePrinter table({"Clients", "Steps run", "Departed", "Sec",
                           "Steps/s", "us/step", "KB/client"},
                          11);
  table.PrintHeader();

  std::vector<Rung> rungs;
  for (size_t clients = 1000; clients <= max_clients; clients *= 10) {
    const sim::TrajectoryWorkload wl = make_workload(clients);
    const bool peak_reset = ResetPeakRss();
    const size_t rss_before = PeakRssBytes();
    const auto t0 = std::chrono::steady_clock::now();
    Rung rung;
    rung.m = sim::RunTrajectories(handle, wl, run_opt);
    rung.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    rung.clients = clients;
    rung.scheduled_steps = wl.num_steps();
    rung.rss_delta_bytes = PeakRssBytes() - rss_before;
    // Without the per-rung peak reset, a delta of 0 means "no growth past
    // some earlier peak", not "no footprint" — don't present it as a
    // measurement.
    rung.rss_reliable = peak_reset || rung.rss_delta_bytes > 0;
    if (rung.m.steps + rung.m.skipped_steps != rung.scheduled_steps) {
      std::fprintf(stderr, "churn accounting broke at %zu clients\n",
                   clients);
      return 1;
    }
    table.PrintRow(clients, static_cast<double>(rung.m.steps),
                   static_cast<double>(rung.m.departed), rung.seconds,
                   static_cast<double>(rung.m.steps) / rung.seconds,
                   rung.seconds * 1e6 / static_cast<double>(rung.m.steps),
                   static_cast<double>(rung.rss_delta_bytes) /
                       static_cast<double>(clients) / 1024.0);
    rungs.push_back(rung);
  }
  for (const Rung& r : rungs) {
    if (!r.rss_reliable) {
      std::cout << "note: KB/client at " << r.clients
                << " clients is masked by an earlier equal-or-larger peak "
                   "(VmHWM reset unsupported on this kernel) — ignore it\n";
    }
  }

  // Per-client cost must stay flat up the ladder: warn loudly if the last
  // rung pays more than 2x the first per step (the acceptance bound).
  if (rungs.size() >= 2) {
    const double first =
        rungs.front().seconds * 1e6 / static_cast<double>(rungs.front().m.steps);
    const double last =
        rungs.back().seconds * 1e6 / static_cast<double>(rungs.back().m.steps);
    std::cout << "\nper-step cost ratio (largest/smallest rung): "
              << last / first << (last / first <= 2.0 ? " (flat)" : " (NOT FLAT)")
              << "\n";
  }

  std::ofstream json("BENCH_city_scale.json");
  json << "{\n  \"config\": {\"objects\": " << objects.size()
       << ", \"steps\": " << steps << ", \"churn_rate\": " << churn_rate
       << ", \"seed\": " << opt.seed << "},\n  \"results\": [\n";
  for (size_t i = 0; i < rungs.size(); ++i) {
    const Rung& r = rungs[i];
    json << "    {\"clients\": " << r.clients
         << ", \"scheduled_steps\": " << r.scheduled_steps
         << ", \"ran_steps\": " << r.m.steps
         << ", \"departed\": " << r.m.departed
         << ", \"seconds\": " << r.seconds
         << ", \"steps_per_sec\": "
         << static_cast<double>(r.m.steps) / r.seconds
         << ", \"rss_delta_bytes\": " << r.rss_delta_bytes
         << ", \"rss_reliable\": " << (r.rss_reliable ? "true" : "false")
         << ", \"bytes_per_client\": "
         << static_cast<double>(r.rss_delta_bytes) /
                static_cast<double>(r.clients)
         << ", \"avg_latency_bytes\": " << r.m.latency_bytes
         << ", \"avg_tuning_bytes\": " << r.m.tuning_bytes << "}"
         << (i + 1 < rungs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\nwrote BENCH_city_scale.json (" << rungs.size()
            << " rungs)\n";
  return 0;
}
