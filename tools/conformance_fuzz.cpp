/// \file conformance_fuzz.cpp
/// \brief Differential conformance fuzzer over the broadcast engine.
///
/// Sweep mode (default) replays seed-determined conformance cases — all
/// four index families, lossy channels, reorganized broadcasts, dynamic
/// multi-generation broadcasts with update streams, duplicate-heavy
/// datasets, degenerate queries, and continuous moving-client tours
/// (persistent warm clients checked for result parity against fresh cold
/// clients at every step, plus the per-query tuning <= latency audit;
/// every seed also runs the tours through BOTH simulation cores — the
/// loop oracle and the event-driven scheduler — and diffs them
/// bit-exactly, with churned populations on a quarter of the seeds) —
/// against brute-force oracles (--help lists the flags).
///
/// --min-generations / --min-updates lift every swept case to at least
/// that many broadcast generations / update ops between generations — the
/// dedicated update-stream sweep CI runs. Passing --theta, --error-mode,
/// --code-group, --code-parity, --clients (moving-client population),
/// --churn-rate, --num-disks or --disk-skew in sweep mode pins that axis
/// across every swept case (the coded-channel, burst-weather, churn and
/// skewed-multi-disk CI sweeps); axes not pinned keep their
/// seed-determined values. Pinning the coding axis alone clears the
/// seed-determined disk layout and vice versa, so each pinned sweep runs
/// exactly one server layout; pinning both runs coded multi-disk cycles.
///
/// A case fails on any oracle divergence (completed queries are checked
/// against the object set of the generation they answered for) OR — at
/// theta <= 0.7, where every family must finish — any watchdog-aborted
/// query (phantom aborts are how the blocking-recovery bug class
/// manifests). In the extreme-loss band (theta > 0.7) aborts are
/// legitimate; only completed-query correctness and the exact
/// AvgMetrics::incomplete accounting are enforced. The driver then shrinks
/// the failing instance (smaller dataset, lossless channel, static
/// broadcast, serial execution — whatever keeps it failing) and prints a
/// one-line reproducer. Replaying one (--repro) runs exactly that instance
/// and prints every divergence in full. Exit code 0 = conformant, 1 =
/// divergence, 2 = bad usage.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "sim/conformance.hpp"

namespace {

using dsi::sim::ConformanceCase;
using dsi::sim::ConformanceReport;
using dsi::sim::Divergence;

std::vector<std::string> SplitFamilies(const std::string& value) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < value.size()) {
    const size_t comma = value.find(',', pos);
    const size_t end = comma == std::string::npos ? value.size() : comma;
    if (end > pos) out.push_back(value.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

bool ParseMode(const std::string& value, dsi::broadcast::ErrorMode* mode) {
  if (value == "read") *mode = dsi::broadcast::ErrorMode::kPerReadLoss;
  else if (value == "event") *mode = dsi::broadcast::ErrorMode::kSingleEvent;
  else if (value == "bucket") *mode = dsi::broadcast::ErrorMode::kPerBucketLoss;
  else if (value == "burst") *mode = dsi::broadcast::ErrorMode::kBurstLoss;
  else return false;
  return true;
}

void PrintDivergences(const ConformanceCase& c, const ConformanceReport& r) {
  for (const Divergence& d : r.divergences) {
    std::printf("  DIVERGENCE family=%s workload=%s query=%zu: %s\n",
                d.family.c_str(), d.workload.c_str(), d.query_index,
                d.detail.c_str());
  }
  for (const Divergence& d : r.incomplete_queries) {
    std::printf("  INCOMPLETE family=%s workload=%s query=%zu: %s\n",
                d.family.c_str(), d.workload.c_str(), d.query_index,
                d.detail.c_str());
  }
  std::printf("  checked=%zu incomplete=%zu divergences=%zu\n",
              r.queries_checked, r.incomplete, r.divergences.size());
  (void)c;
}

/// A case fails if any query diverged from the oracle OR — at theta <= 0.7,
/// where every family must finish — was watchdog-aborted (phantom aborts
/// were exactly how the blocking-on-lost-buckets bug class manifested —
/// they must fail CI, not just divergences). Beyond 0.7 aborts are the
/// channel's fault; correctness of completed queries and exact incomplete
/// accounting (checked inside the harness, surfaced as divergences) still
/// apply.
bool CaseFails(const ConformanceCase& c, const ConformanceReport& r) {
  return !r.divergences.empty() || (c.theta <= 0.7 && r.incomplete > 0);
}

/// Greedy shrink: apply each simplification while the (family-restricted)
/// case keeps failing; every accepted step makes the reproducer smaller
/// or more deterministic.
ConformanceCase Shrink(ConformanceCase c,
                       const std::vector<std::string>& families) {
  auto fails = [&](const ConformanceCase& candidate) {
    return CaseFails(candidate, RunConformanceCase(candidate, families));
  };
  // Smaller dataset.
  while (c.n / 2 >= 8) {
    ConformanceCase candidate = c;
    candidate.n = c.n / 2;
    if (!fails(candidate)) break;
    c = candidate;
  }
  // Static broadcast, then fewer updates.
  if (c.generations > 1) {
    ConformanceCase candidate = c;
    candidate.generations = 1;
    candidate.updates_per_gen = 0;
    if (fails(candidate)) c = candidate;
  }
  while (c.generations > 1 && c.updates_per_gen > 1) {
    ConformanceCase candidate = c;
    candidate.updates_per_gen = c.updates_per_gen / 2;
    if (!fails(candidate)) break;
    c = candidate;
  }
  // No moving clients, then shorter tours.
  if (c.trajectory_clients > 0) {
    ConformanceCase candidate = c;
    candidate.trajectory_clients = 0;
    candidate.trajectory_steps = 0;
    if (fails(candidate)) c = candidate;
  }
  while (c.trajectory_clients > 1 || c.trajectory_steps > 2) {
    ConformanceCase candidate = c;
    candidate.trajectory_clients = std::max<uint32_t>(1, c.trajectory_clients / 2);
    candidate.trajectory_steps = std::max<uint32_t>(2, c.trajectory_steps / 2);
    if (candidate.trajectory_clients == c.trajectory_clients &&
        candidate.trajectory_steps == c.trajectory_steps) {
      break;
    }
    if (!fails(candidate)) break;
    c = candidate;
  }
  // Churn-free population (uniform tune-ins, nobody departs).
  if (c.churn_rate != 0.0) {
    ConformanceCase candidate = c;
    candidate.churn_rate = 0.0;
    if (fails(candidate)) c = candidate;
  }
  // Uncoded channel (repairs off, plain broadcast layout).
  if (c.code_group != 0 || c.code_parity != 0) {
    ConformanceCase candidate = c;
    candidate.code_group = 0;
    candidate.code_parity = 0;
    if (fails(candidate)) c = candidate;
  }
  // Flat single-disk cycle (skewed sampling off too: disk_skew drives the
  // query distribution, so the pair shrinks together).
  if (c.num_disks != 1 || c.disk_skew != 0.0) {
    ConformanceCase candidate = c;
    candidate.num_disks = 1;
    candidate.disk_skew = 0.0;
    if (fails(candidate)) c = candidate;
  }
  // Lossless channel.
  if (c.theta != 0.0) {
    ConformanceCase candidate = c;
    candidate.theta = 0.0;
    if (fails(candidate)) c = candidate;
  }
  // Serial execution.
  if (c.workers != 1) {
    ConformanceCase candidate = c;
    candidate.workers = 1;
    if (fails(candidate)) c = candidate;
  }
  // Fewer random queries (degenerates always remain).
  while (c.window_queries > 0 || c.knn_points > 0) {
    ConformanceCase candidate = c;
    candidate.window_queries = c.window_queries / 2;
    candidate.knn_points = c.knn_points / 2;
    if (!fails(candidate)) break;
    c = candidate;
    if (candidate.window_queries == 0 && candidate.knn_points == 0) break;
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  bool repro = false;
  uint64_t seeds = 50;
  uint64_t start = 0;
  std::string family_list;
  std::string error_mode = "read";
  ConformanceCase base;  // repro: the case; sweep: axes pinned when Seen
  // Sweep-mode floors: force every case onto the dynamic-broadcast axis.
  uint32_t min_generations = 1;
  uint32_t min_updates = 0;
  dsi::common::Flags flags;
  flags.Add("repro", &repro, "run exactly the case given by the flags");
  flags.Add("seeds", &seeds, "sweep: number of seeds");
  flags.Add("start", &start, "sweep: first seed");
  flags.Add("families", &family_list, "subset of dsi,rtree,hci,expindex");
  flags.Add("min-generations", &min_generations, "sweep: generations floor");
  flags.Add("min-updates", &min_updates, "sweep: dynamic cases' update floor");
  flags.Add("seed", &base.seed, "repro: master seed (required)");
  flags.Add("n", &base.n, "dataset cardinality");
  flags.Add("order", &base.order, "Hilbert curve order");
  flags.Add("capacity", &base.capacity, "packet capacity in bytes");
  flags.Add("clustered", &base.clustered, "clustered (vs uniform) dataset");
  flags.Add("m", &base.m, "DSI broadcast segments");
  flags.Add("object-factor", &base.object_factor, "DSI objects per frame");
  flags.Add("chunk-size", &base.chunk_size, "exponential-index chunk size");
  flags.Add("theta", &base.theta, "link-error rate (pins)");
  flags.Add("error-mode", &error_mode, "read, event, bucket or burst (pins)");
  flags.Add("workers", &base.workers, "engine worker threads");
  flags.Add("windows", &base.window_queries, "random window queries");
  flags.Add("knn-points", &base.knn_points, "random kNN query points");
  flags.Add("k", &base.k, "small-k value");
  flags.Add("duplicates", &base.duplicates, "duplicate-heavy dataset");
  flags.Add("generations", &base.generations, "broadcast generations");
  flags.Add("updates", &base.updates_per_gen, "update ops per generation");
  flags.Add("gen-cycles", &base.gen_cycles, "cycles per generation");
  flags.Add("code-group", &base.code_group, "erasure-coding group (pins)");
  flags.Add("code-parity", &base.code_parity, "parity per group (pins)");
  flags.Add("clients", &base.trajectory_clients, "moving clients (pins)");
  flags.Add("traj-steps", &base.trajectory_steps, "steps per client tour");
  flags.Add("churn-rate", &base.churn_rate, "client churn rate (pins)");
  flags.Add("num-disks", &base.num_disks, "broadcast disks (pins)");
  flags.Add("disk-skew", &base.disk_skew, "disk popularity skew (pins)");
  flags.Parse(argc, argv);
  const std::vector<std::string> families = SplitFamilies(family_list);
  for (const std::string& f : families) {
    if (f != "dsi" && f != "rtree" && f != "hci" && f != "expindex") {
      std::fprintf(stderr, "unknown family: %s\n", f.c_str());
      return 2;
    }
  }
  if (!ParseMode(error_mode, &base.error_mode)) {
    std::fprintf(stderr, "unknown error mode: %s\n", error_mode.c_str());
    return 2;
  }

  // A hand-edited reproducer line must fail as usage error, not crash.
  if (base.n == 0 || base.order < 1 || base.order > 16 || base.capacity < 32 ||
      base.theta < 0.0 || base.theta > 1.0 || base.workers == 0 ||
      base.generations == 0 || base.gen_cycles == 0 ||
      base.code_group + base.code_parity > 64 || base.churn_rate < 0.0 ||
      base.churn_rate > 1.0 || base.num_disks < 1 || base.num_disks > 3 ||
      base.disk_skew < 0.0) {
    std::fprintf(stderr,
                 "invalid case: need --n>=1, 1<=--order<=16, --capacity>=32, "
                 "0<=--theta<=1, --workers>=1, --generations>=1, "
                 "--gen-cycles>=1, --code-group + --code-parity <= 64, "
                 "0<=--churn-rate<=1, 1<=--num-disks<=3, --disk-skew>=0\n");
    return 2;
  }

  if (repro) {
    if (!flags.Seen("seed")) {
      std::fprintf(stderr, "--repro requires --seed\n");
      return 2;
    }
    const ConformanceReport r = RunConformanceCase(base, families);
    std::printf("repro seed=%llu\n",
                static_cast<unsigned long long>(base.seed));
    PrintDivergences(base, r);
    return CaseFails(base, r) ? 1 : 0;
  }

  size_t checked = 0;
  size_t incomplete = 0;
  size_t restarted = 0;
  for (uint64_t seed = start; seed < start + seeds; ++seed) {
    ConformanceCase c = dsi::sim::MakeConformanceCase(seed);
    if (min_generations > c.generations) c.generations = min_generations;
    if (c.generations > 1 && min_updates > c.updates_per_gen) {
      c.updates_per_gen = min_updates;
    }
    // Pinned axes override the seed-determined values across the whole
    // sweep (dataset/query/tune-in derivation stays seed-driven).
    if (flags.Seen("theta")) c.theta = base.theta;
    if (flags.Seen("error-mode")) c.error_mode = base.error_mode;
    // A pinned layout axis replaces the seed-determined one; the other
    // layout axis is cleared unless it is pinned too.
    const bool pin_coding =
        flags.Seen("code-group") || flags.Seen("code-parity");
    const bool pin_disks = flags.Seen("num-disks") || flags.Seen("disk-skew");
    if (pin_coding || pin_disks) {
      c.code_group = pin_coding ? base.code_group : 0;
      c.code_parity = pin_coding ? base.code_parity : 0;
      c.num_disks = pin_disks ? base.num_disks : 1;
      c.disk_skew = pin_disks ? base.disk_skew : 0.0;
    }
    if (flags.Seen("clients")) {
      c.trajectory_clients = base.trajectory_clients;
    }
    if (flags.Seen("churn-rate")) c.churn_rate = base.churn_rate;
    const ConformanceReport r = RunConformanceCase(c, families);
    checked += r.queries_checked;
    incomplete += r.incomplete;
    restarted += r.restarted;
    if (CaseFails(c, r)) {
      std::printf("seed %llu FAILED:\n",
                  static_cast<unsigned long long>(seed));
      PrintDivergences(c, r);
      // Shrink against the families that actually failed.
      std::vector<std::string> failing;
      for (const std::vector<Divergence>* list :
           {&r.divergences, &r.incomplete_queries}) {
        for (const Divergence& d : *list) {
          if (std::find(failing.begin(), failing.end(), d.family) ==
              failing.end()) {
            failing.push_back(d.family);
          }
        }
      }
      const ConformanceCase small = Shrink(c, failing);
      const ConformanceReport small_r = RunConformanceCase(small, failing);
      std::printf("shrunk instance:\n");
      PrintDivergences(small, small_r);
      std::string fam_list;
      for (const std::string& f : failing) {
        fam_list += (fam_list.empty() ? "" : ",") + f;
      }
      std::printf("REPRODUCE: %s\n",
                  dsi::sim::FormatReproducer(small, fam_list).c_str());
      return 1;
    }
    if ((seed - start + 1) % 25 == 0) {
      std::printf(
          "... %llu seeds done (%zu queries checked, %zu incomplete, "
          "%zu cross-generation restarts)\n",
          static_cast<unsigned long long>(seed - start + 1), checked,
          incomplete, restarted);
    }
  }
  std::printf(
      "CONFORMANT: %llu seeds, %zu queries checked against the oracle, "
      "%zu incomplete (watchdog) skipped, %zu cross-generation restarts\n",
      static_cast<unsigned long long>(seeds), checked, incomplete,
      restarted);
  return 0;
}
