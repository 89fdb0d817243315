/// perfbench — the repository benchmark program.
///
///   perfbench --workload window|knn|city|live --seed N --seconds S
///             --trace 0|1 [--pins FILE] [--work-dir DIR] [--pins-only]
///   perfbench --self-test [--work-dir DIR]
///
/// Prints diagnostics on stderr and, as the last line of stdout, one JSON
/// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
/// the end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
/// The work directory (default .bench_build, relative paths keep unix socket
/// names short) holds the live daemons' sockets and the traced runs' span
/// logs (traces/<workload>-seed<N>.spans.jsonl).
/// Exits 1 when the correctness gate counted a failure, 2 on bad usage.
/// --pins-only prints the pinned-batch byte totals (pins.tsv lines) instead.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload window|knn|city|live "
               "--seed N --seconds S --trace 0|1 [--pins FILE] [--work-dir DIR] "
               "[--pins-only] | --self-test [--work-dir DIR]\n",
               why);
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunConfig cfg;
  bool self_test = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    uint64_t n = 0;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--pins-only") {
      cfg.pins_only = true;
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      cfg.workload = v;
    } else if (arg == "--seed") {
      if (!ParseU64(v, &cfg.seed)) return Usage("bad --seed");
    } else if (arg == "--seconds") {
      if (!ParseU64(v, &n) || n == 0) return Usage("bad --seconds");
      cfg.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (!ParseU64(v, &n) || n > 1) return Usage("bad --trace");
      cfg.trace = n == 1;
      have_trace = true;
    } else if (arg == "--pins") {
      cfg.pins_path = v;
    } else if (arg == "--work-dir") {
      cfg.work_dir = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  ::mkdir(cfg.work_dir.c_str(), 0755);
  if (self_test) return pb::SelfTest(cfg.work_dir + "/selftest-pins.tsv");
  if (!have_trace && !cfg.pins_only) return Usage("--trace is required");

  pb::RunOutput out;
  if (cfg.workload == "window" || cfg.workload == "knn") {
    pb::RunOneShot(cfg, cfg.workload == "knn", &out);
  } else if (cfg.workload == "city") {
    pb::RunCity(cfg, &out);
  } else if (cfg.workload == "live") {
    pb::RunLive(cfg, &out);
  } else {
    return Usage("unknown --workload");
  }

  for (const std::string& line : out.info) {
    std::fprintf(stderr, "[%s] %s\n", cfg.workload.c_str(), line.c_str());
  }
  for (const std::string& note : out.gate.notes()) {
    std::fprintf(stderr, "[%s] FAILED: %s\n", cfg.workload.c_str(), note.c_str());
  }
  if (cfg.pins_only) {
    for (const std::string& line : out.pin_lines) std::printf("%s\n", line.c_str());
    return out.gate.failed() == 0 ? 0 : 1;
  }

  const bool correct = out.gate.failed() == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.gate.attempted());
  json += ", \"failed\": " + std::to_string(out.gate.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    json += (first ? "" : ", ");
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

namespace pb {

int SelfTest(const std::string& pins_path) {
  // A small real query through the same gate calls the workloads use.
  const auto objects = datasets::MakeUniform(2000, datasets::UnitUniverse(), 5);
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(),
                                    hilbert::ChooseOrder(objects.size()));
  const FamilySet fams(objects, mapper, nullptr);
  const Oracle oracle(objects);
  const common::Rect window{0.2, 0.2, 0.5, 0.5};
  std::vector<sim::QueryResult> results;
  sim::RunOptions opts;
  opts.seed = 9;
  opts.results = &results;
  sim::RunWorkload(fams.handle(0), sim::Workload::Window({window}), opts);
  PinSums sums{results[0].latency_bytes, results[0].tuning_bytes, 1};

  std::FILE* f = std::fopen(pins_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "self-test: cannot write %s\n", pins_path.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", Pins::Line("selftest", 0, 0, sums).c_str());
  std::fclose(f);
  const Pins pins(pins_path);

  Gate gate;
  // Genuine answer and genuine byte totals: both pass.
  gate.Expect(results[0].ids, oracle.Window(window), "genuine answer");
  pins.Check("selftest", 0, 0, sums, &gate);
  const bool clean = gate.failed() == 0;
  // One wrong answer (an object dropped) and one wrong byte total.
  std::vector<uint32_t> wrong = results[0].ids;
  if (!wrong.empty()) wrong.pop_back();
  gate.Expect(wrong, oracle.Window(window), "injected wrong answer");
  PinSums off = sums;
  off.tuning += 1;
  pins.Check("selftest", 0, 0, off, &gate);
  std::remove(pins_path.c_str());

  const bool ok = clean && gate.attempted() == 4 && gate.failed() == 2;
  std::printf("self-test: %s (attempted %llu, failed %llu; expected 4 and 2)\n",
              ok ? "ok" : "FAILED",
              static_cast<unsigned long long>(gate.attempted()),
              static_cast<unsigned long long>(gate.failed()));
  for (const std::string& note : gate.notes()) {
    std::printf("  counted: %s\n", note.c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace pb
