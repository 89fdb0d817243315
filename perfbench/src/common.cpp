#include "common.hpp"

#include <malloc.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace pb {

namespace {
volatile uint64_t g_sink = 0;
}  // namespace

void Sink(uint64_t value) { g_sink = g_sink + value; }

double WallNow() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double CpuNow() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double FamilyQuantile(const std::array<std::vector<double>, kNumFamilies>& per_family,
                      double q) {
  double log_sum = 0.0;
  for (const auto& samples : per_family) log_sum += std::log(Quantile(samples, q));
  return std::exp(log_sum / static_cast<double>(per_family.size()));
}

double HostUnit() {
  constexpr int kIters = 200000;  // ~250 us on the reference host
  const double t0 = WallNow();
  uint64_t x = g_sink | 1;
  uint64_t acc = 0;
  for (int i = 0; i < kIters; ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    acc ^= z ^ (z >> 31);
  }
  Sink(acc);
  return WallNow() - t0;
}

double HostSlowdown(size_t units) {
  double total = 0.0;
  for (size_t i = 0; i < units; ++i) total += HostUnit();
  return total / static_cast<double>(units) / kRefUnitSeconds;
}

SliceRates::SliceRates(double seconds, size_t slices)
    : start_(WallNow()),
      width_(seconds / static_cast<double>(slices)),
      slices_(slices) {}

size_t SliceRates::Current() const {
  const auto at = static_cast<size_t>((WallNow() - start_) / width_);
  return std::min(at, slices_.size() - 1);
}

void SliceRates::Add(size_t family, double count, double busy_s,
                     double packets) {
  Slice& s = slices_[Current()];
  s.count[family] += count;
  s.busy[family] += busy_s;
  s.packets += packets;
}

void SliceRates::AddAnswer(size_t family, double ms) {
  answers_[family].emplace_back(Current(), ms);
}

void SliceRates::Calibrate(size_t units) {
  Slice& s = slices_[Current()];
  for (size_t i = 0; i < units; ++i) s.cal_s += HostUnit();
  s.cal_n += static_cast<double>(units);
}

double SliceRates::Slowdown() const {
  double cal_s = 0.0;
  double cal_n = 0.0;
  for (const Slice& s : slices_) {
    cal_s += s.cal_s;
    cal_n += s.cal_n;
  }
  return cal_n > 0.0 ? cal_s / cal_n / kRefUnitSeconds : 1.0;
}

double SliceRates::SlowdownOf(const Slice& s) const {
  return s.cal_n > 0.0 ? s.cal_s / s.cal_n / kRefUnitSeconds : Slowdown();
}

double SliceRates::Rate(size_t family) const {
  std::vector<double> rates;
  for (const Slice& s : slices_) {
    if (s.busy[family] > 0.0) {
      rates.push_back(s.count[family] / s.busy[family] * SlowdownOf(s));
    }
  }
  return Quantile(rates, 0.5);
}

double SliceRates::PacketRate() const {
  std::vector<double> rates;
  for (const Slice& s : slices_) {
    double busy = 0.0;
    for (double b : s.busy) busy += b;
    if (busy > 0.0) rates.push_back(s.packets / busy * SlowdownOf(s));
  }
  return Quantile(rates, 0.5);
}

double SliceRates::AnswerQuantile(double q) const {
  std::array<std::vector<double>, kNumFamilies> scaled;
  for (size_t f = 0; f < kNumFamilies; ++f) {
    for (const auto& [slice, ms] : answers_[f]) {
      scaled[f].push_back(ms / SlowdownOf(slices_[slice]));
    }
  }
  return FamilyQuantile(scaled, q);
}

double HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void Put(MetricMap* m, const std::string& name, double value,
         const std::string& unit) {
  (*m)[name] = Metric{value, unit};
}

void CheckPins(const RunConfig& cfg,
               const std::array<PinSums, kNumFamilies>& pins, RunOutput* out) {
  const Pins table(cfg.pins_path);
  for (size_t f = 0; f < kNumFamilies; ++f) {
    if (cfg.pins_only) {
      out->pin_lines.push_back(Pins::Line(cfg.workload, cfg.seed, f, pins[f]));
    } else if (!table.Check(cfg.workload, cfg.seed, f, pins[f], &out->gate)) {
      out->info.push_back("no pinned byte totals for " + cfg.workload + " seed " +
                          std::to_string(cfg.seed) + " " + kFamilies[f]);
    }
  }
}

std::string TraceDir(const RunConfig& cfg) {
  const std::string dir = cfg.work_dir + "/traces";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

// --- gate -------------------------------------------------------------------

void Gate::Fail(const std::string& why) {
  ++failed_;
  if (notes_.size() < 8) notes_.push_back(why);
}

// --- oracle -----------------------------------------------------------------

Oracle::Oracle(const std::vector<datasets::SpatialObject>& objects)
    : objects_(objects), universe_(datasets::UnitUniverse()) {
  side_ = std::max<size_t>(
      1, static_cast<size_t>(std::sqrt(static_cast<double>(objects.size()) / 4.0)));
  std::vector<uint32_t> count(side_ * side_ + 1, 0);
  std::vector<uint32_t> cell_of(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    const auto& p = objects[i].location;
    cell_of[i] = static_cast<uint32_t>(CellY(p.y) * side_ + CellX(p.x));
    ++count[cell_of[i] + 1];
  }
  for (size_t c = 1; c < count.size(); ++c) count[c] += count[c - 1];
  start_ = count;
  items_.resize(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    items_[count[cell_of[i]]++] = static_cast<uint32_t>(i);
  }
}

size_t Oracle::CellX(double x) const {
  const double t = (x - universe_.min_x) / universe_.Width();
  return std::min(side_ - 1, static_cast<size_t>(std::max(0.0, t) *
                                                 static_cast<double>(side_)));
}

size_t Oracle::CellY(double y) const {
  const double t = (y - universe_.min_y) / universe_.Height();
  return std::min(side_ - 1, static_cast<size_t>(std::max(0.0, t) *
                                                 static_cast<double>(side_)));
}

std::vector<uint32_t> Oracle::Window(const common::Rect& w) const {
  std::vector<uint32_t> ids;
  const size_t x0 = CellX(w.min_x), x1 = CellX(w.max_x);
  const size_t y0 = CellY(w.min_y), y1 = CellY(w.max_y);
  for (size_t y = y0; y <= y1; ++y) {
    for (size_t x = x0; x <= x1; ++x) {
      const size_t c = y * side_ + x;
      for (uint32_t k = start_[c]; k < start_[c + 1]; ++k) {
        const auto& o = objects_[items_[k]];
        if (w.Contains(o.location)) ids.push_back(o.id);
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<double> Oracle::KnnDistances(const common::Point& q,
                                         size_t k) const {
  k = std::min(k, objects_.size());
  if (k == 0) return {};
  // Grow a square around q until it holds k objects within radius r: every
  // object outside the square is farther than r, so those k are exact.
  double r = std::sqrt(static_cast<double>(k) /
                       static_cast<double>(objects_.size())) *
             universe_.Width();
  const double diag = std::hypot(universe_.Width(), universe_.Height()) * 2.0;
  std::vector<double> within;
  for (;;) {
    within.clear();
    const common::Rect box{q.x - r, q.y - r, q.x + r, q.y + r};
    const size_t x0 = CellX(box.min_x), x1 = CellX(box.max_x);
    const size_t y0 = CellY(box.min_y), y1 = CellY(box.max_y);
    for (size_t y = y0; y <= y1; ++y) {
      for (size_t x = x0; x <= x1; ++x) {
        const size_t c = y * side_ + x;
        for (uint32_t i = start_[c]; i < start_[c + 1]; ++i) {
          const double d = common::Distance(q, objects_[items_[i]].location);
          if (d <= r) within.push_back(d);
        }
      }
    }
    if (within.size() >= k || r > diag) break;
    r *= 2.0;
  }
  std::sort(within.begin(), within.end());
  within.resize(std::min(k, within.size()));
  return within;
}

std::vector<uint32_t> Oracle::WindowScan(const common::Rect& w) const {
  std::vector<uint32_t> ids;
  for (const auto& o : objects_) {
    if (w.Contains(o.location)) ids.push_back(o.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<double> Oracle::KnnScan(const common::Point& q, size_t k) const {
  std::vector<double> d;
  d.reserve(objects_.size());
  for (const auto& o : objects_) d.push_back(common::Distance(q, o.location));
  std::sort(d.begin(), d.end());
  d.resize(std::min(k, d.size()));
  return d;
}

std::vector<uint32_t> SortedIds(
    const std::vector<datasets::SpatialObject>& answer) {
  std::vector<uint32_t> ids;
  ids.reserve(answer.size());
  for (const auto& o : answer) ids.push_back(o.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<double> SortedDistances(
    const std::vector<datasets::SpatialObject>& answer,
    const common::Point& q) {
  std::vector<double> d;
  d.reserve(answer.size());
  for (const auto& o : answer) d.push_back(common::Distance(q, o.location));
  std::sort(d.begin(), d.end());
  return d;
}

// --- pins -------------------------------------------------------------------

namespace {
std::string PinKey(const std::string& workload, uint64_t seed, size_t family) {
  return workload + "\t" + std::to_string(seed) + "\t" + kFamilies[family];
}
std::string PinValue(const PinSums& s) {
  return std::to_string(s.queries) + "\t" + std::to_string(s.latency) + "\t" +
         std::to_string(s.tuning);
}
}  // namespace

Pins::Pins(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // workload \t seed \t family \t queries \t latency \t tuning
    size_t tab = 0;
    for (int i = 0; i < 3 && tab != std::string::npos; ++i) {
      tab = line.find('\t', tab + (i == 0 ? 0 : 1));
    }
    if (tab == std::string::npos) continue;
    rows_[line.substr(0, tab)] = line.substr(tab + 1);
  }
}

bool Pins::Check(const std::string& workload, uint64_t seed, size_t family,
                 const PinSums& got, Gate* gate) const {
  const auto it = rows_.find(PinKey(workload, seed, family));
  if (it == rows_.end()) return false;
  gate->Attempt();
  if (it->second != PinValue(got)) {
    gate->Fail(workload + " " + kFamilies[family] + ": byte totals " +
               PinValue(got) + " differ from pinned " + it->second);
  }
  return true;
}

std::string Pins::Line(const std::string& workload, uint64_t seed,
                       size_t family, const PinSums& sums) {
  return PinKey(workload, seed, family) + "\t" + PinValue(sums);
}

// --- families ---------------------------------------------------------------

core::DsiConfig DsiM2() {
  core::DsiConfig c;
  c.num_segments = 2;
  return c;
}

namespace {

template <class Fn>
void TimedBuild(size_t f, BuildStats* stats, Fn&& build) {
  const double heap0 = HeapInUse();
  const double t0 = WallNow();
  build();
  if (stats != nullptr) {
    stats->seconds[f] += WallNow() - t0;
    stats->heap_bytes[f] += HeapInUse() - heap0;
  }
}

}  // namespace

FamilySet::FamilySet(const std::vector<datasets::SpatialObject>& objects,
                     const hilbert::SpaceMapper& mapper, BuildStats* stats) {
  TimedBuild(0, stats, [&] {
    dsi = std::make_unique<core::DsiIndex>(objects, mapper, kCapacity, DsiM2());
    dsi_handle = std::make_unique<air::DsiHandle>(*dsi);
  });
  BuildRest(objects, mapper, stats);
}

FamilySet::FamilySet(const FamilySet& prev,
                     const std::vector<datasets::SpatialObject>& objects,
                     const std::vector<datasets::UpdateOp>& ops,
                     BuildStats* stats) {
  TimedBuild(0, stats, [&] {
    dsi = std::make_unique<core::DsiIndex>(
        core::DsiIndex::Republish(*prev.dsi, ops));
    dsi_handle = std::make_unique<air::DsiHandle>(*dsi);
  });
  BuildRest(objects, prev.dsi->mapper(), stats);
}

void FamilySet::BuildRest(const std::vector<datasets::SpatialObject>& objects,
                          const hilbert::SpaceMapper& mapper, BuildStats* stats) {
  TimedBuild(1, stats, [&] {
    rtree = std::make_unique<rtree::RtreeIndex>(objects, kCapacity);
    rtree_handle = std::make_unique<air::RtreeHandle>(*rtree);
  });
  TimedBuild(2, stats, [&] {
    hci = std::make_unique<hci::HciIndex>(objects, mapper, kCapacity);
    hci_handle = std::make_unique<air::HciHandle>(*hci);
  });
  TimedBuild(3, stats, [&] {
    exp_handle = std::make_unique<air::ExpHandle>(objects, mapper, kCapacity);
  });
  handles = {dsi_handle.get(), rtree_handle.get(), hci_handle.get(),
             exp_handle.get()};
}

// --- spans ------------------------------------------------------------------

uint32_t SpanLog::Open(uint64_t qid, uint32_t parent, const char* name,
                       int family) {
  const double now = WallNow();
  return Add(qid, parent, name, family, now, now);
}

uint32_t SpanLog::Add(uint64_t qid, uint32_t parent, const char* name,
                      int family, double start, double end) {
  Span s;
  s.qid = qid;
  s.parent = parent;
  s.name = name;
  s.family = static_cast<int8_t>(family);
  s.start = start;
  s.end = end;
  spans_.push_back(s);
  return static_cast<uint32_t>(spans_.size() - 1);
}

void SpanLog::Append(const SpanLog& other) {
  const auto base = static_cast<uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent != Span::kNoParent) s.parent += base;
    spans_.push_back(s);
  }
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\": %zu, \"qid\": %llu, \"parent\": %lld, "
                 "\"name\": \"%s\", \"family\": \"%s\", \"start_ns\": %.0f, "
                 "\"end_ns\": %.0f}\n",
                 i, static_cast<unsigned long long>(s.qid),
                 s.parent == Span::kNoParent ? -1LL
                                             : static_cast<long long>(s.parent),
                 s.name, s.family < 0 ? "" : kFamilies[s.family],
                 (s.start - t0) * 1e9, (s.end - t0) * 1e9);
  }
  return std::fclose(f) == 0;
}

}  // namespace pb
