#pragma once

/// \file common.hpp
/// \brief Shared machinery of the benchmark program: clocks, quantiles,
/// process memory probes, the correctness gate, a grid-accelerated exact
/// oracle, byte-metric pins, the four index families built over one object
/// set, and the in-memory span log of traced runs.
///
/// Everything here sits OUTSIDE the library: it drives the public API and
/// times calls into it from the caller's side.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "air/air_index.hpp"
#include "air/dsi_handle.hpp"
#include "air/exp_handle.hpp"
#include "air/hci_handle.hpp"
#include "air/rtree_handle.hpp"
#include "common/geometry.hpp"
#include "datasets/datasets.hpp"
#include "dsi/index.hpp"
#include "hci/hci.hpp"
#include "hilbert/space_mapper.hpp"
#include "rtree/rtree_air.hpp"
#include "sim/seed_mix.hpp"

namespace pb {

using namespace dsi;

inline constexpr size_t kNumFamilies = 4;
inline constexpr std::array<const char*, kNumFamilies> kFamilies = {
    "dsi", "rtree", "hci", "expindex"};
inline constexpr size_t kCapacity = 64;  // packet capacity, bytes

/// Per-purpose seed derived from the run seed (datasets, queries, tune-ins
/// and update streams each get their own stream).
inline uint64_t Mix(uint64_t seed, uint64_t tag) {
  return sim::MixSeed(seed, tag);
}

// --- clocks and statistics ---------------------------------------------------

/// Keeps a computed value observable so timed loops are not optimized out.
void Sink(uint64_t value);

double WallNow();  ///< Monotonic seconds.
double CpuNow();   ///< Process CPU seconds (all threads).

/// Quantile with linear interpolation between closest ranks (q in [0,1]).
double Quantile(std::vector<double> values, double q);

/// Geometric mean over the families of each family's own \p q-quantile:
/// every family counts alike however many queries it ran, and a family
/// getting faster moves the figure even when the families' answer times
/// lie orders of magnitude apart (a pooled quantile would sit in the gap).
double FamilyQuantile(const std::array<std::vector<double>, kNumFamilies>& per_family,
                      double q);

// --- host speed ---------------------------------------------------------------

/// The benchmark shares a few cores of a host whose speed drifts by up to
/// +-25% over tens of seconds; every family, and any fixed code, slows alike
/// (measured on a 4-vCPU 2.1 GHz Xeon VM: the ratio between two families'
/// rates stays within a few percent while each swings 1.6x). HostUnit() times
/// one fixed register-only kernel (benchmark code, no memory traffic); rates
/// and times are reported scaled to a reference host on which that kernel
/// takes kRefUnitSeconds, so two runs made in different host phases compare.
inline constexpr double kRefUnitSeconds = 250e-6;

/// Wall seconds one calibration unit takes right now.
double HostUnit();

/// Host slowdown against the reference: the mean of \p units calibration
/// units over kRefUnitSeconds (above 1 on a slower host).
double HostSlowdown(size_t units);

/// Runs \p work and returns its wall time scaled to the reference host, by
/// calibration units timed right before and right after it.
template <class F>
double HostScaledSeconds(F&& work) {
  constexpr size_t kUnits = 8;
  const double before = HostSlowdown(kUnits);
  const double t0 = WallNow();
  work();
  const double wall = WallNow() - t0;
  return wall / (0.5 * (before + HostSlowdown(kUnits)));
}

/// Per-family work, busy time and answer times bucketed into fixed
/// wall-clock slices of a run, each slice with its own host calibration.
/// Rates are the median over slices, so a host slowdown that lasts part of
/// a run moves them less than a whole-run ratio would; every rate and time
/// is scaled to the reference host by its slice's calibration.
class SliceRates {
 public:
  explicit SliceRates(double seconds, size_t slices = 10);
  /// Records \p count answers that kept family \p family busy \p busy_s,
  /// with \p packets listened, in the slice the current instant falls in.
  void Add(size_t family, double count, double busy_s, double packets);
  /// Records one answer time of family \p family, in ms.
  void AddAnswer(size_t family, double ms);
  /// Times \p units calibration units into the current slice.
  void Calibrate(size_t units = 1);
  /// Median over slices of the family's answers per busy second.
  double Rate(size_t family) const;
  /// Median over slices of packets listened per busy second.
  double PacketRate() const;
  /// FamilyQuantile of the recorded answer times (ms).
  double AnswerQuantile(double q) const;
  /// Whole-run host slowdown against the reference (for diagnostics).
  double Slowdown() const;

 private:
  struct Slice {
    std::array<double, kNumFamilies> count{};
    std::array<double, kNumFamilies> busy{};
    double packets = 0.0;
    double cal_s = 0.0;  // calibration time and units timed in this slice
    double cal_n = 0.0;
  };
  size_t Current() const;
  /// The slice's own slowdown, the run's when the slice timed no unit.
  double SlowdownOf(const Slice& s) const;

  double start_;
  double width_;
  std::vector<Slice> slices_;
  std::array<std::vector<std::pair<size_t, double>>, kNumFamilies> answers_;
};

// --- process memory -----------------------------------------------------------

/// Heap bytes in use: mallinfo2 uordblks (arena) + hblkhd (mmapped chunks —
/// large vectors live there and uordblks alone misses them).
double HeapInUse();
/// Peak resident set (VmHWM) of this process, MiB.
double PeakRssMb();

// --- results -------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// The correctness gate: every checked operation is attempted once; any
/// wrong answer, watchdog abort, transport error, replay divergence or pin
/// mismatch counts as one failure.
class Gate {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& why);
  /// Attempts one answer and fails it unless \p got == \p want.
  template <class T>
  bool Expect(const std::vector<T>& got, const std::vector<T>& want,
              const std::string& what) {
    Attempt();
    if (got == want) return true;
    Fail(what);
    return false;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> notes_;  // first few failure descriptions
};

// --- oracle --------------------------------------------------------------------

/// Exact window/kNN answers over a fixed object set. A uniform grid keeps
/// each answer O(result) instead of O(n); WindowScan / KnnScan are the
/// plain linear scans runs re-validate it against.
class Oracle {
 public:
  explicit Oracle(const std::vector<datasets::SpatialObject>& objects);

  /// Sorted ids of the objects inside \p window (closed rectangle).
  std::vector<uint32_t> Window(const common::Rect& window) const;
  /// Sorted distances of the \p k nearest objects to \p q.
  std::vector<double> KnnDistances(const common::Point& q, size_t k) const;

  std::vector<uint32_t> WindowScan(const common::Rect& window) const;
  std::vector<double> KnnScan(const common::Point& q, size_t k) const;

 private:
  size_t CellX(double x) const;
  size_t CellY(double y) const;

  const std::vector<datasets::SpatialObject>& objects_;
  common::Rect universe_;
  size_t side_ = 1;
  std::vector<uint32_t> start_;  // CSR: cell -> [start_[c], start_[c+1])
  std::vector<uint32_t> items_;  // object indexes grouped by cell
};

/// Sorted ids / kNN distance multiset of a family answer.
std::vector<uint32_t> SortedIds(
    const std::vector<datasets::SpatialObject>& answer);
std::vector<double> SortedDistances(
    const std::vector<datasets::SpatialObject>& answer, const common::Point& q);

// --- byte-metric pins -----------------------------------------------------------

/// Summed latency/tuning bytes of a run's pinned batch for one family.
struct PinSums {
  uint64_t latency = 0;
  uint64_t tuning = 0;
  uint64_t queries = 0;
};

/// Pinned values, one per (workload, seed, family): perfbench/pins.tsv.
class Pins {
 public:
  /// Loads \p path; a missing file leaves the table empty.
  explicit Pins(const std::string& path);
  /// Compares \p got against the pin for (workload, seed, family) and
  /// counts a failure on mismatch. Returns false when no pin exists.
  bool Check(const std::string& workload, uint64_t seed, size_t family,
             const PinSums& got, Gate* gate) const;
  /// The tab-separated line Check expects for these sums.
  static std::string Line(const std::string& workload, uint64_t seed,
                          size_t family, const PinSums& sums);

 private:
  std::map<std::string, std::string> rows_;  // key -> value columns
};

// --- the four families -----------------------------------------------------------

/// Constructor time and heap held per family (index + handle).
struct BuildStats {
  std::array<double, kNumFamilies> seconds{};
  std::array<double, kNumFamilies> heap_bytes{};
};

/// DSI (m = 2), R-tree, HCI and the exponential index over one object set,
/// all at packet capacity 64 over \p mapper (which must outlive the set).
struct FamilySet {
  FamilySet(const std::vector<datasets::SpatialObject>& objects,
            const hilbert::SpaceMapper& mapper, BuildStats* stats);
  /// Next generation: DSI through DsiIndex::Republish of \p prev, the other
  /// families rebuilt from \p objects (they have no incremental path).
  FamilySet(const FamilySet& prev,
            const std::vector<datasets::SpatialObject>& objects,
            const std::vector<datasets::UpdateOp>& ops, BuildStats* stats);

  const air::AirIndexHandle& handle(size_t f) const { return *handles[f]; }

  std::unique_ptr<core::DsiIndex> dsi;
  std::unique_ptr<rtree::RtreeIndex> rtree;
  std::unique_ptr<hci::HciIndex> hci;
  std::unique_ptr<air::DsiHandle> dsi_handle;
  std::unique_ptr<air::RtreeHandle> rtree_handle;
  std::unique_ptr<air::HciHandle> hci_handle;
  std::unique_ptr<air::ExpHandle> exp_handle;
  std::array<const air::AirIndexHandle*, kNumFamilies> handles{};

 private:
  /// R-tree, HCI and expindex from \p objects, then wires handles.
  void BuildRest(const std::vector<datasets::SpatialObject>& objects,
                 const hilbert::SpaceMapper& mapper, BuildStats* stats);
};

core::DsiConfig DsiM2();

/// A handle that airs a pre-built re-layout of \p inner's program (disk
/// schedule or coding) and forwards everything else. Lets the benchmark
/// move the re-layout into set-up: handing the engine this handle with
/// the re-layout options disabled is exactly what the engine does when it
/// re-lays the cycle itself.
class OnAirHandle final : public air::AirIndexHandle {
 public:
  OnAirHandle(const air::AirIndexHandle& inner,
              broadcast::BroadcastProgram on_air)
      : inner_(inner), on_air_(std::move(on_air)) {}
  std::string_view family() const override { return inner_.family(); }
  const broadcast::BroadcastProgram& program() const override {
    return on_air_;
  }
  std::unique_ptr<air::AirClient> MakeClient(
      broadcast::ClientSession* session) const override {
    return inner_.MakeClient(session);
  }
  std::unique_ptr<air::AirClient> MakeContinuousClient(
      broadcast::ClientSession* session) const override {
    return inner_.MakeContinuousClient(session);
  }
  air::AirClient* MakeClientIn(air::ClientArena& arena,
                               broadcast::ClientSession* session) const override {
    return inner_.MakeClientIn(arena, session);
  }

 private:
  const air::AirIndexHandle& inner_;
  broadcast::BroadcastProgram on_air_;
};

// --- traced runs: in-memory spans -----------------------------------------------------

/// One timed interval of a traced run. Spans of one query share qid; the
/// root span (parent == kNoParent) covers the whole query.
struct Span {
  static constexpr uint32_t kNoParent = UINT32_MAX;
  uint64_t qid = 0;
  uint32_t parent = kNoParent;  // index into the log
  const char* name = "";
  int8_t family = -1;  // index into kFamilies, -1 = none
  double start = 0.0;  // WallNow() seconds
  double end = 0.0;
};

class SpanLog {
 public:
  uint32_t Open(uint64_t qid, uint32_t parent, const char* name, int family);
  void Close(uint32_t span) { spans_[span].end = WallNow(); }
  /// Records an interval measured by the caller.
  uint32_t Add(uint64_t qid, uint32_t parent, const char* name, int family,
               double start, double end);
  size_t size() const { return spans_.size(); }
  /// Appends \p other's spans (parent links re-based).
  void Append(const SpanLog& other);
  /// Writes one JSON object per line; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// --- run configuration -----------------------------------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pins_path;  // perfbench/pins.tsv
  std::string work_dir = ".bench_build";  // sockets and span logs
  bool pins_only = false;  // print pin lines instead of measuring
};

struct RunOutput {
  MetricMap metrics;
  Gate gate;
  std::vector<std::string> pin_lines;  // pins_only mode
  std::vector<std::string> info;       // diagnostics for stderr
};

void Put(MetricMap* m, const std::string& name, double value,
         const std::string& unit);

/// The run's pinned-batch byte totals per family: printed as pins.tsv lines
/// with --pins-only, otherwise checked against the pin table (a missing pin
/// is noted on stderr, not counted).
void CheckPins(const RunConfig& cfg,
               const std::array<PinSums, kNumFamilies>& pins, RunOutput* out);

/// Directory of the traced runs' span logs (created on first use).
std::string TraceDir(const RunConfig& cfg);

/// Set-up repetitions: set-up time is the median over at least 5 builds,
/// more (up to 15) while the builds so far took under two seconds in total.
/// --pins-only builds once.
inline bool MoreSetups(const RunConfig& cfg, const std::vector<double>& done) {
  double total = 0.0;
  for (double s : done) total += s;
  if (cfg.pins_only) return done.empty();
  return done.size() < 5 || (total < 2.0 && done.size() < 15);
}

void RunOneShot(const RunConfig& cfg, bool knn, RunOutput* out);
void RunCity(const RunConfig& cfg, RunOutput* out);
void RunLive(const RunConfig& cfg, RunOutput* out);
/// Confirms the gate counts an injected wrong answer and an injected wrong
/// byte total. Returns 0 when both are caught.
int SelfTest(const std::string& pins_path);

}  // namespace pb
