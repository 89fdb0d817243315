/// Skewed multi-disk broadcast sweep: skew factor x disk configuration x
/// family. The server re-lays the cycle as Broadcast Disks
/// (air/disk_layout.hpp): buckets are ranked by the Zipf popularity of
/// their spatial anchor's grid region and binned hottest-first into
/// frequency tiers, so a 3-disk cycle airs the hot tier 4x per major
/// cycle. Clients resolve every read to the nearest upcoming repetition.
/// Queries draw their window centers from the SAME popularity model that
/// ranked the disks — the access pattern the layout is provisioned for.
///
/// Columns: access latency and tuning in bytes, plus Lat/flat — this
/// (skew, disks) latency over the SAME queries on the flat one-disk cycle.
/// Expected shape: at skew 0 queries are uniform and multi-disk only
/// stretches the cycle (ratio >= 1, bounded by the 4/3 or 12/7 cycle
/// expansion); as skew grows the query mass concentrates on the hot tier
/// and the ratio falls, ending below 1 for the spatial families (DSI,
/// R-tree, HCI) — the Broadcast-Disks win. The 1-D exponential index
/// trends the same way but keeps most of the stretch: its key-order scans
/// straddle tiers no matter how hot the window is.
///
/// --out writes the sweep as JSON rows for CI artifacts; --help lists the
/// flags.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "air/exp_handle.hpp"
#include "bench_common.hpp"
#include "broadcast/disks.hpp"
#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "sim/table.hpp"

namespace {

/// Window workload with centers drawn from the popularity model the disk
/// layout is ranked by (uniform at skew 0, bit-identical to
/// sim::MakeWindowWorkload's draws).
std::vector<dsi::common::Rect> MakeSkewedWindows(
    size_t n, double side, const dsi::datasets::RegionPopularity& popularity,
    const dsi::common::Rect& universe, uint64_t seed) {
  dsi::common::Rng rng(seed);
  std::vector<dsi::common::Rect> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const dsi::common::Point center = popularity.Sample(rng, universe);
    out.push_back(dsi::common::MakeClippedWindow(center, side, universe));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsi;
  std::string out_path;
  common::Flags flags;
  flags.Add("out", &out_path, "also write the sweep as JSON rows here");
  const bench::Options opt = bench::ParseOptions(argc, argv, flags);
  const auto objects = bench::MakeDataset(opt);
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(),
                                    bench::OrderFor(opt));
  constexpr size_t kCapacity = 64;
  constexpr uint32_t kGrid = broadcast::DiskConfig{}.grid;
  constexpr uint64_t kPopSeed = 7;
  const common::Rect universe = datasets::UnitUniverse();

  const core::DsiIndex dsi_idx(objects, mapper, kCapacity,
                               bench::DsiReorganized());
  const rtree::RtreeIndex rt(objects, kCapacity);
  const hci::HciIndex hci_idx(objects, mapper, kCapacity);
  const air::DsiHandle hd(dsi_idx);
  const air::RtreeHandle hr(rt);
  const air::HciHandle hh(hci_idx);
  const air::ExpHandle he(objects, mapper, kCapacity);

  std::cout << "Skewed multi-disk broadcast: skew x disks x family ("
            << (opt.real ? "REAL-like" : "UNIFORM") << ", " << objects.size()
            << " objects, capacity=64B, " << opt.queries
            << " hot-region window queries, lossless channel)\n\n";

  struct JsonRow {
    const char* family;
    double skew;
    uint32_t disks;
    double latency;
    double tuning;
    double ratio;
  };
  std::vector<JsonRow> json;

  sim::TablePrinter t({"Index/skew", "Disks", "LatBytes", "TunBytes",
                       "Lat/flat", "Incomplete"});
  t.PrintHeader();
  struct Fam {
    const char* name;
    const air::AirIndexHandle* handle;
  };
  for (const Fam& fam : {Fam{"DSI", &hd}, Fam{"Rtree", &hr},
                         Fam{"HCI", &hh}, Fam{"Exp", &he}}) {
    for (const double skew : {0.0, 0.6, 1.2, 1.8}) {
      // One query set per skew, shared by every disk config: the ratio
      // column isolates the layout, not the workload.
      const datasets::RegionPopularity popularity(kGrid, skew, kPopSeed);
      const auto windows = MakeSkewedWindows(opt.queries, 0.1, popularity,
                                             universe, opt.seed + 1);
      const auto win = sim::Workload::Window(windows);
      double flat_latency = 0.0;
      for (const uint32_t disks : {1u, 2u, 3u}) {
        auto ropt = bench::Par(opt.seed + 3);
        ropt.disks = broadcast::DiskConfig{disks, skew, kGrid, kPopSeed};
        const auto m = sim::RunWorkload(*fam.handle, win, ropt);
        if (disks == 1) flat_latency = m.latency_bytes;
        const double ratio =
            flat_latency == 0.0 ? 0.0 : m.latency_bytes / flat_latency;
        const std::string label = std::string(fam.name) + " s=" +
                                  std::to_string(skew).substr(0, 3);
        t.PrintRow(label, static_cast<double>(disks), m.latency_bytes,
                   m.tuning_bytes, ratio, static_cast<double>(m.incomplete));
        json.push_back({fam.name, skew, disks, m.latency_bytes,
                        m.tuning_bytes, ratio});
      }
    }
  }
  std::cout << "\nReading guide: Disks=1 is the flat cycle (the multi-disk "
               "layer disabled — byte-identical to a build without it). "
               "Lat/flat < 1 means the skewed layout beats the flat cycle "
               "on the same queries; the column falls as skew grows and "
               "the hot tier absorbs the query mass, dropping below 1 for "
               "the spatial families at high skew.\n";

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"results\": [\n");
    for (size_t i = 0; i < json.size(); ++i) {
      const JsonRow& r = json[i];
      std::fprintf(f,
                   "    {\"family\": \"%s\", \"skew\": %g, \"disks\": %u, "
                   "\"avg_latency_bytes\": %.6f, \"avg_tuning_bytes\": %.6f, "
                   "\"latency_vs_flat\": %.6f}%s\n",
                   r.family, r.skew, r.disks, r.latency, r.tuning, r.ratio,
                   i + 1 < json.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", out_path.c_str(), json.size());
  }
  return 0;
}
