#pragma once

/// \file bench_common.hpp
/// \brief Shared setup for the figure/table reproduction binaries: dataset
/// construction, index builders, and command-line knobs.
///
/// Every bench accepts --queries, --objects, --seed and --real; run one
/// with --help for their meaning and defaults. Metrics are printed in the
/// paper's units: bytes (scaled per column).

#include <cstdint>
#include <vector>

#include "air/dsi_handle.hpp"
#include "air/hci_handle.hpp"
#include "air/rtree_handle.hpp"
#include "common/flags.hpp"
#include "datasets/datasets.hpp"
#include "dsi/client.hpp"
#include "dsi/index.hpp"
#include "hci/hci.hpp"
#include "hilbert/space_mapper.hpp"
#include "rtree/rtree_air.hpp"
#include "sim/runner.hpp"
#include "sim/table.hpp"
#include "sim/workload.hpp"

namespace dsi::bench {

struct Options {
  size_t queries = 80;
  size_t objects = 10000;
  bool real = false;
  uint64_t seed = 42;
};

/// Parses a bench's command line: the four common flags over the defaults
/// in \p opt, plus any the bench registered on \p flags.
inline Options ParseOptions(int argc, char** argv,
                            common::Flags flags = common::Flags(),
                            Options opt = Options()) {
  flags.Add("queries", &opt.queries, "queries per data point");
  flags.Add("objects", &opt.objects, "dataset cardinality (UNIFORM: 10000)");
  flags.Add("real", &opt.real, "use the 5848-point REAL substitute instead");
  flags.Add("seed", &opt.seed, "dataset and workload seed");
  flags.Parse(argc, argv);
  return opt;
}

inline std::vector<datasets::SpatialObject> MakeDataset(const Options& opt) {
  return opt.real ? datasets::MakeRealLike()
                  : datasets::MakeUniform(opt.objects,
                                          datasets::UnitUniverse(), opt.seed);
}

/// Curve order sized to the dataset (the paper scales curve order with
/// density).
inline int OrderFor(const Options& opt) {
  return hilbert::ChooseOrder(opt.real ? 5848 : opt.objects);
}

inline core::DsiConfig DsiReorganized() {
  core::DsiConfig c;
  c.num_segments = 2;
  return c;
}

inline core::DsiConfig DsiOriginal() { return core::DsiConfig{}; }

/// The packet capacities of the evaluation; R-tree cannot be built at 32.
inline const std::vector<size_t>& Capacities() {
  static const std::vector<size_t> caps{32, 64, 128, 256, 512};
  return caps;
}

/// Run options for bench data points: seeded, sharded over all cores
/// (results are bit-identical for any worker count).
inline sim::RunOptions Par(uint64_t seed) {
  return sim::RunOptions{seed, /*workers=*/0};
}

}  // namespace dsi::bench
