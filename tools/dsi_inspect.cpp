/// dsi_inspect — command-line inspector for DSI broadcast programs.
///
/// Builds a broadcast for a synthetic dataset and prints the program
/// anatomy: cycle composition, index overhead, table layout (with a real
/// serialized example via the wire codecs), and the reorganization
/// schedule. Useful to sanity-check configurations before running
/// experiments. Run with --help for the flags.

#include <cstdio>

#include "common/flags.hpp"
#include "datasets/datasets.hpp"
#include "dsi/index.hpp"
#include "dsi/layout.hpp"
#include "hilbert/space_mapper.hpp"
#include "wire/codecs.hpp"

int main(int argc, char** argv) {
  using namespace dsi;
  size_t objects_n = 10000;
  size_t capacity = 64;
  core::DsiConfig config;
  config.num_segments = 2;
  bool real = false;
  common::Flags flags;
  flags.Add("objects", &objects_n, "dataset cardinality");
  flags.Add("capacity", &capacity, "packet capacity in bytes");
  flags.Add("segments", &config.num_segments, "broadcast segments m");
  flags.Add("object-factor", &config.object_factor,
            "objects per frame (0 = packet-driven)");
  flags.Add("base", &config.index_base, "index base r");
  flags.Add("real", &real, "use the REAL-substitute dataset");
  flags.Parse(argc, argv, /*usage_exit=*/1);

  const auto objects = real ? datasets::MakeRealLike()
                            : datasets::MakeUniform(
                                  objects_n, datasets::UnitUniverse(), 42);
  const int order = hilbert::ChooseOrder(objects.size());
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), order);
  const core::DsiIndex index(objects, mapper, capacity, config);
  const auto& prog = index.program();

  std::printf("DSI broadcast inspection\n");
  std::printf("  dataset            %zu objects (%s)\n", objects.size(),
              real ? "REAL-like" : "UNIFORM");
  std::printf("  Hilbert order      %d (%lu x %lu cells)\n", order,
              mapper.curve().side(), mapper.curve().side());
  std::printf("  packet capacity    %zu B\n", capacity);
  std::printf("  index base r       %u\n", index.config().index_base);
  std::printf("  segments m         %u\n", index.config().num_segments);
  std::printf("  object factor      %u\n", index.object_factor());
  std::printf("  frames             %u\n", index.num_frames());
  std::printf("  entries per table  %u\n", index.entries_per_table());
  std::printf("  table size         %u B (%lu packet(s), HC field %u B)\n",
              index.table_bytes(),
              (index.table_bytes() + capacity - 1) / capacity,
              index.table_hc_bytes());

  const uint64_t index_bytes =
      static_cast<uint64_t>(index.num_frames()) * index.table_bytes();
  const uint64_t data_bytes =
      static_cast<uint64_t>(objects.size()) * common::kDataObjectBytes;
  std::printf("  cycle              %lu packets = %.2f MB (%zu buckets)\n",
              prog.cycle_packets(), prog.cycle_bytes() / 1e6,
              prog.num_buckets());
  std::printf("  index overhead     %.2f%% of payload (%.1f KiB vs %.1f "
              "KiB data)\n",
              100.0 * static_cast<double>(index_bytes) /
                  static_cast<double>(data_bytes),
              index_bytes / 1024.0, data_bytes / 1024.0);

  // Reorganization schedule summary.
  const core::ReorgLayout layout(index.num_frames(),
                                 index.config().num_segments);
  std::printf("  schedule           ");
  for (uint32_t s = 0; s < layout.m; ++s) {
    std::printf("seg%u: %u frames (head HC %lu)%s", s,
                layout.SegmentLength(s), index.segment_head_hcs()[s],
                s + 1 < layout.m ? ", " : "\n");
  }

  // One serialized table, exactly as it would go on air.
  const core::DsiTableView table = index.TableAt(0);
  const auto bytes = wire::EncodeDsiTable(table, index.segment_head_hcs(),
                                          index.table_hc_bytes());
  std::printf("\n  table@position 0 (own HC %lu), %zu bytes on air:\n",
              table.own_hc_min, bytes.size());
  for (size_t i = 0; i < table.entries.size(); ++i) {
    std::printf("    entry %2zu: +%-6u -> position %-6u HC' %lu\n", i,
                (table.entries[i].position + index.num_frames() -
                 table.position) %
                    index.num_frames(),
                table.entries[i].position, table.entries[i].hc_min);
  }
  return 0;
}
