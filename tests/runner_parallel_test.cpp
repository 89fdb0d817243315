/// Serial/parallel parity of the experiment engine: RunWorkload shards
/// queries across workers but forks randomness per query index and merges
/// exact integer metric sums, so N workers must reproduce 1 worker
/// bit-identically — for every index family and both query kinds, lossless,
/// lossy, coded and generational. Parity is whole-struct equality of
/// AvgMetrics and QueryResult, so every counter is compared.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "air/disk_layout.hpp"
#include "air/dsi_handle.hpp"
#include "air/exp_handle.hpp"
#include "air/hci_handle.hpp"
#include "air/rtree_handle.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"

namespace dsi {
namespace {

/// Airs a pre-built \p on_air program and forwards client construction to
/// \p inner: running the engine on it with no layout options is running
/// directly on that program.
class PrebuiltAirHandle final : public air::AirIndexHandle {
 public:
  PrebuiltAirHandle(const air::AirIndexHandle& inner,
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

class ParallelParityFixture : public ::testing::Test {
 protected:
  ParallelParityFixture()
      : mapper_(datasets::UnitUniverse(), 8),
        objects_(datasets::MakeUniform(300, datasets::UnitUniverse(), 19)),
        dsi_(objects_, mapper_, 64, MakeDsiConfig()),
        rtree_(objects_, 64),
        hci_(objects_, mapper_, 64),
        dsi_air_(dsi_),
        rtree_air_(rtree_),
        hci_air_(hci_),
        exp_air_(objects_, mapper_, 64) {}

  static core::DsiConfig MakeDsiConfig() {
    core::DsiConfig c;
    c.num_segments = 2;
    return c;
  }

  std::vector<const air::AirIndexHandle*> Handles() const {
    return {&dsi_air_, &rtree_air_, &hci_air_, &exp_air_};
  }

  /// Runs \p run (a run that fills per-query results) serially and at 3
  /// and 4 workers: the metrics and every per-query result must be equal.
  /// Returns the serial metrics.
  template <typename Run>
  static sim::AvgMetrics ExpectShardingParity(const Run& run,
                                              std::string_view label) {
    std::vector<sim::QueryResult> baseline;
    const sim::AvgMetrics serial = run(1, &baseline);
    for (const size_t workers : {3u, 4u}) {
      std::vector<sim::QueryResult> got;
      EXPECT_EQ(run(workers, &got), serial) << label << " workers " << workers;
      EXPECT_EQ(got, baseline) << label << " workers " << workers;
    }
    return serial;
  }

  hilbert::SpaceMapper mapper_;
  std::vector<datasets::SpatialObject> objects_;
  core::DsiIndex dsi_;
  rtree::RtreeIndex rtree_;
  hci::HciIndex hci_;
  air::DsiHandle dsi_air_;
  air::RtreeHandle rtree_air_;
  air::HciHandle hci_air_;
  air::ExpHandle exp_air_;
};

TEST_F(ParallelParityFixture, WindowParityAcrossFamilies) {
  const auto windows =
      sim::MakeWindowWorkload(9, 0.1, datasets::UnitUniverse(), 23);
  const auto workload = sim::Workload::Window(windows);
  for (const air::AirIndexHandle* handle : Handles()) {
    const auto serial =
        sim::RunWorkload(*handle, workload, sim::RunOptions{101, 1});
    const auto parallel =
        sim::RunWorkload(*handle, workload, sim::RunOptions{101, 4});
    EXPECT_EQ(serial.queries, windows.size());
    EXPECT_EQ(serial, parallel) << handle->family() << " window";
  }
}

TEST_F(ParallelParityFixture, KnnParityAcrossFamilies) {
  const auto points = sim::MakeKnnWorkload(9, datasets::UnitUniverse(), 27);
  const auto workload = sim::Workload::Knn(points, 4);
  for (const air::AirIndexHandle* handle : Handles()) {
    const auto serial =
        sim::RunWorkload(*handle, workload, sim::RunOptions{103, 1});
    const auto parallel =
        sim::RunWorkload(*handle, workload, sim::RunOptions{103, 3});
    EXPECT_EQ(serial.queries, points.size());
    EXPECT_EQ(serial, parallel) << handle->family() << " knn";
  }
}

TEST_F(ParallelParityFixture, LossyChannelParity) {
  // The per-query error streams must also be independent of sharding.
  const auto windows =
      sim::MakeWindowWorkload(8, 0.1, datasets::UnitUniverse(), 29);
  for (const auto mode : {broadcast::ErrorMode::kPerReadLoss,
                          broadcast::ErrorMode::kSingleEvent,
                          broadcast::ErrorMode::kPerBucketLoss}) {
    const auto workload = sim::Workload::Window(windows, 0.5, mode);
    for (const air::AirIndexHandle* handle : Handles()) {
      const auto serial =
          sim::RunWorkload(*handle, workload, sim::RunOptions{107, 1});
      const auto parallel =
          sim::RunWorkload(*handle, workload, sim::RunOptions{107, 8});
      EXPECT_EQ(serial, parallel) << handle->family() << " lossy window";
    }
  }
}

TEST_F(ParallelParityFixture, CodingAndDisksTogetherAirTheComposedCycle) {
  // Both server layouts at once: the engine must air the disk layout with
  // parity groups cut from its physical stream — exactly the program the
  // two public transforms compose — not silently drop either layer.
  const auto windows =
      sim::MakeWindowWorkload(8, 0.1, datasets::UnitUniverse(), 37);
  const broadcast::DiskConfig disks{3, 1.2, 8, 5};
  const broadcast::CodingConfig coding{2, 1};
  for (const double theta : {0.0, 0.5}) {
    const auto workload = sim::Workload::Window(
        windows, theta, broadcast::ErrorMode::kBurstLoss);
    for (const air::AirIndexHandle* handle : Handles()) {
      sim::RunOptions both{117, 2};
      both.disks = disks;
      both.coding = coding;
      const PrebuiltAirHandle composed(
          *handle, broadcast::MakeCodedProgram(
                       air::MakeSkewedProgram(*handle, disks), coding));
      ASSERT_TRUE(composed.program().coded());
      ASSERT_TRUE(composed.program().multi_disk());
      const auto engine = sim::RunWorkload(*handle, workload, both);
      const auto direct =
          sim::RunWorkload(composed, workload, sim::RunOptions{117, 2});
      EXPECT_EQ(engine, direct) << handle->family() << " coded disks";
      if (theta > 0.0) EXPECT_GT(engine.repaired, 0u) << handle->family();
    }
  }
}

TEST_F(ParallelParityFixture, WorkerCountDoesNotLeakIntoSeeds) {
  // 2, 3 and 5 workers split the 10 queries at different boundaries; all
  // must agree because seeds derive from query indices, not shard order.
  const auto points = sim::MakeKnnWorkload(10, datasets::UnitUniverse(), 31);
  const auto workload = sim::Workload::Knn(points, 3);
  const auto baseline =
      sim::RunWorkload(dsi_air_, workload, sim::RunOptions{109, 1});
  for (const size_t workers : {2u, 3u, 5u, 10u}) {
    const auto sharded =
        sim::RunWorkload(dsi_air_, workload, sim::RunOptions{109, workers});
    EXPECT_EQ(baseline, sharded) << "dsi worker sweep " << workers;
  }
}

TEST_F(ParallelParityFixture, PersistentPoolIsStableAcrossRepeatedRuns) {
  // The worker pool persists between RunWorkload calls; re-running the same
  // workload (and interleaving different worker counts so the pool grows in
  // between) must keep reproducing the serial result bit-identically.
  const auto windows =
      sim::MakeWindowWorkload(10, 0.1, datasets::UnitUniverse(), 41);
  const auto workload = sim::Workload::Window(windows);
  const auto baseline =
      sim::RunWorkload(dsi_air_, workload, sim::RunOptions{113, 1});
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const size_t workers : {4u, 2u, 7u}) {
      const auto pooled = sim::RunWorkload(dsi_air_, workload,
                                           sim::RunOptions{113, workers});
      EXPECT_EQ(baseline, pooled) << "dsi pool reuse " << workers;
    }
  }
}

TEST_F(ParallelParityFixture, ArenaClientsMatchHeapClients) {
  // MakeClientIn (the engine's per-worker arena path) must behave exactly
  // like MakeClient, including when one arena is reused across queries and
  // families back to back.
  const auto windows =
      sim::MakeWindowWorkload(4, 0.1, datasets::UnitUniverse(), 43);
  const auto points = sim::MakeKnnWorkload(4, datasets::UnitUniverse(), 45);
  air::ClientArena arena;
  for (const air::AirIndexHandle* handle : Handles()) {
    for (size_t i = 0; i < windows.size(); ++i) {
      broadcast::ClientSession heap_session(handle->program(), 300 + i,
                                            broadcast::ErrorModel{},
                                            common::Rng(i));
      broadcast::ClientSession arena_session(handle->program(), 300 + i,
                                             broadcast::ErrorModel{},
                                             common::Rng(i));
      const auto heap_client = handle->MakeClient(&heap_session);
      air::AirClient* arena_client =
          handle->MakeClientIn(arena, &arena_session);
      const auto heap_result = heap_client->WindowQuery(windows[i]);
      const auto arena_result = arena_client->WindowQuery(windows[i]);
      ASSERT_EQ(heap_result.size(), arena_result.size()) << handle->family();
      EXPECT_EQ(heap_session.metrics().access_latency_bytes,
                arena_session.metrics().access_latency_bytes)
          << handle->family();
      EXPECT_EQ(heap_session.metrics().tuning_bytes,
                arena_session.metrics().tuning_bytes)
          << handle->family();
    }
    for (size_t i = 0; i < points.size(); ++i) {
      broadcast::ClientSession heap_session(handle->program(), 500 + i,
                                            broadcast::ErrorModel{},
                                            common::Rng(90 + i));
      broadcast::ClientSession arena_session(handle->program(), 500 + i,
                                             broadcast::ErrorModel{},
                                             common::Rng(90 + i));
      const auto heap_client = handle->MakeClient(&heap_session);
      air::AirClient* arena_client =
          handle->MakeClientIn(arena, &arena_session);
      const auto heap_result = heap_client->KnnQuery(points[i], 3);
      const auto arena_result = arena_client->KnnQuery(points[i], 3);
      ASSERT_EQ(heap_result.size(), arena_result.size()) << handle->family();
      for (size_t j = 0; j < heap_result.size(); ++j) {
        EXPECT_EQ(heap_result[j].id, arena_result[j].id) << handle->family();
      }
      EXPECT_EQ(heap_session.metrics().tuning_bytes,
                arena_session.metrics().tuning_bytes)
          << handle->family();
    }
  }
}

TEST_F(ParallelParityFixture, ResultCaptureParityAcrossSharding) {
  // RunOptions::results entries are keyed by query index, so any worker
  // count must fill identical result sets and identical metrics: lossless,
  // lossy, coded under burst loss (nonzero repairs) and across two
  // generations (nonzero restarts).
  const auto windows =
      sim::MakeWindowWorkload(9, 0.12, datasets::UnitUniverse(), 51);
  const auto points = sim::MakeKnnWorkload(9, datasets::UnitUniverse(), 53);
  const sim::Workload workloads[] = {
      sim::Workload::Window(windows),
      sim::Workload::Window(windows, 0.4),
      sim::Workload::Knn(points, 5),
      sim::Workload::Knn(points, 5, air::KnnStrategy::kConservative, 0.4,
                         broadcast::ErrorMode::kPerBucketLoss),
  };
  const auto burst =
      sim::Workload::Window(windows, 0.4, broadcast::ErrorMode::kBurstLoss);
  for (const air::AirIndexHandle* handle : Handles()) {
    for (const sim::Workload& workload : workloads) {
      const auto m = ExpectShardingParity(
          [&](size_t workers, std::vector<sim::QueryResult>* results) {
            sim::RunOptions opt{211, workers};
            opt.results = results;
            return sim::RunWorkload(*handle, workload, opt);
          },
          handle->family());
      EXPECT_EQ(m.queries, workload.size());
    }
    const auto coded = ExpectShardingParity(
        [&](size_t workers, std::vector<sim::QueryResult>* results) {
          sim::RunOptions opt{223, workers};
          opt.results = results;
          opt.coding = broadcast::CodingConfig{2, 1};
          return sim::RunWorkload(*handle, burst, opt);
        },
        std::string(handle->family()) + " coded");
    EXPECT_GT(coded.repaired, 0u) << handle->family();
  }

  // A republication one cycle in: queries straddling it restart on the
  // second generation's handle.
  const auto ops =
      datasets::MakeUpdateStream(objects_, 30, datasets::UnitUniverse(), 57);
  const core::DsiIndex dsi1(core::DsiIndex::Republish(dsi_, ops));
  const rtree::RtreeIndex rtree1(datasets::ApplyUpdates(objects_, ops), 64);
  const air::DsiHandle dsi1_air(dsi1);
  const air::RtreeHandle rtree1_air(rtree1);
  const sim::GenerationalIndex generational[] = {
      {{&dsi_air_, &dsi1_air}, {1, 1}},
      {{&rtree_air_, &rtree1_air}, {1, 1}},
  };
  for (const sim::GenerationalIndex& gi : generational) {
    const std::string label =
        std::string(gi.generations[0]->family()) + " generational";
    const auto m = ExpectShardingParity(
        [&](size_t workers, std::vector<sim::QueryResult>* results) {
          sim::RunOptions opt{229, workers};
          opt.results = results;
          return sim::GenerationalRun(gi, burst, opt);
        },
        label);
    EXPECT_GT(m.restarted, 0u) << label;
  }
}

TEST_F(ParallelParityFixture, ExpAdapterAnswersAreExact) {
  // The 1-D exponential-index adapter must return exactly the objects an
  // in-memory oracle finds, for both query kinds.
  const auto windows =
      sim::MakeWindowWorkload(4, 0.12, datasets::UnitUniverse(), 33);
  for (const auto& w : windows) {
    size_t oracle = 0;
    for (const auto& o : objects_) {
      if (w.Contains(o.location)) ++oracle;
    }
    broadcast::ClientSession session(exp_air_.program(), 97,
                                     broadcast::ErrorModel{}, common::Rng(1));
    const auto client = exp_air_.MakeClient(&session);
    EXPECT_EQ(client->WindowQuery(w).size(), oracle);
  }
  const auto points = sim::MakeKnnWorkload(4, datasets::UnitUniverse(), 35);
  for (const auto& q : points) {
    std::vector<double> dists;
    for (const auto& o : objects_) {
      dists.push_back(common::Distance(q, o.location));
    }
    std::sort(dists.begin(), dists.end());
    broadcast::ClientSession session(exp_air_.program(), 131,
                                     broadcast::ErrorModel{}, common::Rng(2));
    const auto client = exp_air_.MakeClient(&session);
    const auto result = client->KnnQuery(q, 5);
    ASSERT_EQ(result.size(), 5u);
    for (size_t i = 0; i < result.size(); ++i) {
      EXPECT_DOUBLE_EQ(common::Distance(q, result[i].location), dists[i]);
    }
  }
}

}  // namespace
}  // namespace dsi
