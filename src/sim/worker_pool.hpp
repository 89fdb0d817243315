#pragma once

/// \file worker_pool.hpp
/// \brief A lazily grown, process-lifetime worker pool for the experiment
/// engine. RunWorkload used to spawn fresh std::async threads per call;
/// benches call it once per data point, so thread creation dominated short
/// runs. The pool keeps its threads parked between calls.
///
/// Determinism: the pool only changes WHERE a task index runs, never what
/// it computes — tasks are identified by index and the caller combines
/// results by index, so results are independent of scheduling.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace dsi::sim {

/// Process-wide pool. Run() executes task(0..n-1) across the pooled
/// threads plus the calling thread and blocks until all are done.
class WorkerPool {
 public:
  /// The singleton pool (constructed on first use, threads grown on
  /// demand, parked until process exit).
  static WorkerPool& Instance();

  /// Executes \p task for every index in [0, n). The calling thread
  /// participates, so a pool with T threads runs min(n, T + 1) tasks
  /// concurrently. Reentrant calls (a task calling Run) execute inline to
  /// avoid deadlock. Concurrent calls from different user threads are
  /// serialized.
  void Run(size_t n, const std::function<void(size_t)>& task);

  ~WorkerPool();

 private:
  WorkerPool();
  struct Impl;
  Impl* impl_;
};

/// The engines' one sharded run: resolves \p workers (0 = one per hardware
/// thread), clamps it to \p n, cuts [0, n) into contiguous shards, runs
/// `shard(begin, end) -> Sums` for each on the pool and merges the shard
/// sums in shard order with Sums::operator+=. Shard bounds depend only on
/// (n, workers); with randomness forked per item index and exact integer
/// sums, any worker count reproduces the serial result bit-identically.
template <typename Sums, typename Shard>
Sums RunSharded(size_t n, size_t workers, Shard&& shard) {
  if (workers == 0) {
    workers = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers = std::min(workers, n);
  if (workers <= 1) return shard(0, n);
  std::vector<Sums> sums(workers);
  WorkerPool::Instance().Run(workers, [&](size_t w) {
    sums[w] = shard(n * w / workers, n * (w + 1) / workers);
  });
  Sums total;
  for (const Sums& s : sums) total += s;
  return total;
}

}  // namespace dsi::sim
