// A fixed-size pool of worker threads for deterministic fan-out.
//
// The scheduler partitions its per-cluster and per-application work into
// index-addressed batches: every task writes only its own pre-sized output
// slot, and the caller merges the slots in index order after join(). That
// makes the parallel result bit-identical to the serial one regardless of
// which thread runs which task — the pool provides throughput, never
// ordering semantics.
//
// Concurrency contract:
//  - one batch at a time, driven from a single submitting thread;
//  - a pool built with `threads <= 1` never spawns an OS thread: every
//    batch runs inline on the caller, in index order (the serial default);
//  - with `threads > 1`, `threads - 1` workers are spawned once and reused
//    across batches; the submitting thread works alongside them;
//  - tasks must not touch the pool (no nested batches).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace coorm {

class WorkerPool {
 public:
  /// A pool of `threads` execution lanes (clamped to >= 1). `threads - 1`
  /// OS threads are spawned; the caller of join()/parallelFor() is the
  /// remaining lane.
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Configured parallelism (>= 1).
  [[nodiscard]] int threads() const { return threads_; }

  /// OS threads actually spawned (threads() - 1, or 0 for a serial pool).
  [[nodiscard]] std::size_t workerCount() const { return workers_.size(); }

  /// Enqueue one task of the current batch. Nothing runs until join().
  void submit(std::function<void()> task);

  /// Run every submitted task and block until all have finished. Tasks are
  /// claimed in submission order (and run exactly in that order on a
  /// serial pool). If any task threw, the first exception claimed is
  /// rethrown here — after every task has still been given to a lane.
  void join();

  /// Batch shorthand: run task(i) for every i in [0, count) and block
  /// until all are done. Same ordering and exception contract as join().
  void parallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& task);

 private:
  void runBatch(std::size_t count,
                const std::function<void(std::size_t)>& task);
  /// Claim-and-run loop shared by workers and the submitting thread.
  /// Requires the caller to hold `lock` (returned still held).
  void workShare(std::unique_lock<std::mutex>& lock);
  void workerMain();

  const int threads_;
  std::vector<std::thread> workers_;

  std::vector<std::function<void()>> pending_;  ///< submit() accumulator

  // Batch state, all guarded by mutex_. A batch is published by bumping
  // generation_; workers inside workShare() hold activeWorkers_ > 0, and
  // no new batch starts until that drains, so a late-waking worker can
  // never mix one batch's task pointer with another batch's indices.
  std::mutex mutex_;
  std::condition_variable wake_;  ///< workers: new batch or stop
  std::condition_variable done_;  ///< submitter: batch finished
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t total_ = 0;
  std::size_t next_ = 0;
  std::size_t finished_ = 0;
  int activeWorkers_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr firstError_;
  bool stop_ = false;
};

/// Run task(i) for i in [0, count): dispatched across `pool` when it has
/// workers and the batch has more than one task, inline (in index order)
/// otherwise. A null pool always runs inline — callers thread an optional
/// pool through without branching.
template <typename Fn>
void parallelFor(WorkerPool* pool, std::size_t count, Fn&& task) {
  if (pool == nullptr || pool->workerCount() == 0 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  pool->parallelFor(count, std::function<void(std::size_t)>(
                               std::forward<Fn>(task)));
}

}  // namespace coorm
