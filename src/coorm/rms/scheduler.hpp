// The CooRMv2 scheduling algorithm (paper §3.2 and Appendix A.4–A.5).
//
// The scheduler is a pure component: it takes each application's three
// request sets and the current time, computes every request's start time
// (`scheduledAt`) and effective node-count (`nAlloc`), and produces a
// non-preemptive and a preemptive view per application. It performs no
// I/O and owns no state besides the machine description, which makes
// Algorithms 1–4 directly unit-testable.
//
// Scheduling policy (paper §3.2): applications are processed in connection
// order; pre-allocations are placed first (conservative-backfilling-style
// earliest-hole search), then non-preemptible requests *inside* the
// pre-allocations, and finally preemptible requests by equi-partitioning,
// where resources one application leaves unused can be filled by others.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "coorm/common/runtime_options.hpp"
#include "coorm/profile/view.hpp"
#include "coorm/rms/machine.hpp"
#include "coorm/rms/request_set.hpp"
#include "coorm/rms/snapshot.hpp"

namespace coorm {

class WorkerPool;
struct IncrementalState;

/// Fair distribution of `capacity` among `wants` (paper Algorithm 3, lines
/// 10–18). Every demand is raised to a common water-filling level (capped
/// by its own demand) and any sub-level remainder goes one node per
/// still-unsatisfied demand in input order — the fixed point the paper's
/// round-robin converges to, computed directly in O(wants · log capacity).
/// Deterministic in input order; negative demands are treated as zero.
[[nodiscard]] std::vector<NodeCount> fairDistribute(
    NodeCount capacity, const std::vector<NodeCount>& wants);

/// Execution knobs, orthogonal to the scheduling policy in
/// Scheduler::Config.
struct SchedulerOptions {
  SchedulerOptions() = default;
  /// Implicit on purpose: SchedulerOptions{4} reads as "4 worker threads".
  SchedulerOptions(int threadCount) : threads(threadCount) {}
  /// Projection of the shared runtime-tuning surface
  /// (common/runtime_options.hpp).
  explicit SchedulerOptions(const RuntimeOptions& runtime)
      : threads(runtime.threads) {}

  /// Worker threads for the per-cluster and per-application fan-out of a
  /// scheduling pass. <= 1 keeps every pass on the calling thread (the
  /// default). The partitioned work writes into pre-sized per-slot outputs
  /// merged in deterministic order, so any thread count produces
  /// bit-identical schedules and views.
  int threads = 1;

  /// Incremental passes: the scheduler keeps the previous pass's
  /// intermediates and, when the snapshot reports an application as
  /// epoch-clean with every request started, serves its derivation from
  /// that cache; eqSchedule Step 2 re-sweeps only the breakpoint ranges
  /// whose inputs changed and splices the clean ranges from the cached
  /// output. Bit-identical to the full pass at every thread count (pinned
  /// by tests/test_scheduler_incremental.cpp); false always recomputes.
  bool incremental = true;
};

/// Per-application scheduling state: the three request sets (input, whose
/// requests' scheduling attributes are updated in place) and the two views
/// (output).
struct AppSchedule {
  AppId app{};
  RequestSet* preAllocations = nullptr;
  RequestSet* nonPreemptible = nullptr;
  RequestSet* preemptible = nullptr;

  /// Mutation epoch of this application's requests, maintained by the
  /// owner (the Server bumps it on every request mutation). A snapshot
  /// re-capture that sees the epoch it already captured skips the refresh
  /// walk for the app entirely. 0 is the "unknown" sentinel: always walk
  /// (the safe default for callers that do not track mutations).
  std::uint64_t epoch = 0;

  /// Paper V^(i)_{:P}, as the pass published it: the operand pair, whose
  /// value materialize() computes (profile/view.hpp).
  NonPreemptiveView nonPreemptiveView;
  View preemptiveView;  ///< paper V^(i)_P
};

/// Work counters of one `fit` call (optional out-parameter). With the
/// snapshot's CSR adjacency, child navigation is O(1) per edge, so
/// `queuePops + childVisits` measures the *total* work of a fit — the
/// counters a test can pin to prove deep constraint chains fit in linear
/// work (the live-RequestSet path re-scanned the whole set per children()
/// lookup, going quadratic on 64+-deep chains).
struct FitStats {
  std::size_t queuePops = 0;        ///< worklist entries processed
  std::size_t childVisits = 0;      ///< child edges traversed
  std::size_t parentRepushes = 0;   ///< constraint-conflict re-pushes
};

class Scheduler {
 public:
  struct Config {
    /// When true, preemptive views are a plain equi-partition of the
    /// available resources: an application cannot fill what another leaves
    /// unused. This is the "strict equi-partitioning" baseline of §5.4.
    bool strictEquiPartition = false;
  };

  explicit Scheduler(Machine machine);  // default config, serial
  Scheduler(Machine machine, Config config);
  Scheduler(Machine machine, Config config, SchedulerOptions options);
  ~Scheduler();
  Scheduler(Scheduler&&) noexcept;
  Scheduler& operator=(Scheduler&&) noexcept;

  /// Algorithm 4 on a frozen pass image: compute each application's views
  /// and every record's start time / effective node-count, writing results
  /// into the snapshot only (`snapshot.writeBack()` applies them to the
  /// live requests). This is the primary pass entry point: it never touches
  /// live `RequestSet`s or `Request`s, so it reads one consistent image
  /// and the server decides what of the result reaches live state.
  ///
  /// With SchedulerOptions::threads > 1 the per-cluster and per-application
  /// work fans out over the scheduler's worker pool; the result is
  /// bit-identical to the serial pass. Not re-entrant: one pass at a time
  /// per Scheduler.
  void schedulePass(RequestSetSnapshot& snapshot, Time now) const;

  /// Live-set convenience: capture → schedulePass → writeBack, handing the
  /// computed views to each AppSchedule (swapped with the previous ones,
  /// which the next call drops). Applications must be ordered by
  /// connection time.
  void schedule(std::span<AppSchedule> apps, Time now) const;

  // --- building blocks, public for tests and benchmarks -------------------

  /// Algorithm 1 (toView): the view generated by *fixed* requests — those
  /// already started or transitively constrained to a started request.
  /// Sets scheduledAt/nAlloc/fixed on the fixed records; clears `fixed` on
  /// everything else. When `available` is non-null, nAlloc is limited by it
  /// (used for preemptible requests); grants of still-pending requests are
  /// evaluated no earlier than `now` — a request whose scheduled start has
  /// already passed gets what is available *now*, not what was available
  /// then.
  static View toView(SetSnapshot& set, const View* available = nullptr,
                     Time now = 0);

  /// Algorithm 2 (fit): place the non-fixed records of `set` into
  /// `available`, honouring COALLOC/NEXT constraints, no earlier than t0.
  /// Returns the view the placed records occupy. Child navigation rides the
  /// snapshot's precomputed adjacency: total work is linear in records plus
  /// constraint conflicts (`stats`, when given, receives the counters).
  static View fit(SetSnapshot& set, const View& available, Time t0,
                  FitStats* stats = nullptr);

  /// Algorithm 3 (eqSchedule): equi-partition `available` among the
  /// applications' preemptible sets and write each AppSnapshot's
  /// preemptiveView. With `strict`, no filling of unused partitions.
  /// When `pool` is non-null, Step 1/3 fan out per application and the
  /// Step 2 sweep per cluster; output is bit-identical to the serial call.
  /// The snapshots' per-cluster demand summaries narrow each cluster sweep
  /// to the applications that can occupy it.
  static void eqSchedule(std::span<AppSnapshot> apps, const View& available,
                         Time now, bool strict, WorkerPool* pool = nullptr);

  // --- live-RequestSet shims (capture → snapshot algorithm → write back) --
  // Semantics identical to operating in place on the live requests; kept
  // for tests, benchmarks and external callers that hold no snapshot.

  static View toView(const RequestSet& set, const View* available = nullptr,
                     Time now = 0);
  static View fit(const RequestSet& set, const View& available, Time t0);
  static void eqSchedule(std::span<AppSchedule> apps, const View& available,
                         Time now, bool strict, WorkerPool* pool = nullptr);

  /// The full machine as a view (every cluster constantly at capacity).
  [[nodiscard]] View machineView() const;

  [[nodiscard]] const Machine& machine() const { return machine_; }

  /// Drops the incremental pass-to-pass cache, forcing the next pass to
  /// re-derive every application. Required whenever a pass's results were
  /// computed but never written back (the server's abandoned-pass path):
  /// the cache describes "the previous committed pass", and an abandoned
  /// pass breaks that chain. No-op when incremental passes are off.
  void invalidateIncremental() const;

 private:
  /// The incremental variant of schedulePass: same outputs, organised
  /// around the pass-to-pass cache in `inc_`. Cold cache (first pass,
  /// population change, after invalidateIncremental) re-derives everything
  /// while priming the cache; warm cache re-derives only the dirty
  /// applications and the dirty Step 2 breakpoint ranges.
  void schedulePassIncremental(RequestSetSnapshot& snapshot, Time now,
                               WorkerPool* pool) const;
  Machine machine_;
  Config config_;
  /// Present iff options.threads > 1. Mutable because a scheduling pass is
  /// logically const (the pool serves the pass's own fan-out, not
  /// observable state); schedule() is still not re-entrant.
  mutable std::unique_ptr<WorkerPool> pool_;
  /// Re-captured in place by schedule() each call, so repeated passes over
  /// similar populations allocate nothing. Scratch, like the pool: not
  /// observable state, hence mutable; schedule() is not re-entrant.
  mutable RequestSetSnapshot scratch_;
  /// Pass-to-pass cache of the incremental path (scheduler.cpp); null when
  /// SchedulerOptions::incremental is false. Mutable for the same reason
  /// as the pool: a pass is logically const, the cache is its scratch.
  mutable std::unique_ptr<IncrementalState> inc_;
};

}  // namespace coorm
