// The CooRMv2 scheduling algorithm (paper §3.2 and Appendix A.4–A.5).
//
// The scheduler is a pure component: it takes each application's three
// request sets and the current time, computes every request's start time
// (`scheduledAt`) and effective node-count (`nAlloc`), and produces a
// non-preemptive and a preemptive view per application. It performs no
// I/O and owns no state besides the machine description and caches that
// never change a result, which makes Algorithms 1–4 directly
// unit-testable. A pass writes its results into the live requests, as the
// paper's Appendix A.1 keeps them: there is no second copy of any
// request's scheduling state.
//
// Scheduling policy (paper §3.2): applications are processed in connection
// order; pre-allocations are placed first (conservative-backfilling-style
// earliest-hole search), then non-preemptible requests *inside* the
// pre-allocations, and finally preemptible requests by equi-partitioning,
// where resources one application leaves unused can be filled by others.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coorm/profile/view.hpp"
#include "coorm/rms/machine.hpp"
#include "coorm/rms/request_set.hpp"

namespace coorm {

struct IncrementalState;
struct PassIndex;

/// Fair distribution of `capacity` among `wants` (paper Algorithm 3, lines
/// 10–18). Every demand is raised to a common water-filling level (capped
/// by its own demand) and any sub-level remainder goes one node per
/// still-unsatisfied demand in input order — the fixed point the paper's
/// round-robin converges to, computed directly in O(wants · log capacity).
/// Deterministic in input order; negative demands are treated as zero.
[[nodiscard]] std::vector<NodeCount> fairDistribute(
    NodeCount capacity, const std::vector<NodeCount>& wants);

/// Per-application scheduling state: the three request sets (input, whose
/// requests' scheduling attributes a pass updates in place), the owner's
/// mutation epoch, and the two views the pass publishes.
struct AppSchedule {
  AppId app{};
  RequestSet* preAllocations = nullptr;
  RequestSet* nonPreemptible = nullptr;
  RequestSet* preemptible = nullptr;

  /// Mutation epoch of this application's requests, maintained by the
  /// owner (the Server bumps it on every request mutation). The scheduler
  /// keeps each application's SetIndex while the epoch, the set identities
  /// and their membership versions stay as they were, and the incremental
  /// pass serves an application whose key did not move and whose requests
  /// have all started (lease-clean) from its cache. 0 is the "unknown"
  /// sentinel: re-index every pass and never treat the app as clean (the
  /// safe default for callers that do not track mutations).
  std::uint64_t epoch = 0;

  // --- outputs, written by every Scheduler::schedule ---------------------

  /// Paper V^(i)_{:P}, as the pass published it: the operand pair (free
  /// profile at this app's loop position, own started pre-allocation
  /// occupation), whose value materialize() computes (profile/view.hpp).
  /// The pass drops whatever the caller left here (the server swaps its
  /// superseded stash in) just before it builds the replacement.
  NonPreemptiveView nonPreemptiveView;
  View preemptiveView;  ///< paper V^(i)_P
};

/// Work counters of one `fit` call (optional out-parameter). With the
/// SetIndex's CSR adjacency, child navigation is O(1) per edge, so
/// `queuePops + childVisits` measures the *total* work of a fit — the
/// counters a test can pin to prove deep constraint chains fit in linear
/// work (a full-set scan per children() lookup goes quadratic on 64+-deep
/// chains).
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
    /// Incremental passes: the scheduler keeps the previous pass's
    /// intermediates and serves every lease-clean application (key
    /// unchanged, every request started; see AppSchedule::epoch) from that
    /// cache; eqSchedule Step 2 runs whole every pass. Either way every
    /// pass publishes both views of every application.
    /// Bit-identical to the full pass (pinned by
    /// tests/test_scheduler_incremental.cpp); false always recomputes, the
    /// reference the differential suites compare with.
    bool incremental = true;
  };

  explicit Scheduler(Machine machine);  // default config
  Scheduler(Machine machine, Config config);
  ~Scheduler();
  Scheduler(Scheduler&&) noexcept;
  Scheduler& operator=(Scheduler&&) noexcept;

  /// Algorithm 4: compute each application's views and every request's
  /// start time / effective node-count, writing `scheduledAt`, `nAlloc`,
  /// `fixed` and `earliestScheduleAt` into the live requests and both
  /// views of every application into its AppSchedule. Applications must
  /// be ordered by connection time.
  ///
  /// The pass runs on the calling thread. Not re-entrant: one pass at a
  /// time per Scheduler. A pass that throws leaves partial results in the
  /// requests and the incremental cache invalid, so the next pass
  /// re-derives every application.
  void schedule(std::span<AppSchedule> apps, Time now) const;

  // --- building blocks, public for tests and benchmarks -------------------
  // Each call indexes its sets afresh (no cache), so reference
  // implementations composed from these stay independent of the pass.

  /// Algorithm 1 (toView): the view generated by *fixed* requests — those
  /// already started or transitively constrained to a started request.
  /// Sets scheduledAt/nAlloc/fixed on the fixed requests; clears `fixed` on
  /// everything else. When `available` is non-null, nAlloc is limited by it
  /// (used for preemptible requests); grants of still-pending requests are
  /// evaluated no earlier than `now` — a request whose scheduled start has
  /// already passed gets what is available *now*, not what was available
  /// then.
  static View toView(const RequestSet& set, const View* available = nullptr,
                     Time now = 0);

  /// Algorithm 2 (fit): place the non-fixed requests of `set` into
  /// `available`, honouring COALLOC/NEXT constraints, no earlier than t0.
  /// Returns the view the placed requests occupy. Child navigation rides
  /// the set's SetIndex: total work is linear in requests plus constraint
  /// conflicts (`stats`, when given, receives the counters).
  static View fit(const RequestSet& set, const View& available, Time t0,
                  FitStats* stats = nullptr);

  /// Algorithm 3 (eqSchedule): equi-partition `available` among the
  /// applications' preemptible sets and write each AppSchedule's
  /// preemptiveView. With `strict`, no filling of unused partitions.
  static void eqSchedule(std::span<AppSchedule> apps, const View& available,
                         Time now, bool strict);

  /// The full machine as a view (every cluster constantly at capacity).
  [[nodiscard]] View machineView() const;

  [[nodiscard]] const Machine& machine() const { return machine_; }

 private:
  /// The incremental variant of the pass: same outputs, organised around
  /// the pass-to-pass cache in `inc_`. Cold cache (first pass, population
  /// change, after a pass that threw) re-derives everything while priming
  /// the cache; warm cache skips the lease-clean applications' per-app
  /// work (the NP loop, eqSchedule Steps 1 and 3).
  void scheduleIncremental(std::span<AppSchedule> apps, Time now) const;

  Machine machine_;
  Config config_;
  /// Per-application SetIndex cache, by position (scheduler.cpp). A pass
  /// is logically const; the cache is its scratch, hence mutable.
  mutable std::unique_ptr<PassIndex> index_;
  /// Pass-to-pass cache of the incremental path (scheduler.cpp); null when
  /// Config::incremental is false. Mutable for the same reason.
  mutable std::unique_ptr<IncrementalState> inc_;
};

}  // namespace coorm
