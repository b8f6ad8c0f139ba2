#include "coorm/rms/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "coorm/common/check.hpp"
#include "coorm/common/metrics.hpp"
#include "coorm/common/trace.hpp"
#include "coorm/profile/profile_diff.hpp"
#include "coorm/profile/profile_sweep.hpp"

namespace coorm {

namespace {

/// Preemptible grants are leases: what is available at the start instant
/// is granted, and future reductions are delivered through preemptive views
/// (and the violation protocol), not encoded in the grant. Min-over-window
/// (View::alloc) would make an open-ended lease unserveable whenever any
/// future drop exists.
NodeCount grantAtStart(const View& view, const SnapshotRecord& r, Time at) {
  if (isInf(at)) return 0;
  return std::clamp<NodeCount>(view.at(r.cluster, at), 0, r.nodes);
}

/// Occupation pulse of one scheduled record.
void addOccupation(View& view, const SnapshotRecord& r) {
  if (isInf(r.scheduledAt) || r.nAlloc <= 0 || r.duration <= 0) return;
  view.capRef(r.cluster).addPulse(r.scheduledAt, r.duration, r.nAlloc);
}

/// Shorthand: *this op= other, as a one-element accumulate sweep.
void accumulateOne(View& target, const View& operand, View::Op op,
                   bool clampAtZero = false) {
  const View* operands[] = {&operand};
  target.accumulate(operands, op, clampAtZero);
}

/// Core of fairDistribute, writing into a caller-provided buffer so the
/// per-breakpoint hot loop of eqSchedule can reuse its scratch.
void fairDistributeInto(NodeCount capacity,
                        const std::vector<NodeCount>& wants,
                        std::vector<NodeCount>& gives) {
  gives.assign(wants.size(), 0);
  // The clamp keeps the partial sums below free of overflow; real
  // capacities are node counts, far under this bound.
  const NodeCount remaining = std::clamp<NodeCount>(
      capacity, 0, std::numeric_limits<NodeCount>::max() / 4);
  if (remaining == 0 || wants.empty()) return;

  // The paper's round-robin (Algorithm 3, lines 10–18) converges to a
  // water-filling level: the largest common share L with
  // sum_i min(want_i, L) <= capacity, plus one extra node to the earliest
  // still-unsatisfied applications. Binary-searching L computes that
  // fixed point directly in O(apps · log capacity), where share-sized
  // rounds degrade to one-node round-robin whenever the capacity left
  // per round stays below the number of unsatisfied applications.
  const auto levelFits = [&](NodeCount level) {
    NodeCount total = 0;
    for (const NodeCount want : wants) {
      total += std::clamp<NodeCount>(want, 0, level);
      if (total > remaining) return false;
    }
    return true;
  };
  NodeCount hi = 0;
  for (const NodeCount want : wants) hi = std::max(hi, want);
  hi = std::min(hi, remaining);
  // remaining/n is always a feasible level (n·⌊remaining/n⌋ <= remaining),
  // which keeps the search short in the common nearly-even case.
  NodeCount lo = std::min(
      remaining / static_cast<NodeCount>(wants.size()), hi);
  while (lo < hi) {
    const NodeCount mid = lo + (hi - lo + 1) / 2;
    if (levelFits(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }

  NodeCount used = 0;
  for (std::size_t i = 0; i < wants.size(); ++i) {
    gives[i] = std::clamp<NodeCount>(wants[i], 0, lo);
    used += gives[i];
  }
  for (std::size_t i = 0; i < wants.size() && used < remaining; ++i) {
    if (gives[i] < wants[i]) {
      ++gives[i];
      ++used;
    }
  }
}

}  // namespace

std::vector<NodeCount> fairDistribute(NodeCount capacity,
                                      const std::vector<NodeCount>& wants) {
  std::vector<NodeCount> gives;
  fairDistributeInto(capacity, wants, gives);
  return gives;
}

/// Pass-to-pass cache of the incremental scheduling path. Everything is
/// indexed by application position in the snapshot (the scheduler requires
/// connection order, so positions are stable between passes unless the
/// population itself changed — which invalidates the cache wholesale).
///
/// The cached profiles are plain StepFunctions/Views whose segment blocks
/// the published views share (segment_arena.hpp): blocks are reference-
/// counted anonymous heap memory, so holding them across passes and
/// dropping the last reference from any later thread is safe by design.
///
/// No non-preemptive view is cached, or built for a clean application: a
/// pass publishes each one as its operand pair (NonPreemptiveView), the
/// free profile at the application's loop position — one of the few
/// `freeProfiles`, shared by every application between two placements —
/// plus its own started pre-allocation occupation `paOcc`. Whether a clean
/// application's view moved is decided inside the free profile's diff
/// window only (freeProfileMoveShows below).
struct IncrementalState {
  /// False until a pass completes; cleared at pass start (exception
  /// safety) and by Scheduler::invalidateIncremental().
  bool valid = false;
  /// Identity of the snapshot object the cache describes. A different
  /// snapshot over the same apps has independent record state, so the
  /// capture-kind-based cleanliness argument does not transfer.
  const void* snapshotKey = nullptr;
  std::vector<AppId> appIds;

  // --- previous pass intermediates, one slot per application --------------
  std::vector<View> paOcc;       ///< started pre-allocation occupation
  std::vector<View> npOcc;       ///< started non-preemptible occupation
  std::vector<View> occPa;       ///< NP-loop pre-allocation fit occupation
  std::vector<View> npFitted;    ///< NP-loop non-preemptible fit occupation
  std::vector<View> occupation;  ///< eqSchedule Step 1 preemptible occupation
  std::vector<View> pViews;      ///< final preemptive views (owned)
  View vnpInitial;               ///< vnp after the pre-allocation fold
  View vp;                       ///< clamped preemptible availability
  /// The free profiles vnp the connection-order loop went through, in
  /// order: the initial one plus one after each placement.
  std::vector<View> freeProfiles;
  std::vector<std::uint32_t> freeAt;  ///< per app: index into freeProfiles

  // --- eqSchedule Step 2 per-cluster cache --------------------------------
  std::vector<ClusterId> clusterIds;
  NodeCount strictParticipants = 0;
  struct ClusterCache {
    std::vector<std::uint32_t> present;  ///< occupying apps (ascending)
    std::vector<StepFunction> outputs;   ///< one per present slot
    StepFunction idle;                   ///< series of every absent app
    bool hasIdle = false;
  };
  std::vector<ClusterCache> clusters;

  // --- per-pass scratch, kept for capacity --------------------------------
  std::vector<char> clean;      ///< lease-clean classification
  std::vector<char> npChanged;  ///< clean app's non-preemptive view moved
  std::vector<char> pChanged;   ///< preemptive view moved vs cache
  std::vector<View> nextFreeProfiles;  ///< this pass's freeProfiles
  /// Where the free profile moved between the previous pass's version
  /// `before` and this pass's `after`, per cluster: computed once per
  /// version pair, which a run of clean applications shares.
  struct FreeProfileMove {
    std::uint32_t before = 0;
    std::uint32_t after = 0;
    bool valid = false;
    bool sameClusters = false;  ///< else every view moved; no windows
    struct Window {
      ClusterId cluster;
      Time lo;
      Time hi;
    };
    std::vector<Window> windows;
  };
  FreeProfileMove freeMove;
  std::vector<View> oldOccupation;  ///< pre-recompute occupation (diff input)
  std::vector<const View*> operands;
  std::vector<std::vector<std::uint32_t>> candidates;
  std::vector<ClusterId> newClusterIds;
  std::vector<std::uint32_t> newPresent;  ///< one cluster's occupying apps
  std::vector<StepFunction> row;  ///< one cluster's all-apps recompute
};

namespace {

/// Whether clean application `i`'s non-preemptive view, max(0, paOcc +
/// vnp), moved because the free profile at its loop position did: from
/// the previous pass's version `before` to this pass's version `after`
/// (`current`), its own occupation unchanged. The sum is evaluated only
/// inside diffWindow(before, after) per cluster, whose windows are kept
/// for the whole run of applications sharing the two versions. Exact: the
/// answer is `sum(before) != sum(after)` as View::operator== sees it.
bool freeProfileMoveShows(IncrementalState& inc, std::size_t i,
                          std::uint32_t current) {
  IncrementalState::FreeProfileMove& move = inc.freeMove;
  const std::uint32_t previous = inc.freeAt[i];
  const View& before = inc.freeProfiles[previous];
  const View& after = inc.nextFreeProfiles[current];
  if (!move.valid || move.before != previous || move.after != current) {
    move.valid = true;
    move.before = previous;
    move.after = current;
    move.windows.clear();
    const std::vector<ClusterId> clusters = after.clusters();
    move.sameClusters = before.clusters() == clusters;
    if (move.sameClusters) {
      for (const ClusterId cid : clusters) {
        Time lo = 0;
        Time hi = 0;
        if (diffWindow(before.cap(cid).segments(), after.cap(cid).segments(),
                       lo, hi)) {
          move.windows.push_back({cid, lo, hi});
        }
      }
    }
  }
  // A cluster joined or left the free profile (a pre-allocation on a
  // cluster the machine lacks started or ended), so the view's entry set
  // moved with it: the app's own occupation cannot cover that cluster,
  // since every pass subtracts it into vnp, whose clusters therefore
  // include its clusters on both sides.
  if (!move.sameClusters) return true;
  const View& own = inc.paOcc[i];
  for (const IncrementalState::FreeProfileMove::Window& w : move.windows) {
    if (!clampedSumsAgree(own.cap(w.cluster), before.cap(w.cluster),
                          after.cap(w.cluster), w.lo, w.hi)) {
      return true;
    }
  }
  return false;
}

}  // namespace

Scheduler::Scheduler(Machine machine) : Scheduler(std::move(machine), Config{}) {}

Scheduler::Scheduler(Machine machine, Config config)
    : machine_(std::move(machine)), config_(config) {
  if (config.incremental) {
    inc_ = std::make_unique<IncrementalState>();
  }
}

void Scheduler::invalidateIncremental() const {
  if (inc_ != nullptr) inc_->valid = false;
}

Scheduler::~Scheduler() = default;
Scheduler::Scheduler(Scheduler&&) noexcept = default;
Scheduler& Scheduler::operator=(Scheduler&&) noexcept = default;

View Scheduler::machineView() const {
  View view;
  for (const ClusterSpec& cluster : machine_.clusters) {
    view.setCap(cluster.id, StepFunction::constant(cluster.nodes));
  }
  return view;
}

// ---------------------------------------------------------------------------
// Algorithm 1: toView
// ---------------------------------------------------------------------------
View Scheduler::toView(SetSnapshot& set, const View* available, Time now) {
  View out;
  for (SnapIndex i = set.begin(); i < set.end(); ++i) {
    set.rec(i).fixed = false;
  }

  // FIFO worklist; `fixed` doubles as the visited marker (reset above, set
  // exactly when a record is processed below).
  std::vector<SnapIndex> queue;
  queue.reserve(set.size());
  for (SnapIndex i = set.begin(); i < set.end(); ++i) {
    if (set.rec(i).started()) queue.push_back(i);
  }

  for (std::size_t head = 0; head < queue.size(); ++head) {
    const SnapIndex index = queue[head];
    SnapshotRecord& r = set.rec(index);
    if (r.fixed) continue;

    if (r.started()) {
      // Ground truth beats the derived time for running requests.
      r.scheduledAt = r.startedAt;
    } else {
      COORM_DCHECK(r.parent != kNoRecord);
      const SnapshotRecord& parent = set.rec(r.parent);
      switch (r.relatedHow) {
        case Relation::kNext:
          r.scheduledAt = satAdd(parent.scheduledAt, parent.duration);
          break;
        case Relation::kCoAlloc:
          r.scheduledAt = parent.scheduledAt;
          break;
        case Relation::kFree:
          continue;  // children() never yields these; defensive
      }
    }

    if (r.started() && r.type == RequestType::kPreemptible) {
      // A running preemptible request occupies what it actually holds.
      r.nAlloc = r.heldIds;
    } else if (available != nullptr &&
               r.type == RequestType::kPreemptible) {
      // Pending leases are granted from *current* availability: the
      // scheduled start may lie in the past (the parent ended a while
      // ago), where the view no longer means anything.
      r.nAlloc = grantAtStart(*available, r, std::max(r.scheduledAt, now));
    } else if (available != nullptr) {
      r.nAlloc = available->alloc(r.cluster, r.scheduledAt, r.duration,
                                  r.nodes);
    } else {
      r.nAlloc = r.nodes;
    }
    r.fixed = true;
    addOccupation(out, r);

    for (const SnapIndex child : set.childrenOf(index)) {
      queue.push_back(child);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Algorithm 2: fit
// ---------------------------------------------------------------------------
View Scheduler::fit(SetSnapshot& set, const View& available, Time t0,
                    FitStats* stats) {
  FitStats local;
  if (stats == nullptr) stats = &local;
  std::vector<SnapIndex> queue;
  queue.reserve(set.size() * 2 + 8);  // constraint conflicts re-push parents
  std::size_t nonFixed = 0;
  for (SnapIndex i = set.begin(); i < set.end(); ++i) {
    SnapshotRecord& r = set.rec(i);
    if (r.fixed) continue;
    r.earliestScheduleAt = t0;  // nothing can be scheduled earlier than t0
    r.scheduledAt = kTimeInf;   // in case of error, the request never starts
    r.nAlloc = 0;
    ++nonFixed;
  }
  for (const SnapIndex root : set.roots()) queue.push_back(root);

  // The constraint-propagation loop converges because earliestScheduleAt
  // only moves forward; the guard bounds pathological inputs.
  std::size_t budget = 64 * (nonFixed + set.size() + 1);

  for (std::size_t head = 0; head < queue.size() && budget > 0; ++head) {
    --budget;
    ++stats->queuePops;
    const SnapIndex index = queue[head];
    SnapshotRecord& r = set.rec(index);

    if (r.fixed) {
      // Start times of fixed records cannot move; just visit children.
      for (const SnapIndex child : set.childrenOf(index)) {
        ++stats->childVisits;
        queue.push_back(child);
      }
      continue;
    }

    SnapshotRecord* parent = r.parent != kNoRecord ? &set.rec(r.parent) : nullptr;
    r.nAlloc = r.nodes;  // default; preemptible branches override below
    const Time before = r.scheduledAt;

    switch (r.relatedHow) {
      case Relation::kFree: {
        if (r.type == RequestType::kPreemptible) {
          // Preemptible requests are not guaranteed (A.1): they are leases,
          // granted whatever is free at the earliest instant anything is
          // free (the race with an evolving application's update resolves
          // by shrinking the grant, exactly the appendix's nAlloc story).
          r.scheduledAt = available.findHole(r.cluster, 1, msec(1),
                                             r.earliestScheduleAt);
          r.nAlloc = grantAtStart(available, r, r.scheduledAt);
        } else {
          r.scheduledAt = available.findHole(r.cluster, r.nodes, r.duration,
                                             r.earliestScheduleAt);
        }
        break;
      }
      case Relation::kCoAlloc: {
        if (parent == nullptr) break;
        if (r.type == RequestType::kPreemptible &&
            parent->type != RequestType::kPreemptible) {
          r.scheduledAt = parent->scheduledAt;
          r.nAlloc = grantAtStart(available, r, r.scheduledAt);
        } else {
          r.scheduledAt = available.findHole(
              r.cluster, r.nodes, r.duration,
              std::max(parent->scheduledAt, r.earliestScheduleAt));
          if (r.scheduledAt != parent->scheduledAt && !parent->fixed &&
              set.contains(r.parent)) {
            // The parent must be delayed for the constraint to hold.
            parent->earliestScheduleAt = r.scheduledAt;
            ++stats->parentRepushes;
            queue.push_back(r.parent);
          }
        }
        break;
      }
      case Relation::kNext: {
        if (parent == nullptr) break;
        const Time parentEnd = satAdd(parent->scheduledAt, parent->duration);
        if (r.type == RequestType::kPreemptible) {
          r.scheduledAt = parentEnd;
          r.nAlloc = grantAtStart(available, r, r.scheduledAt);
        } else {
          r.scheduledAt = available.findHole(
              r.cluster, r.nodes, r.duration,
              std::max(parentEnd, r.earliestScheduleAt));
          if (r.scheduledAt != parentEnd && !parent->fixed &&
              set.contains(r.parent)) {
            parent->earliestScheduleAt =
                satSub(r.scheduledAt, parent->duration);
            ++stats->parentRepushes;
            queue.push_back(r.parent);
          }
        }
        break;
      }
    }

    if (before != r.scheduledAt) {
      for (const SnapIndex child : set.childrenOf(index)) {
        ++stats->childVisits;
        queue.push_back(child);
      }
    }
  }

  // Schedule converged (or budget exhausted): emit the generated view.
  View out;
  for (SnapIndex i = set.begin(); i < set.end(); ++i) {
    const SnapshotRecord& r = set.rec(i);
    if (!r.fixed) addOccupation(out, r);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Algorithm 3: eqSchedule
// ---------------------------------------------------------------------------
namespace {

/// The per-breakpoint arithmetic of eqSchedule Step 2, shared between the
/// full cluster sweep (eqScheduleCluster) and the incremental windowed
/// re-sweep so both compute byte-identical values. An instance tracks the
/// running per-application demands of one sweep over
/// [avail, occupation...]; emitAt() computes every occupying application's
/// entitlement and the idle share at the sweep's current breakpoint.
class Step2Values {
 public:
  Step2Values(const ProfileSweep& sweep, std::size_t napps, bool strict,
              NodeCount strictParticipants)
      : napps_(napps),
        strict_(strict),
        strictParticipants_(strictParticipants),
        wants_(sweep.size() - 1) {
    for (std::size_t k = 0; k < wants_.size(); ++k) {
      wants_[k] = std::max<NodeCount>(sweep.value(k + 1), 0);
      sumWant_ += wants_[k];
      if (wants_[k] > 0) ++active_;
    }
  }

  /// Applies the most recent advance()'s changed() set to the running
  /// demands.
  void applyChanges(const ProfileSweep& sweep) {
    for (const std::uint32_t idx : sweep.changed()) {
      if (idx == 0) continue;  // avail changed; vin is re-read anyway
      const std::size_t k = idx - 1;
      const NodeCount want = std::max<NodeCount>(sweep.value(idx), 0);
      sumWant_ += want - wants_[k];
      if ((want > 0) != (wants_[k] > 0)) active_ += want > 0 ? 1 : -1;
      wants_[k] = want;
    }
  }

  /// Values at sweep.time(): invokes emitApp(k, value) for every occupying
  /// application slot k and returns the idle value (what an application
  /// without demand on this cluster may have).
  template <typename EmitApp>
  NodeCount emitAt(const ProfileSweep& sweep, EmitApp&& emitApp) {
    const NodeCount vin = std::max<NodeCount>(sweep.value(0), 0);
    const bool anyInactive = active_ < static_cast<NodeCount>(napps_);

    if (strict_) {
      // Strict equi-partitioning (§5.4 baseline): a fixed share per
      // application that uses preemptible resources, with no filling of
      // unused partitions.
      return vin / std::max<NodeCount>(strictParticipants_, 1);
    }
    if (sumWant_ > vin) {
      // Congested: distribute equally until nothing is left (paper lines
      // 8–18). Every application's view shows at least the partition it
      // is entitled to.
      fairDistributeInto(vin, wants_, gives_);
      const NodeCount partitions = active_ + (anyInactive ? 1 : 0);
      const NodeCount share = partitions > 0 ? vin / partitions : 0;
      for (std::size_t k = 0; k < wants_.size(); ++k) {
        emitApp(k, std::max(gives_[k], share));
      }
      return share;
    }
    // Uncongested: each application sees what the others leave unused,
    // but never less than its equi-partition (paper lines 19–25). The
    // partition count only depends on whether the application is active,
    // so two divisions cover every application.
    const NodeCount shareActive = active_ > 0 ? vin / active_ : vin;
    const NodeCount shareIdle = vin / (active_ + 1);
    const NodeCount freeLeft = vin - sumWant_;
    for (std::size_t k = 0; k < wants_.size(); ++k) {
      if (wants_[k] > 0) {
        emitApp(k, std::max(freeLeft + wants_[k], shareActive));
      } else {
        emitApp(k, std::max(freeLeft, shareIdle));
      }
    }
    return std::max(freeLeft, shareIdle);
  }

 private:
  std::size_t napps_;
  bool strict_;
  NodeCount strictParticipants_;
  NodeCount sumWant_ = 0;
  NodeCount active_ = 0;
  std::vector<NodeCount> wants_;
  std::vector<NodeCount> gives_;
};

/// Step 2 of eqSchedule for one cluster: one synchronized sweep over the
/// merged breakpoints of `avail` and the occupation profiles decides what
/// each application may have, writing each application's profile into
/// `out` (pre-sized to one slot per application; every slot is written).
/// Pure in everything but `out`.
///
/// Applications with no preemptible occupation on this cluster ("absent")
/// have identically-zero demand: they neither contribute breakpoints nor
/// influence the distribution beyond the inactive-partition count, and
/// they all receive the same idle-share series. The sweep therefore runs
/// over the occupying applications only and the idle series is computed
/// once and shared — on a multi-cluster machine absent is the common case,
/// which turns Step 2 from O(clusters × apps) into O(total occupations)
/// per breakpoint. Values are identical to the all-apps sweep.
///
/// `candidates` (ascending app indices) are the applications whose
/// snapshot demand summary names this cluster — a superset of the
/// occupying applications, since occupation pulses only ever land on a
/// request's own cluster. Probing candidates instead of every application
/// makes present-detection O(demand entries) instead of O(clusters × apps).
void eqScheduleCluster(ClusterId cid, const View& avail,
                       std::span<const View> occupation,
                       std::span<const std::uint32_t> candidates, bool strict,
                       NodeCount strictParticipants,
                       std::span<StepFunction> out) {
  const std::size_t napps = occupation.size();

  std::vector<std::uint32_t> present;  // apps occupying this cluster
  if (!strict) {
    // Strict mode hands every application the same fixed share, so nobody
    // needs the per-application demands: sweep `avail` alone.
    present.reserve(candidates.size());
    for (const std::uint32_t i : candidates) {
      if (!occupation[i].cap(cid).isZero()) {
        present.push_back(i);
      }
    }
  }

  std::vector<const StepFunction*> fns;
  fns.reserve(present.size() + 1);
  fns.push_back(&avail.cap(cid));
  for (const std::uint32_t i : present) {
    fns.push_back(&occupation[i].cap(cid));
  }
  ProfileSweep sweep(fns);
  Step2Values values(sweep, napps, strict, strictParticipants);

  // Arena-backed scratch: per breakpoint the emitted profiles reuse pooled
  // blocks from the thread's arena instead of fresh vectors.
  std::vector<SegmentStore> outSegments(present.size());
  // The idle series: what every application without demand here may have.
  // Needed whenever some application is absent (and exclusively in strict
  // mode, where it doubles as the shared fixed-share series).
  SegmentStore idleSegments;
  const bool needIdle = strict || present.size() < napps;
  // Emit a breakpoint only when the value changes, so each output is born
  // canonical and stays proportional to its own change count rather than
  // to the merged breakpoint count.
  const auto emit = [](SegmentStore& segments, Time t, NodeCount value) {
    if (segments.empty() || segments.back().value != value) {
      segments.push_back({t, value});
    }
  };
  for (;;) {
    const Time t = sweep.time();
    const NodeCount idle = values.emitAt(sweep, [&](std::size_t k,
                                                    NodeCount value) {
      emit(outSegments[k], t, value);
    });
    if (needIdle) emit(idleSegments, t, idle);

    if (!sweep.advance()) break;
    values.applyChanges(sweep);
  }

  for (std::size_t k = 0; k < present.size(); ++k) {
    out[present[k]] =
        StepFunction::fromCanonical(std::move(outSegments[k]));
  }
  if (needIdle) {
    const StepFunction idle =
        StepFunction::fromCanonical(std::move(idleSegments));
    std::size_t k = 0;  // walk `present` (ascending) alongside the apps
    for (std::size_t i = 0; i < napps; ++i) {
      if (!strict && k < present.size() && present[k] == i) {
        ++k;
        continue;
      }
      out[i] = idle;
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental Step 2: dirty-range diffing, windowed re-sweeps, splicing.
//
// DirtyRange / diffWindow / mergeRanges / spliceWindow live in
// profile/profile_diff.{hpp,cpp} since PR 9 — the VIEWS_DELTA wire path
// shares them. For Step 2 the pointwise property of the arithmetic (each
// output value at t depends only on input values at t) is what makes the
// input diff window also bound the output change.
// ---------------------------------------------------------------------------

/// Re-sweeps every dirty range of one cluster and splices the recomputed
/// values into the cached outputs in place. `slotChanged` / `idleChanged`
/// accumulate (OR) which cached series actually moved.
///
/// One positioned sweep serves all ranges: construction (cursor placement,
/// heap build, demand totals) is paid once per cluster, gaps between
/// ranges are crossed with applyChanges() only — O(breakpoints crossed),
/// no per-application work — and the O(present) emit runs solely at
/// breakpoints inside a range. `ranges` must be sorted, merged and
/// disjoint (mergeRanges), which also guarantees the cached value just
/// before each range start is untouched by earlier splices.
void resweepCluster(ClusterId cid, const StepFunction& availCap,
                    std::span<const View> occupation, bool strict,
                    NodeCount strictParticipants, std::size_t napps,
                    std::span<const DirtyRange> ranges,
                    IncrementalState::ClusterCache& cache,
                    std::vector<char>& slotChanged, bool& idleChanged) {
  const std::vector<std::uint32_t>& present = cache.present;
  std::vector<const StepFunction*> fns;
  fns.reserve(present.size() + 1);
  fns.push_back(&availCap);
  for (const std::uint32_t i : present) {
    fns.push_back(&occupation[i].cap(cid));
  }
  ProfileSweep sweep(fns, ranges.front().lo);
  Step2Values values(sweep, napps, strict, strictParticipants);

  std::vector<SegmentStore> windows(present.size());
  std::vector<NodeCount> lastVal(present.size());
  std::vector<char> hasLast(present.size());
  SegmentStore idleWindow;
  NodeCount idleLast = 0;
  bool idleHasLast = false;

  std::size_t ri = 0;
  // Window emit state: each series starts from the value its spliced
  // prefix holds just before lo (no prefix when lo == 0, so the first
  // breakpoint is emitted unconditionally and lands at t == 0).
  const auto seed = [&](Time lo) {
    const bool hasPrev = lo > 0;
    std::fill(hasLast.begin(), hasLast.end(), hasPrev ? 1 : 0);
    if (hasPrev) {
      for (std::size_t k = 0; k < present.size(); ++k) {
        lastVal[k] = cache.outputs[k].at(lo - 1);
      }
    }
    idleHasLast = hasPrev;
    idleLast = hasPrev && cache.hasIdle ? cache.idle.at(lo - 1) : 0;
  };
  const auto splice = [&](const DirtyRange& r) {
    for (std::size_t k = 0; k < present.size(); ++k) {
      if (spliceWindow(cache.outputs[k], r.lo, r.hi, windows[k].span())) {
        slotChanged[k] = 1;
      }
      windows[k].clear();
    }
    if (cache.hasIdle &&
        spliceWindow(cache.idle, r.lo, r.hi, idleWindow.span())) {
      idleChanged = true;
    }
    idleWindow.clear();
  };
  seed(ranges.front().lo);
  bool seeded = true;

  for (;;) {
    const Time t = sweep.time();
    const Time nxt = sweep.peek();  // kTimeInf once exhausted
    // The value interval [t, nxt) may reach several ranges: emit into each
    // it intersects and retire every range it covers through its end.
    while (ri < ranges.size() && ranges[ri].lo < nxt) {
      const DirtyRange& r = ranges[ri];
      if (t < r.hi) {
        if (!seeded) {
          seed(r.lo);
          seeded = true;
        }
        // Clamp the first emission of the range onto its start; later
        // breakpoints lie strictly inside, so times stay increasing.
        const Time at = std::max(t, r.lo);
        const NodeCount idle =
            values.emitAt(sweep, [&](std::size_t k, NodeCount value) {
              if (!hasLast[k] || lastVal[k] != value) {
                windows[k].push_back({at, value});
                lastVal[k] = value;
                hasLast[k] = 1;
              }
            });
        if (cache.hasIdle && (!idleHasLast || idleLast != idle)) {
          idleWindow.push_back({at, idle});
          idleLast = idle;
          idleHasLast = true;
        }
      }
      if (r.hi <= nxt) {  // no further breakpoint falls inside this range
        splice(r);
        ++ri;
        seeded = false;
      } else {
        break;
      }
    }
    if (ri >= ranges.size()) break;
    if (!sweep.advance()) break;  // unreachable: nxt was kTimeInf above
    values.applyChanges(sweep);
  }
}

}  // namespace

void Scheduler::eqSchedule(std::span<AppSnapshot> apps, const View& available,
                           Time now, bool strict) {
  const std::size_t napps = apps.size();
  if (napps == 0) return;

  // Callers (schedulePass()) usually hand in an already-clamped view; only
  // copy when the clamp would actually change something.
  View clamped;
  if (!available.nonNegative()) {
    clamped = available;
    clamped.clampMin(0);
  }
  const View& avail = clamped.empty() ? available : clamped;

  // Step 1: preliminary occupation views (started + newly fitted
  // requests). Each application's step touches only its own snapshot
  // records and occupation slot (constraints never cross applications).
  // Applications with an empty preemptible set have no records to fix and
  // an empty occupation — skip the algebra entirely.
  const std::uint64_t step1Start = metrics::nowNanos();
  std::vector<View> occupation(napps);
  for (std::size_t i = 0; i < napps; ++i) {
    apps[i].preemptiveView = View{};
    SetSnapshot& set = apps[i].preemptible();
    if (set.empty()) continue;
    occupation[i] = toView(set, &avail, now);
    if (occupation[i].empty()) {
      // Nothing started: avail - 0 clamped is avail itself (clamped on
      // entry), so fit directly against it and adopt the result outright.
      occupation[i] = fit(set, avail, now);
    } else {
      View freeForMe = avail;
      accumulateOne(freeForMe, occupation[i], View::Op::kSubtract,
                    /*clampAtZero=*/true);
      occupation[i] += fit(set, freeForMe, now);
    }
  }

  const std::uint64_t step2Start = metrics::nowNanos();
  trace::span("eq_step1", step1Start, step2Start);

  // Step 2: per piece-wise-constant interval, decide what each application
  // may have. The sweep partitions cleanly by cluster: each cluster's row
  // of per-application profiles lands in the views before the next
  // cluster is swept. The captured demand summaries invert into
  // per-cluster candidate lists, so each cluster sweep only probes the
  // applications that can occupy it.
  std::vector<ClusterId> clusterIds;
  avail.appendClusterIds(clusterIds);
  for (const View& occ : occupation) occ.appendClusterIds(clusterIds);
  View::sortUniqueClusterIds(clusterIds);

  std::vector<std::vector<std::uint32_t>> candidates(clusterIds.size());
  for (std::size_t i = 0; i < napps; ++i) {
    for (const ClusterDemand& demand : apps[i].preemptibleDemand()) {
      const auto it = std::lower_bound(clusterIds.begin(), clusterIds.end(),
                                       demand.cluster);
      if (it != clusterIds.end() && *it == demand.cluster) {
        candidates[static_cast<std::size_t>(it - clusterIds.begin())]
            .push_back(static_cast<std::uint32_t>(i));
      }
    }
  }

  NodeCount strictParticipants = 0;  // breakpoint-invariant
  if (strict) {
    for (const AppSnapshot& app : apps) {
      if (!app.preemptible().empty()) ++strictParticipants;
    }
  }

  std::vector<StepFunction> row(napps);
  for (std::size_t c = 0; c < clusterIds.size(); ++c) {
    eqScheduleCluster(clusterIds[c], avail, occupation, candidates[c],
                      strict, strictParticipants, row);
    for (std::size_t i = 0; i < napps; ++i) {
      apps[i].preemptiveView.setCap(clusterIds[c], std::move(row[i]));
    }
  }

  const std::uint64_t step3Start = metrics::nowNanos();
  trace::span("eq_step2", step2Start, step3Start);

  // Step 3: reschedule every application's preemptible requests against its
  // final view so scheduledAt and nAlloc are consistent with what we will
  // actually grant.
  for (std::size_t i = 0; i < napps; ++i) {
    SetSnapshot& set = apps[i].preemptible();
    if (set.empty()) continue;
    const View own = toView(set, &apps[i].preemptiveView, now);
    if (own.empty()) {
      // Preemptive views are non-negative by construction, so the
      // subtract-clamp of an empty occupation is the view itself.
      fit(set, apps[i].preemptiveView, now);
    } else {
      View rest = apps[i].preemptiveView;
      accumulateOne(rest, own, View::Op::kSubtract, /*clampAtZero=*/true);
      fit(set, rest, now);
    }
  }
  trace::span("eq_step3", step3Start, metrics::nowNanos());
}

// ---------------------------------------------------------------------------
// Algorithm 4: main scheduling algorithm
// ---------------------------------------------------------------------------
void Scheduler::schedulePass(RequestSetSnapshot& snapshot, Time now) const {
  // Every profile built on this thread below (occupation folds, fit
  // scratch, view algebra) draws its segment blocks from the thread's one
  // arena, where blocks dropped anywhere on this thread park. The views the
  // server's commit swapped back into the snapshot (its superseded stash)
  // are dropped below just before each app's new views are built, so the
  // blocks whose last holder they were are the first ones reused.
  if (inc_ != nullptr) {
    schedulePassIncremental(snapshot, now);
    return;
  }
  const std::span<AppSnapshot> apps = snapshot.apps();
  View vnp = machineView();  // non-preemptible resources still available
  View vp = machineView();   // preemptible resources still available

  // Subtract resources held by started pre-allocations / NP requests: one
  // N-ary sweep each, instead of a fold of binary subtractions that
  // re-merges the accumulated view once per application.
  std::vector<View> paOcc(apps.size());
  std::vector<View> npOcc(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    paOcc[i] = toView(apps[i].preAllocations());
    npOcc[i] = toView(apps[i].nonPreemptible());
  }
  std::vector<const View*> operands;
  operands.reserve(apps.size() * 2);
  for (const View& occ : paOcc) operands.push_back(&occ);
  vnp.accumulate(operands, View::Op::kSubtract);

  // Non-preemptive views and start times, in connection order. The toView
  // results above stay valid through this loop: fit() only mutates the
  // set it is given, so application i's occupation views cannot change
  // before iteration i reads them. vnp is consumed inside the loop and
  // must be updated eagerly; vp is only read after it, so the fitted NP
  // occupations are collected and folded in one sweep at the end.
  std::vector<View> npFitted;
  npFitted.reserve(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    AppSnapshot& app = apps[i];
    const View& ownStartedPa = paOcc[i];

    app.viewsReused = false;  // the full pass always publishes views
    app.nonPreemptiveView = {vnp, ownStartedPa};
    const View occPa =
        fit(app.preAllocations(), NonPreemptiveView::sum(vnp, ownStartedPa),
            now);

    View npAvailable = ownStartedPa;
    accumulateOne(npAvailable, occPa, View::Op::kAdd);
    accumulateOne(npAvailable, npOcc[i], View::Op::kSubtract,
                  /*clampAtZero=*/true);
    npFitted.push_back(fit(app.nonPreemptible(), npAvailable, now));

    accumulateOne(vnp, occPa, View::Op::kSubtract);
  }

  operands.clear();
  for (const View& occ : npOcc) operands.push_back(&occ);
  for (const View& occ : npFitted) operands.push_back(&occ);
  vp.accumulate(operands, View::Op::kSubtract);

  vp.clampMin(0);
  eqSchedule(apps, vp, now, config_.strictEquiPartition);
}

// ---------------------------------------------------------------------------
// Incremental pass: Algorithm 4 organised around the pass-to-pass cache.
//
// Cleanliness argument, applied per application below:
//  - kSkipped capture means nothing about the app's requests mutated since
//    the cached pass, so every record still holds that pass's results.
//  - allStarted means every member record's results are independent of the
//    pass's `now` and of the availability views: toView would rewrite
//    scheduledAt = startedAt / nAlloc = heldIds / fixed = true, and fit
//    has no non-fixed records to place (empty occupation, no vnp change).
// Such a lease-clean app's entire per-app derivation is served from the
// cache; everything else is recomputed with exactly the full path's
// arithmetic, in the same order, which keeps results bit-identical (pinned
// by tests/test_scheduler_incremental.cpp).
// ---------------------------------------------------------------------------
void Scheduler::schedulePassIncremental(RequestSetSnapshot& snapshot,
                                        Time now) const {
  IncrementalState& inc = *inc_;
  const std::span<AppSnapshot> apps = snapshot.apps();
  const std::size_t napps = apps.size();
  const bool strict = config_.strictEquiPartition;

  // The cache is positional: it describes the previous pass over this same
  // application sequence in this same snapshot. Any membership or order
  // change re-derives everything (while still priming the cache).
  bool warm = inc.valid && inc.snapshotKey == &snapshot &&
              inc.appIds.size() == napps;
  if (warm) {
    for (std::size_t i = 0; i < napps; ++i) {
      if (inc.appIds[i] != apps[i].app()) {
        warm = false;
        break;
      }
    }
  }
  inc.valid = false;  // re-armed only when this pass completes
  inc.snapshotKey = &snapshot;
  inc.appIds.resize(napps);
  for (std::size_t i = 0; i < napps; ++i) inc.appIds[i] = apps[i].app();

  inc.clean.assign(napps, 0);
  std::size_t cleanCount = 0;
  if (warm) {
    for (std::size_t i = 0; i < napps; ++i) {
      if (apps[i].lastCapture() == CaptureKind::kSkipped &&
          apps[i].allStarted()) {
        inc.clean[i] = 1;
        ++cleanCount;
      }
    }
  }
  metrics::increment(metrics::Event::kPassAppsClean, cleanCount);
  metrics::increment(metrics::Event::kPassAppsDirty, napps - cleanCount);

  inc.paOcc.resize(napps);
  inc.npOcc.resize(napps);
  inc.occPa.resize(napps);
  inc.npFitted.resize(napps);
  inc.occupation.resize(napps);
  inc.pViews.resize(napps);
  inc.freeAt.resize(napps);
  inc.oldOccupation.resize(napps);
  inc.npChanged.assign(napps, 0);
  inc.pChanged.assign(napps, 0);

  // Started pre-allocation / non-preemptible occupations (dirty apps only:
  // these depend exclusively on captured request attributes, so an
  // epoch-clean app's cached views are exact).
  for (std::size_t i = 0; i < napps; ++i) {
    if (inc.clean[i]) continue;
    inc.paOcc[i] = toView(apps[i].preAllocations());
    inc.npOcc[i] = toView(apps[i].nonPreemptible());
  }

  View vnp = machineView();
  std::vector<const View*>& operands = inc.operands;
  operands.clear();
  operands.reserve(napps * 2);
  for (const View& occ : inc.paOcc) operands.push_back(&occ);
  vnp.accumulate(operands, View::Op::kSubtract);
  // While vnpSame holds, vnp at the current loop position is bit-identical
  // to the cached pass's vnp at the same position, so a clean app's view
  // cannot have moved. The loop then keeps publishing the previous pass's
  // free profiles themselves, so an unchanged pair is the same blocks.
  bool vnpSame = warm && vnp == inc.vnpInitial;
  if (vnpSame) {
    vnp = inc.vnpInitial;
  } else {
    inc.vnpInitial = vnp;
  }

  // Non-preemptive views and start times, in connection order — the exact
  // full-path loop for dirty apps; lease-clean apps contribute provably
  // empty occupations and leave vnp untouched. Each app records which free
  // profile it saw; the views themselves are published as pairs below.
  std::vector<View>& freeNow = inc.nextFreeProfiles;
  freeNow.clear();
  freeNow.push_back(vnp);
  inc.freeMove.valid = false;
  for (std::size_t i = 0; i < napps; ++i) {
    AppSnapshot& app = apps[i];
    // Retire the view the server's commit swapped back into the snapshot
    // (its superseded stash) before building this app's replacement: when
    // it held a block's last reference, that block is the next one reused.
    app.nonPreemptiveView.clear();
    const auto current = static_cast<std::uint32_t>(freeNow.size() - 1);
    if (inc.clean[i]) {
      inc.occPa[i] = View{};
      inc.npFitted[i] = View{};
      if (!vnpSame && freeProfileMoveShows(inc, i, current)) {
        inc.npChanged[i] = 1;
      }
      inc.freeAt[i] = current;
      continue;
    }
    // The view as fit's scratch, dropped once the pre-allocations are in.
    View occPa = fit(app.preAllocations(),
                     NonPreemptiveView::sum(vnp, inc.paOcc[i]), now);

    View npAvailable = inc.paOcc[i];
    accumulateOne(npAvailable, occPa, View::Op::kAdd);
    accumulateOne(npAvailable, inc.npOcc[i], View::Op::kSubtract,
                  /*clampAtZero=*/true);
    inc.npFitted[i] = fit(app.nonPreemptible(), npAvailable, now);

    inc.freeAt[i] = current;
    if (vnpSame && !(occPa == inc.occPa[i])) vnpSame = false;
    if (!occPa.empty()) {
      if (vnpSame) {
        // Retracing the previous pass placement for placement: the next
        // free profile is the one it computed, bit for bit.
        COORM_DCHECK(freeNow.size() < inc.freeProfiles.size());
        vnp = inc.freeProfiles[freeNow.size()];
      } else {
        accumulateOne(vnp, occPa, View::Op::kSubtract);
      }
      freeNow.push_back(vnp);
    }
    inc.occPa[i] = std::move(occPa);
  }
  std::swap(inc.freeProfiles, freeNow);
  freeNow.clear();  // the previous pass's versions, no longer compared to

  View vp = machineView();
  operands.clear();
  for (const View& occ : inc.npOcc) operands.push_back(&occ);
  for (const View& occ : inc.npFitted) operands.push_back(&occ);
  vp.accumulate(operands, View::Op::kSubtract);
  vp.clampMin(0);

  for (AppSnapshot& app : apps) app.preemptiveView.clear();  // likewise

  // eqSchedule Step 1: preliminary preemptible occupations (dirty apps;
  // an all-started app's occupation ignores both `vp` and `now`). The
  // pre-recompute views are kept aside as the Step 2 diff baseline.
  const std::uint64_t step1Start = metrics::nowNanos();
  for (std::size_t i = 0; i < napps; ++i) {
    if (inc.clean[i]) continue;
    inc.oldOccupation[i] = std::move(inc.occupation[i]);
    SetSnapshot& set = apps[i].preemptible();
    if (set.empty()) {
      inc.occupation[i] = View{};
      continue;
    }
    inc.occupation[i] = toView(set, &vp, now);
    if (inc.occupation[i].empty()) {
      inc.occupation[i] = fit(set, vp, now);
    } else {
      View freeForMe = vp;
      accumulateOne(freeForMe, inc.occupation[i], View::Op::kSubtract,
                    /*clampAtZero=*/true);
      inc.occupation[i] += fit(set, freeForMe, now);
    }
  }
  const std::uint64_t step2Start = metrics::nowNanos();
  trace::span("eq_step1", step1Start, step2Start);

  if (napps > 0) {
    // eqSchedule Step 2, cached per cluster.
    std::vector<ClusterId>& clusterIds = inc.newClusterIds;
    clusterIds.clear();
    vp.appendClusterIds(clusterIds);
    for (const View& occ : inc.occupation) occ.appendClusterIds(clusterIds);
    View::sortUniqueClusterIds(clusterIds);

    NodeCount strictParticipants = 0;
    if (strict) {
      for (const AppSnapshot& app : apps) {
        if (!app.preemptible().empty()) ++strictParticipants;
      }
    }

    // The per-cluster caches are keyed by position in clusterIds; a change
    // to the cluster union (or the strict participant count, a global
    // input of every cluster) recomputes every cluster.
    const bool step2Warm = warm && clusterIds == inc.clusterIds &&
                           strictParticipants == inc.strictParticipants &&
                           inc.clusters.size() == clusterIds.size();
    if (!step2Warm) {
      // The cached per-app views may hold entries for clusters that left
      // the union; rebuild them from scratch so the entry sets match the
      // full path's setCap-per-cluster construction exactly.
      for (std::size_t i = 0; i < napps; ++i) inc.pViews[i] = View{};
      inc.pChanged.assign(napps, 1);
    }
    inc.clusters.resize(clusterIds.size());

    inc.candidates.resize(clusterIds.size());
    for (auto& list : inc.candidates) list.clear();
    for (std::size_t i = 0; i < napps; ++i) {
      for (const ClusterDemand& demand : apps[i].preemptibleDemand()) {
        const auto it = std::lower_bound(clusterIds.begin(), clusterIds.end(),
                                         demand.cluster);
        if (it != clusterIds.end() && *it == demand.cluster) {
          inc.candidates[static_cast<std::size_t>(it - clusterIds.begin())]
              .push_back(static_cast<std::uint32_t>(i));
        }
      }
    }

    // Cluster by cluster, in cluster order like the full path: each
    // cluster's outcome lands in its cache and the per-app preemptive
    // views before the next cluster is swept.
    std::uint64_t rangesReused = 0;
    for (std::size_t c = 0; c < clusterIds.size(); ++c) {
      const ClusterId cid = clusterIds[c];
      IncrementalState::ClusterCache& cc = inc.clusters[c];

      std::vector<std::uint32_t>& present = inc.newPresent;
      present.clear();
      if (!strict) {
        for (const std::uint32_t i : inc.candidates[c]) {
          if (!inc.occupation[i].cap(cid).isZero()) present.push_back(i);
        }
      }
      if (!step2Warm || present != cc.present) {
        // Cold cache or membership change on this cluster: the sweep
        // structure itself moved — recompute the whole cluster.
        std::vector<StepFunction>& row = inc.row;
        row.resize(napps);
        eqScheduleCluster(cid, vp, inc.occupation, inc.candidates[c], strict,
                          strictParticipants, row);
        cc.present.swap(present);  // the old list's buffer is next scratch
        cc.outputs.resize(cc.present.size());
        cc.hasIdle = strict || cc.present.size() < napps;
        if (cc.hasIdle) {
          // Any absent slot holds (a share of) the idle series.
          std::size_t absent = 0;
          std::size_t k = 0;
          while (k < cc.present.size() && cc.present[k] == absent) {
            ++k;
            ++absent;
          }
          cc.idle = row[absent];
        }
        std::size_t k = 0;
        for (std::size_t i = 0; i < napps; ++i) {
          const bool isPresent =
              k < cc.present.size() && cc.present[k] == i;
          const bool changed =
              !step2Warm || !(row[i] == inc.pViews[i].cap(cid));
          if (isPresent) {
            cc.outputs[k] = std::move(row[i]);
            if (changed) {
              inc.pViews[i].setCap(cid, cc.outputs[k]);
              inc.pChanged[i] = 1;
            }
            ++k;
          } else if (changed) {
            inc.pViews[i].setCap(cid, std::move(row[i]));
            inc.pChanged[i] = 1;
          }
        }
        continue;
      }

      // Same membership: collect the ranges where any input moved.
      std::vector<DirtyRange> ranges;
      Time lo = 0;
      Time hi = 0;
      if (diffWindow(inc.vp.cap(cid).segments(), vp.cap(cid).segments(), lo,
                     hi)) {
        ranges.push_back({lo, hi});
      }
      for (const std::uint32_t i : cc.present) {
        if (inc.clean[i]) continue;  // occupation unchanged by definition
        if (diffWindow(inc.oldOccupation[i].cap(cid).segments(),
                       inc.occupation[i].cap(cid).segments(), lo, hi)) {
          ranges.push_back({lo, hi});
        }
      }
      rangesReused += cc.present.size() + (cc.hasIdle ? 1 : 0);
      if (ranges.empty()) continue;  // every series reused outright

      mergeRanges(ranges);
      std::vector<char> slotChanged(cc.present.size(), 0);
      bool idleChanged = false;
      resweepCluster(cid, vp.cap(cid), inc.occupation, strict,
                     strictParticipants, napps, ranges, cc, slotChanged,
                     idleChanged);
      for (std::size_t k = 0; k < cc.present.size(); ++k) {
        if (!slotChanged[k]) continue;
        const std::uint32_t i = cc.present[k];
        inc.pViews[i].setCap(cid, cc.outputs[k]);
        inc.pChanged[i] = 1;
      }
      if (idleChanged) {
        std::size_t k = 0;
        for (std::size_t i = 0; i < napps; ++i) {
          if (!strict && k < cc.present.size() && cc.present[k] == i) {
            ++k;
            continue;
          }
          inc.pViews[i].setCap(cid, cc.idle);
          inc.pChanged[i] = 1;
        }
      }
    }
    metrics::increment(metrics::Event::kStep2RangesReused, rangesReused);

    inc.clusterIds = clusterIds;
    inc.strictParticipants = strictParticipants;
  } else {
    inc.clusterIds.clear();
    inc.clusters.clear();
    inc.strictParticipants = 0;
  }
  inc.vp = std::move(vp);

  // Publish the output views: copies share the cache's segment blocks, and
  // the non-preemptive view goes out as its operand pair. A lease-clean
  // app whose neither view moved publishes nothing: the snapshot's views
  // stay empty (retired above) and viewsReused tells the owner its stashed
  // views are still exact.
  for (std::size_t i = 0; i < napps; ++i) {
    AppSnapshot& app = apps[i];
    app.viewsReused =
        inc.clean[i] && inc.npChanged[i] == 0 && inc.pChanged[i] == 0;
    if (!app.viewsReused) {
      app.nonPreemptiveView = {inc.freeProfiles[inc.freeAt[i]], inc.paOcc[i]};
      app.preemptiveView = inc.pViews[i];
    }
  }

  // eqSchedule Step 3: reschedule dirty apps' preemptible requests against
  // their final views. Lease-clean apps are exact already: toView would
  // rewrite identical values and fit has nothing to place.
  const std::uint64_t step3Start = metrics::nowNanos();
  trace::span("eq_step2", step2Start, step3Start);
  for (std::size_t i = 0; i < napps; ++i) {
    if (inc.clean[i]) continue;
    SetSnapshot& set = apps[i].preemptible();
    if (set.empty()) continue;
    const View own = toView(set, &apps[i].preemptiveView, now);
    if (own.empty()) {
      fit(set, apps[i].preemptiveView, now);
    } else {
      View rest = apps[i].preemptiveView;
      accumulateOne(rest, own, View::Op::kSubtract, /*clampAtZero=*/true);
      fit(set, rest, now);
    }
  }
  trace::span("eq_step3", step3Start, metrics::nowNanos());

  inc.valid = true;
}

void Scheduler::schedule(std::span<AppSchedule> apps, Time now) const {
  scratch_.recapture(apps);
  schedulePass(scratch_, now);
  scratch_.writeBack();
  // Swapped like the server's stash: the superseded views are dropped by
  // the next pass just before it builds their replacements.
  // Reused views are still exact where the caller holds them.
  const std::span<AppSnapshot> scheduled = scratch_.apps();
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (scheduled[i].viewsReused) continue;
    std::swap(apps[i].nonPreemptiveView, scheduled[i].nonPreemptiveView);
    std::swap(apps[i].preemptiveView, scheduled[i].preemptiveView);
  }
}

// ---------------------------------------------------------------------------
// Live-RequestSet shims: capture, run the snapshot algorithm, write back.
// The capture scratch is thread-local so tight call loops (tests, the
// building-block benchmarks, reference implementations composed from these
// shims) reuse buffer capacity instead of re-allocating per call; contents
// are re-captured every call, so results are unaffected.
// ---------------------------------------------------------------------------
namespace {
AppSnapshot& shimScratch() {
  thread_local AppSnapshot scratch;
  return scratch;
}
}  // namespace

View Scheduler::toView(const RequestSet& set, const View* available,
                       Time now) {
  AppSnapshot& app = shimScratch();
  app.capture(AppId{}, nullptr, &set, nullptr);
  View out = toView(app.nonPreemptible(), available, now);
  app.writeBack();
  return out;
}

View Scheduler::fit(const RequestSet& set, const View& available, Time t0) {
  AppSnapshot& app = shimScratch();
  app.capture(AppId{}, nullptr, &set, nullptr);
  View out = fit(app.nonPreemptible(), available, t0);
  app.writeBack();
  return out;
}

void Scheduler::eqSchedule(std::span<AppSchedule> apps, const View& available,
                           Time now, bool strict) {
  thread_local std::vector<AppSnapshot> snapshots;
  snapshots.resize(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    snapshots[i].capture(apps[i].app, nullptr, nullptr, apps[i].preemptible);
  }
  eqSchedule(std::span<AppSnapshot>(snapshots), available, now, strict);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    snapshots[i].writeBack();
    apps[i].preemptiveView = std::move(snapshots[i].preemptiveView);
  }
}

}  // namespace coorm
