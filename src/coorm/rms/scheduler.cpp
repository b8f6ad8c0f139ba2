#include "coorm/rms/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "coorm/common/check.hpp"
#include "coorm/common/metrics.hpp"
#include "coorm/common/trace.hpp"
#include "coorm/profile/profile_sweep.hpp"

namespace coorm {

namespace {

/// Preemptible grants are leases: what is available at the start instant
/// is granted, and future reductions are delivered through preemptive views
/// (and the violation protocol), not encoded in the grant. Min-over-window
/// (View::alloc) would make an open-ended lease unserveable whenever any
/// future drop exists.
NodeCount grantAtStart(const View& view, const Request& r, Time at) {
  if (isInf(at)) return 0;
  return std::clamp<NodeCount>(view.at(r.cluster, at), 0, r.nodes);
}

/// Occupation pulse of one scheduled request.
void addOccupation(View& view, const Request& r) {
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

/// The pass's cache, one slot per application by position (the scheduler
/// requires connection order, so positions are stable between passes
/// unless the population itself changed, which makes the cache cold).
///
/// Each application's three SetIndexes stay valid, and are kept, while its
/// key — the set identities, their membership versions and the owner's
/// mutation epoch — stays as it was. Membership alone is not enough: the
/// server orphans a cancelled request's children and unlinks reclaimed
/// parents, which edits constraint edges without changing membership but
/// bumps the epoch. Epoch 0 re-indexes every pass.
///
/// The cached occupations are plain Views whose segment blocks the
/// published non-preemptive views share (segment_arena.hpp): blocks are
/// reference-counted anonymous heap memory, so holding them across passes
/// and dropping the last reference from any later thread is safe by design.
///
/// No published view is cached. A pass publishes each non-preemptive view
/// as its operand pair (NonPreemptiveView), the free profile vnp at the
/// application's loop position — shared by every application between two
/// placements — plus its own started pre-allocation occupation `paOcc`;
/// eqSchedule Step 2 runs whole over the Step 1 occupations and builds
/// every preemptive view afresh.
struct PassCache {
  struct Key {
    const RequestSet* sets[3] = {nullptr, nullptr, nullptr};
    std::uint64_t versions[3] = {0, 0, 0};
    std::uint64_t epoch = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  /// False until a pass completes; cleared at pass start, so a pass that
  /// throws leaves the next one cold.
  bool valid = false;
  std::vector<AppId> appIds;
  std::vector<Key> keys;
  std::vector<SetIndex> preAllocations;
  std::vector<SetIndex> nonPreemptible;
  std::vector<SetIndex> preemptible;
  std::vector<char> allStarted;  ///< every member started at the last build
  std::vector<char> clean;       ///< this pass serves the app from its slots

  // --- previous pass intermediates ----------------------------------------
  std::vector<View> paOcc;       ///< started pre-allocation occupation
  std::vector<View> npOcc;       ///< started non-preemptible occupation
  std::vector<View> npFitted;    ///< NP-loop non-preemptible fit occupation
  std::vector<View> occupation;  ///< eqSchedule Step 1 preemptible occupation

  std::vector<const View*> operands;  ///< per-pass scratch, kept for capacity

  /// Re-indexes every application whose key moved and decides which
  /// applications this pass serves from the cache, returning their count.
  /// An application is clean when the pass is incremental, the cache is
  /// warm (the previous pass completed over this same application
  /// sequence), its key is unchanged and every request started. Started
  /// requests' pass results are independent of the pass's `now` and of the
  /// availability views, which is what makes a clean app's whole
  /// re-derivation skippable; an app with a pending request must be
  /// re-derived even when its key is unchanged, because fit() and
  /// grantAtStart() anchor pending requests at max(scheduledAt, now).
  /// With `incremental` false no application is clean: a full recompute.
  std::size_t refresh(std::span<const AppSchedule> apps, bool incremental) {
    const std::size_t napps = apps.size();
    bool warm = incremental && valid && appIds.size() == napps;
    for (std::size_t i = 0; warm && i < napps; ++i) {
      warm = appIds[i] == apps[i].app;
    }
    valid = false;  // re-armed only when this pass completes
    appIds.resize(napps);
    keys.resize(napps);
    preAllocations.resize(napps);
    nonPreemptible.resize(napps);
    preemptible.resize(napps);
    allStarted.resize(napps);
    clean.resize(napps);
    paOcc.resize(napps);
    npOcc.resize(napps);
    npFitted.resize(napps);
    occupation.resize(napps);
    std::size_t cleanCount = 0;
    for (std::size_t i = 0; i < napps; ++i) {
      const AppSchedule& app = apps[i];
      appIds[i] = app.app;
      const RequestSet* sets[3] = {app.preAllocations, app.nonPreemptible,
                                   app.preemptible};
      Key key;
      for (int s = 0; s < 3; ++s) {
        key.sets[s] = sets[s];
        key.versions[s] = sets[s] != nullptr ? sets[s]->version() : 0;
      }
      key.epoch = app.epoch;
      if (app.epoch != 0 && key == keys[i]) {
        clean[i] = warm && allStarted[i];
        cleanCount += clean[i];
        continue;
      }
      // Same epoch over the same sets with moved membership: an add or
      // remove whose owner forgot the mutationEpoch bump. Release builds
      // re-index, which is always safe.
      COORM_DCHECK(app.epoch == 0 || app.epoch != keys[i].epoch ||
                   !std::equal(sets, sets + 3, keys[i].sets) ||
                   std::equal(key.versions, key.versions + 3,
                              keys[i].versions));
      keys[i] = key;
      preAllocations[i].build(sets[0]);
      nonPreemptible[i].build(sets[1]);
      preemptible[i].build(sets[2]);
      bool started = true;
      for (const RequestSet* set : sets) {
        if (set == nullptr) continue;
        for (const Request* r : *set) started = started && r->started();
      }
      allStarted[i] = started ? 1 : 0;
      clean[i] = 0;
    }
    return cleanCount;
  }
};

Scheduler::Scheduler(Machine machine) : Scheduler(std::move(machine), Config{}) {}

Scheduler::Scheduler(Machine machine, Config config)
    : machine_(std::move(machine)),
      config_(config),
      cache_(std::make_unique<PassCache>()) {}

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
namespace {

View toViewIndexed(const SetIndex& set, const View* available, Time now) {
  View out;
  const auto n = static_cast<std::uint32_t>(set.size());
  for (std::uint32_t s = 0; s < n; ++s) set.member(s).fixed = false;

  // FIFO worklist; `fixed` doubles as the visited marker (reset above, set
  // exactly when a request is processed below).
  std::vector<std::uint32_t> queue;
  queue.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (set.member(s).started()) queue.push_back(s);
  }

  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t slot = queue[head];
    Request& r = set.member(slot);
    if (r.fixed) continue;

    if (r.started()) {
      // Ground truth beats the derived time for running requests.
      r.scheduledAt = r.startedAt;
    } else {
      // Only children are queued unstarted: the parent is in this set.
      COORM_DCHECK(set.parentSlot(slot) != SetIndex::kNoSlot);
      const Request& parent = *r.relatedTo;
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
      r.nAlloc = static_cast<NodeCount>(r.nodeIds.size());
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

    for (const std::uint32_t child : set.childrenOf(slot)) {
      queue.push_back(child);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Algorithm 2: fit
// ---------------------------------------------------------------------------
View fitIndexed(const SetIndex& set, const View& available, Time t0,
                FitStats* stats) {
  FitStats local;
  if (stats == nullptr) stats = &local;
  const auto n = static_cast<std::uint32_t>(set.size());
  std::vector<std::uint32_t> queue;
  queue.reserve(set.size() * 2 + 8);  // constraint conflicts re-push parents
  std::size_t nonFixed = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    Request& r = set.member(s);
    if (r.fixed) continue;
    r.earliestScheduleAt = t0;  // nothing can be scheduled earlier than t0
    r.scheduledAt = kTimeInf;   // in case of error, the request never starts
    r.nAlloc = 0;
    ++nonFixed;
  }
  for (const std::uint32_t root : set.roots()) queue.push_back(root);

  // The constraint-propagation loop converges because earliestScheduleAt
  // only moves forward; the guard bounds pathological inputs.
  std::size_t budget = 64 * (nonFixed + set.size() + 1);

  for (std::size_t head = 0; head < queue.size() && budget > 0; ++head) {
    --budget;
    ++stats->queuePops;
    const std::uint32_t slot = queue[head];
    Request& r = set.member(slot);

    if (r.fixed) {
      // Start times of fixed requests cannot move; just visit children.
      for (const std::uint32_t child : set.childrenOf(slot)) {
        ++stats->childVisits;
        queue.push_back(child);
      }
      continue;
    }

    // A parent outside this set is read (never re-pushed): its schedule is
    // whatever its own set's placement left there.
    const std::uint32_t parentSlot = set.parentSlot(slot);
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
        Request* parent = r.relatedTo;
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
              parentSlot != SetIndex::kNoSlot) {
            // The parent must be delayed for the constraint to hold.
            parent->earliestScheduleAt = r.scheduledAt;
            ++stats->parentRepushes;
            queue.push_back(parentSlot);
          }
        }
        break;
      }
      case Relation::kNext: {
        Request* parent = r.relatedTo;
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
              parentSlot != SetIndex::kNoSlot) {
            parent->earliestScheduleAt =
                satSub(r.scheduledAt, parent->duration);
            ++stats->parentRepushes;
            queue.push_back(parentSlot);
          }
        }
        break;
      }
    }

    if (before != r.scheduledAt) {
      for (const std::uint32_t child : set.childrenOf(slot)) {
        ++stats->childVisits;
        queue.push_back(child);
      }
    }
  }

  // Schedule converged (or budget exhausted): emit the generated view.
  View out;
  for (std::uint32_t s = 0; s < n; ++s) {
    const Request& r = set.member(s);
    if (!r.fixed) addOccupation(out, r);
  }
  return out;
}

/// Index scratch of the building-block overloads, kept for its capacity:
/// every call re-indexes, so results never depend on an earlier call.
SetIndex& scratchIndex() {
  thread_local SetIndex index;
  return index;
}

}  // namespace

View Scheduler::toView(const RequestSet& set, const View* available,
                       Time now) {
  SetIndex& index = scratchIndex();
  index.build(&set);
  return toViewIndexed(index, available, now);
}

View Scheduler::fit(const RequestSet& set, const View& available, Time t0,
                    FitStats* stats) {
  SetIndex& index = scratchIndex();
  index.build(&set);
  return fitIndexed(index, available, t0, stats);
}

// ---------------------------------------------------------------------------
// Algorithm 3: eqSchedule
// ---------------------------------------------------------------------------
namespace {

/// Step 2 of eqSchedule for one cluster: one synchronized sweep over the
/// merged breakpoints of `avail` and the occupation profiles decides what
/// each application may have, writing that profile as the cluster's entry
/// of every application's preemptive view.
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
/// occupation view has an entry for this cluster (collectCandidates) — a
/// superset of the occupying applications. Probing candidates instead of
/// every application makes present-detection O(occupation entries)
/// instead of O(clusters × apps).
void eqScheduleCluster(ClusterId cid, const View& avail,
                       std::span<const View> occupation,
                       std::span<const std::uint32_t> candidates, bool strict,
                       NodeCount strictParticipants,
                       std::span<AppSchedule> apps) {
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

  NodeCount sumWant = 0;
  NodeCount active = 0;
  std::vector<NodeCount> wants(present.size());
  for (std::size_t k = 0; k < present.size(); ++k) {
    wants[k] = std::max<NodeCount>(sweep.value(k + 1), 0);
    sumWant += wants[k];
    if (wants[k] > 0) ++active;
  }

  // Arena-backed scratch: per breakpoint the emitted profiles reuse pooled
  // blocks from the thread's arena instead of fresh vectors.
  std::vector<SegmentStore> outSegments(present.size());
  // The idle series: what every application without demand here may have.
  // Needed whenever some application is absent (and exclusively in strict
  // mode, where it doubles as the shared fixed-share series).
  SegmentStore idleSegments;
  const bool needIdle = strict || present.size() < napps;
  std::vector<NodeCount> gives;
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
    const NodeCount vin = std::max<NodeCount>(sweep.value(0), 0);
    const bool anyInactive = active < static_cast<NodeCount>(napps);

    if (strict) {
      // Strict equi-partitioning (§5.4 baseline): a fixed share per
      // application that uses preemptible resources, with no filling of
      // unused partitions.
      emit(idleSegments, t, vin / std::max<NodeCount>(strictParticipants, 1));
    } else if (sumWant > vin) {
      // Congested: distribute equally until nothing is left (paper lines
      // 8–18). Every application's view shows at least the partition it
      // is entitled to.
      fairDistributeInto(vin, wants, gives);
      const NodeCount partitions = active + (anyInactive ? 1 : 0);
      const NodeCount share = partitions > 0 ? vin / partitions : 0;
      for (std::size_t k = 0; k < present.size(); ++k) {
        emit(outSegments[k], t, std::max(gives[k], share));
      }
      if (needIdle) emit(idleSegments, t, share);
    } else {
      // Uncongested: each application sees what the others leave unused,
      // but never less than its equi-partition (paper lines 19–25). The
      // partition count only depends on whether the application is
      // active, so two divisions cover every application.
      const NodeCount shareActive = active > 0 ? vin / active : vin;
      const NodeCount shareIdle = vin / (active + 1);
      const NodeCount freeLeft = vin - sumWant;
      for (std::size_t k = 0; k < present.size(); ++k) {
        if (wants[k] > 0) {
          emit(outSegments[k], t, std::max(freeLeft + wants[k], shareActive));
        } else {
          emit(outSegments[k], t, std::max(freeLeft, shareIdle));
        }
      }
      if (needIdle) emit(idleSegments, t, std::max(freeLeft, shareIdle));
    }

    if (!sweep.advance()) break;
    for (const std::uint32_t idx : sweep.changed()) {
      if (idx == 0) continue;  // avail changed; vin is re-read anyway
      const std::size_t k = idx - 1;
      const NodeCount want = std::max<NodeCount>(sweep.value(idx), 0);
      sumWant += want - wants[k];
      if ((want > 0) != (wants[k] > 0)) active += want > 0 ? 1 : -1;
      wants[k] = want;
    }
  }

  for (std::size_t k = 0; k < present.size(); ++k) {
    apps[present[k]].preemptiveView.setCap(
        cid, StepFunction::fromCanonical(std::move(outSegments[k])));
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
      apps[i].preemptiveView.setCap(cid, idle);
    }
  }
}

/// Step 2's per-cluster candidate lists: for each cluster of `clusterIds`
/// (sorted, covering every occupation's clusters), the applications whose
/// occupation view has an entry for it, ascending. Occupation pulses only
/// land on a request's own cluster, so these are the applications with a
/// preemptible request there that can occupy it.
void collectCandidates(std::span<const View> occupation,
                       std::span<const ClusterId> clusterIds,
                       std::vector<std::vector<std::uint32_t>>& candidates) {
  candidates.resize(clusterIds.size());
  for (std::vector<std::uint32_t>& list : candidates) list.clear();
  std::vector<ClusterId> own;
  for (std::size_t i = 0; i < occupation.size(); ++i) {
    own.clear();
    occupation[i].appendClusterIds(own);
    for (const ClusterId cid : own) {
      const auto it =
          std::lower_bound(clusterIds.begin(), clusterIds.end(), cid);
      COORM_DCHECK(it != clusterIds.end() && *it == cid);
      candidates[static_cast<std::size_t>(it - clusterIds.begin())]
          .push_back(static_cast<std::uint32_t>(i));
    }
  }
}

/// eqSchedule Step 2, whole, on every pass: per piece-wise-constant
/// interval, decide what each application may have, given `avail` (clamped
/// at zero) and every application's Step 1 occupation. The sweep
/// partitions cleanly by cluster: each cluster's profiles land in the
/// preemptive views (empty on entry) before the next cluster is swept, and
/// each cluster sweep only probes the applications whose occupation names
/// it.
void eqScheduleStep2(std::span<AppSchedule> apps,
                     std::span<const SetIndex> preemptible,
                     std::span<const View> occupation, const View& avail,
                     bool strict) {
  std::vector<ClusterId> clusterIds;
  avail.appendClusterIds(clusterIds);
  for (const View& occ : occupation) occ.appendClusterIds(clusterIds);
  View::sortUniqueClusterIds(clusterIds);

  std::vector<std::vector<std::uint32_t>> candidates;
  collectCandidates(occupation, clusterIds, candidates);

  NodeCount strictParticipants = 0;  // breakpoint-invariant
  if (strict) {
    for (const SetIndex& set : preemptible) {
      if (!set.empty()) ++strictParticipants;
    }
  }

  for (std::size_t c = 0; c < clusterIds.size(); ++c) {
    eqScheduleCluster(clusterIds[c], avail, occupation, candidates[c], strict,
                      strictParticipants, apps);
  }
}

/// Algorithm 3 over indexed preemptible sets (`preemptible[i]` indexes
/// apps[i].preemptible) against the non-negative `avail`. Steps 1 and 3
/// skip the applications marked `clean`: each clean slot of `occupation`
/// holds the Step 1 result of the pass that cached it, and its requests
/// hold that pass's results. Every other slot is recomputed.
void eqScheduleIndexed(std::span<AppSchedule> apps,
                       std::span<const SetIndex> preemptible,
                       std::span<const char> clean, std::span<View> occupation,
                       const View& avail, Time now, bool strict) {
  const std::size_t napps = apps.size();

  // Retire the preemptive stash the caller left here before Step 1 builds
  // anything.
  for (AppSchedule& app : apps) app.preemptiveView.clear();

  // Step 1: preliminary occupation views (started + newly fitted
  // requests). Each application's step touches only its own requests and
  // occupation slot (constraints never cross applications); an all-started
  // app's occupation ignores both `avail` and `now`. Applications with an
  // empty preemptible set have no requests to fix and an empty occupation
  // — skip the algebra entirely.
  const std::uint64_t step1Start = metrics::nowNanos();
  for (std::size_t i = 0; i < napps; ++i) {
    if (clean[i]) continue;
    occupation[i].clear();
    const SetIndex& set = preemptible[i];
    if (set.empty()) continue;
    occupation[i] = toViewIndexed(set, &avail, now);
    if (occupation[i].empty()) {
      // Nothing started: avail - 0 clamped is avail itself, so fit directly
      // against it and adopt the result outright.
      occupation[i] = fitIndexed(set, avail, now, nullptr);
    } else {
      View freeForMe = avail;
      accumulateOne(freeForMe, occupation[i], View::Op::kSubtract,
                    /*clampAtZero=*/true);
      occupation[i] += fitIndexed(set, freeForMe, now, nullptr);
    }
  }
  const std::uint64_t step2Start = metrics::nowNanos();
  trace::span("eq_step1", step1Start, step2Start);

  eqScheduleStep2(apps, preemptible, occupation, avail, strict);

  const std::uint64_t step3Start = metrics::nowNanos();
  trace::span("eq_step2", step2Start, step3Start);

  // Step 3: reschedule every application's preemptible requests against its
  // final view so scheduledAt and nAlloc are consistent with what we will
  // actually grant. Clean apps are exact already: toView would rewrite
  // identical values and fit has nothing to place.
  for (std::size_t i = 0; i < napps; ++i) {
    if (clean[i]) continue;
    const SetIndex& set = preemptible[i];
    if (set.empty()) continue;
    const View own = toViewIndexed(set, &apps[i].preemptiveView, now);
    if (own.empty()) {
      // Preemptive views are non-negative by construction, so the
      // subtract-clamp of an empty occupation is the view itself.
      fitIndexed(set, apps[i].preemptiveView, now, nullptr);
    } else {
      View rest = apps[i].preemptiveView;
      accumulateOne(rest, own, View::Op::kSubtract, /*clampAtZero=*/true);
      fitIndexed(set, rest, now, nullptr);
    }
  }
  trace::span("eq_step3", step3Start, metrics::nowNanos());
}

}  // namespace

void Scheduler::eqSchedule(std::span<AppSchedule> apps, const View& available,
                           Time now, bool strict) {
  thread_local std::vector<SetIndex> indexes;
  indexes.resize(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    indexes[i].build(apps[i].preemptible);
  }
  // Callers usually hand in an already-clamped view; only copy when the
  // clamp would actually change something.
  View clamped;
  if (!available.nonNegative()) {
    clamped = available;
    clamped.clampMin(0);
  }
  const std::vector<char> noneClean(apps.size(), 0);
  std::vector<View> occupation(apps.size());
  eqScheduleIndexed(apps, std::span(indexes.data(), apps.size()), noneClean,
                    occupation, clamped.empty() ? available : clamped, now,
                    strict);
}

// ---------------------------------------------------------------------------
// Algorithm 4: main scheduling algorithm, organised around the pass cache.
//
// Cleanliness argument, applied per application below:
//  - an unchanged key means nothing about the app's requests mutated since
//    the cached pass, so every request still holds that pass's results.
//  - allStarted means every request's results are independent of the
//    pass's `now` and of the availability views: toView would rewrite
//    scheduledAt = startedAt / nAlloc = held IDs / fixed = true, and fit
//    has no non-fixed requests to place (empty occupation, no vnp change).
// Such a lease-clean app's entire per-app derivation is served from the
// cache; everything else, and eqSchedule Step 2 (which couples every
// application), is recomputed, in the same order, which keeps results
// bit-identical to the pass with no application clean — the full
// recompute of Config::incremental = false (pinned by
// tests/test_scheduler_incremental.cpp).
// ---------------------------------------------------------------------------
void Scheduler::schedule(std::span<AppSchedule> apps, Time now) const {
  // Every profile built on this thread below (occupation folds, fit
  // scratch, view algebra) draws its segment blocks from the thread's one
  // arena, where blocks dropped anywhere on this thread park. The views the
  // caller left in the AppSchedules (the server's superseded stash) are
  // dropped below just before each app's new views are built, so the
  // blocks whose last holder they were are the first ones reused.
  PassCache& cache = *cache_;
  const std::size_t napps = apps.size();
  const std::size_t cleanCount = cache.refresh(apps, config_.incremental);
  metrics::increment(metrics::Event::kPassAppsClean, cleanCount);
  metrics::increment(metrics::Event::kPassAppsDirty, napps - cleanCount);

  // Started pre-allocation / non-preemptible occupations (dirty apps only:
  // these depend exclusively on request attributes, so a clean app's
  // cached views are exact).
  for (std::size_t i = 0; i < napps; ++i) {
    if (cache.clean[i]) continue;
    cache.paOcc[i] = toViewIndexed(cache.preAllocations[i], nullptr, 0);
    cache.npOcc[i] = toViewIndexed(cache.nonPreemptible[i], nullptr, 0);
  }

  // Subtract resources held by started pre-allocations: one N-ary sweep,
  // instead of a fold of binary subtractions that re-merges the
  // accumulated view once per application.
  View vnp = machineView();  // non-preemptible resources still available
  std::vector<const View*>& operands = cache.operands;
  operands.clear();
  operands.reserve(napps * 2);
  for (const View& occ : cache.paOcc) operands.push_back(&occ);
  vnp.accumulate(operands, View::Op::kSubtract);

  // Non-preemptive views and start times, in connection order. vnp is
  // consumed inside the loop and must be updated eagerly; vp is only read
  // after it, so the fitted NP occupations are collected and folded in one
  // sweep at the end. Lease-clean apps contribute provably empty
  // occupations and leave vnp untouched.
  for (std::size_t i = 0; i < napps; ++i) {
    // Publishing the pair retires the view the caller left here (the
    // server's superseded stash) before this app's derivation builds
    // anything: when it held a block's last reference, that block is the
    // next one reused.
    apps[i].nonPreemptiveView = {vnp, cache.paOcc[i]};
    if (cache.clean[i]) {
      cache.npFitted[i] = View{};
      continue;
    }
    // The view as fit's scratch, dropped once the pre-allocations are in.
    const View occPa =
        fitIndexed(cache.preAllocations[i],
                   NonPreemptiveView::sum(vnp, cache.paOcc[i]), now, nullptr);

    View npAvailable = cache.paOcc[i];
    accumulateOne(npAvailable, occPa, View::Op::kAdd);
    accumulateOne(npAvailable, cache.npOcc[i], View::Op::kSubtract,
                  /*clampAtZero=*/true);
    cache.npFitted[i] =
        fitIndexed(cache.nonPreemptible[i], npAvailable, now, nullptr);

    accumulateOne(vnp, occPa, View::Op::kSubtract);
  }

  View vp = machineView();  // preemptible resources still available
  operands.clear();
  for (const View& occ : cache.npOcc) operands.push_back(&occ);
  for (const View& occ : cache.npFitted) operands.push_back(&occ);
  vp.accumulate(operands, View::Op::kSubtract);
  vp.clampMin(0);

  eqScheduleIndexed(apps, cache.preemptible, cache.clean, cache.occupation,
                    vp, now, config_.strictEquiPartition);
  cache.valid = true;
}

}  // namespace coorm
