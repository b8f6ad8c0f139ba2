// Immutable per-pass request-set snapshots (the representation behind the
// pipelined server and the indexed scheduler).
//
// A scheduling pass never needs the live `RequestSet`s: it reads a frozen
// image of every request's scheduling-relevant attributes and writes its
// results (scheduledAt / nAlloc / fixed / earliestScheduleAt) into slots of
// that image. `RequestSetSnapshot` is that image, built once at pass start:
//
//  - per application one contiguous array of `SnapshotRecord`s covering the
//    three request sets (pre-allocations, non-preemptible, preemptible) plus
//    frozen copies of constraint targets living outside the captured sets;
//  - per set a precomputed root list and a CSR child adjacency over the
//    NEXT/COALLOC constraint forest, making `children()`/`parent()` O(1)
//    per edge where the live `RequestSet` re-scans the whole set per lookup
//    (the `O(set²)`-per-fit behaviour on deep chains);
//  - per application a per-cluster summary of preemptible demand.
//
// Captured topology and attributes are immutable for the lifetime of the
// snapshot; the *result* fields of each record are the pass's scratch, seeded
// with the live values at capture time so that reads-before-writes (e.g. a
// forward NEXT reference to a request scheduled later in the pass) observe
// exactly what the in-place algorithms would have observed. `writeBack()`
// copies the result fields onto the live requests; until then the live
// system is untouched, which is what lets the server overlap protocol
// handling with a pass in flight.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coorm/profile/view.hpp"
#include "coorm/rms/request.hpp"
#include "coorm/rms/request_set.hpp"

namespace coorm {

struct AppSchedule;

/// Index of a record within one application's record array; kNoRecord if a
/// constraint slot is empty.
using SnapIndex = std::int32_t;
inline constexpr SnapIndex kNoRecord = -1;

/// One request, frozen for a pass. The first group is captured (constant
/// for the snapshot's lifetime); the second is the pass's result scratch,
/// seeded from the live request at capture.
struct SnapshotRecord {
  // --- captured ------------------------------------------------------------
  Request* live = nullptr;  ///< write-back target; never read during a pass
  ClusterId cluster{0};
  NodeCount nodes = 0;
  Time duration = 0;
  RequestType type = RequestType::kNonPreemptible;
  Relation relatedHow = Relation::kFree;
  SnapIndex parent = kNoRecord;  ///< app-array index of relatedTo
  Time startedAt = kNever;
  NodeCount heldIds = 0;  ///< nodeIds.size() at capture
  /// True for a frozen constraint target outside the captured sets: it is
  /// readable like any record but never scheduled and never written back.
  bool external = false;

  // --- pass results (seeded from the live request) -------------------------
  NodeCount nAlloc = 0;
  Time scheduledAt = kTimeInf;
  Time earliestScheduleAt = 0;
  bool fixed = false;

  [[nodiscard]] bool started() const { return startedAt != kNever; }
};

/// One request set inside an application snapshot: a [begin, end) window of
/// the application's record array plus the precomputed navigation indices.
///
/// Roots and children follow the live RequestSet contract exactly — same
/// membership, same (insertion) order — but cost O(1) per edge instead of a
/// full set scan per lookup.
class SetSnapshot {
 public:
  SetSnapshot() = default;

  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(end_ - begin_);
  }
  [[nodiscard]] bool empty() const { return begin_ == end_; }

  /// True when `index` names a member of this set (the live
  /// `set.contains(r)` of the scheduling algorithms).
  [[nodiscard]] bool contains(SnapIndex index) const {
    return index >= begin_ && index < end_;
  }

  [[nodiscard]] SnapIndex begin() const { return begin_; }
  [[nodiscard]] SnapIndex end() const { return end_; }

  /// Record lookup by application-array index (members and constraint
  /// targets alike).
  [[nodiscard]] SnapshotRecord& rec(SnapIndex index) const {
    return records_[index];
  }

  /// Paper A.2 roots(), precomputed (insertion order).
  [[nodiscard]] std::span<const SnapIndex> roots() const { return roots_; }

  /// Paper A.2 children(), O(children) via the CSR adjacency (insertion
  /// order). `parent` must be a member of this set.
  [[nodiscard]] std::span<const SnapIndex> childrenOf(SnapIndex parent) const {
    const auto slot = static_cast<std::size_t>(parent - begin_);
    const std::uint32_t first = slot == 0 ? 0 : childEnds_[slot - 1];
    return std::span<const SnapIndex>(children_)
        .subspan(first, childEnds_[slot] - first);
  }

 private:
  friend class AppSnapshot;

  SnapshotRecord* records_ = nullptr;  ///< application record array base
  SnapIndex begin_ = 0;
  SnapIndex end_ = 0;
  std::vector<SnapIndex> roots_;
  /// CSR adjacency: slot s's children occupy
  /// children_[s == 0 ? 0 : childEnds_[s-1] .. childEnds_[s]). End-offsets
  /// only — the fill cursor *becomes* the end array, so a (re)capture does
  /// one counting pass, one prefix sum and one placement pass with no
  /// auxiliary allocation.
  std::vector<std::uint32_t> childEnds_;  ///< size() entries
  std::vector<SnapIndex> children_;       ///< CSR payload
};

/// Per-cluster demand summary of one application's preemptible set,
/// precomputed at capture (sorted by cluster id).
struct ClusterDemand {
  ClusterId cluster{0};
  std::uint32_t requests = 0;  ///< preemptible requests on this cluster
  NodeCount wanted = 0;        ///< sum of requested node counts
  NodeCount held = 0;          ///< node IDs attached to started requests
  friend bool operator==(const ClusterDemand&, const ClusterDemand&) = default;
};

/// How one AppSnapshot::capture call obtained its image (see CaptureStats).
enum class CaptureKind {
  kRebuilt,    ///< full capture: records, parents, roots, CSR adjacency
  kRefreshed,  ///< topology verified unchanged; attributes re-read
  kSkipped,    ///< mutation epoch clean: nothing touched at all
};

/// Cumulative per-application capture outcomes of a RequestSetSnapshot —
/// the counters that pin the dirty-flag fast path: in steady state (no
/// request mutated between two passes) every app must be `skipped`.
struct CaptureStats {
  std::uint64_t rebuilt = 0;
  std::uint64_t refreshed = 0;
  std::uint64_t skipped = 0;
  friend bool operator==(const CaptureStats&, const CaptureStats&) = default;
};

/// Frozen image of one application's three request sets plus the pass's
/// per-application outputs (the two views).
class AppSnapshot {
 public:
  AppSnapshot() = default;

  /// Captures the given sets (null pointers read as empty sets). Constraint
  /// targets outside the captured sets are frozen into auxiliary external
  /// records so parent reads never touch live requests during the pass.
  AppSnapshot(AppId app, const RequestSet* preAllocations,
              const RequestSet* nonPreemptible, const RequestSet* preemptible);

  /// Re-captures in place, reusing every internal buffer's capacity: in
  /// steady state (the server snapshotting similar populations once per
  /// pass) a capture allocates nothing.
  ///
  /// `epoch` is the owner-maintained mutation epoch of the app's requests
  /// (AppSchedule::epoch). When it is non-zero and matches the epoch this
  /// snapshot already captured from the same app and set objects, the
  /// capture is skipped outright — no record is read or written. This is
  /// sound because a pass's writeBack() copies the snapshot's own result
  /// values onto the live requests, so an epoch-clean app's records are
  /// bit-identical to its live requests by construction (verified in debug
  /// builds). An epoch of 0 always walks.
  CaptureKind capture(AppId app, const RequestSet* preAllocations,
                      const RequestSet* nonPreemptible,
                      const RequestSet* preemptible, std::uint64_t epoch = 0);

  AppSnapshot(AppSnapshot&&) noexcept = default;
  AppSnapshot& operator=(AppSnapshot&&) noexcept = default;
  AppSnapshot(const AppSnapshot&) = delete;
  AppSnapshot& operator=(const AppSnapshot&) = delete;

  [[nodiscard]] AppId app() const { return app_; }

  [[nodiscard]] SetSnapshot& preAllocations() { return preAllocations_; }
  [[nodiscard]] SetSnapshot& nonPreemptible() { return nonPreemptible_; }
  [[nodiscard]] SetSnapshot& preemptible() { return preemptible_; }
  [[nodiscard]] const SetSnapshot& preAllocations() const {
    return preAllocations_;
  }
  [[nodiscard]] const SetSnapshot& nonPreemptible() const {
    return nonPreemptible_;
  }
  [[nodiscard]] const SetSnapshot& preemptible() const { return preemptible_; }

  [[nodiscard]] std::span<SnapshotRecord> records() { return records_; }
  [[nodiscard]] std::span<const SnapshotRecord> records() const {
    return records_;
  }

  /// Per-cluster preemptible demand, sorted by cluster id.
  [[nodiscard]] std::span<const ClusterDemand> preemptibleDemand() const {
    return preemptibleDemand_;
  }

  /// How the most recent capture() obtained this image. The incremental
  /// scheduler treats kSkipped as "nothing about this app changed since the
  /// previous pass" — the precondition for serving it from its cache.
  [[nodiscard]] CaptureKind lastCapture() const { return lastCapture_; }

  /// True when every member record was started at the last walk (capture or
  /// refresh). Started requests' pass results are independent of the pass's
  /// `now` and of the availability views, which is what makes an epoch-clean
  /// all-started app's entire re-derivation skippable; an app with any
  /// pending request must be re-derived even when epoch-clean, because fit()
  /// and grantAtStart() anchor pending requests at max(scheduledAt, now).
  [[nodiscard]] bool allStarted() const { return allStarted_; }

  /// Copies every member record's result fields onto its live request.
  /// External records are skipped. Call on the thread that owns the live
  /// requests (the server's executor thread), never while a pass still runs.
  ///
  /// Fast path: the result fields of every record are also seeded into a
  /// contiguous side array at capture. When the pass recomputed every
  /// result to its seeded value (the steady state for untouched apps), one
  /// sequential scan of that array proves the live requests already hold
  /// the results and the scattered per-request compare loop is skipped
  /// entirely (metrics: write_back_apps_clean vs write_back_apps_dirty).
  void writeBack() const;

  /// Forgets the captured mutation epoch, forcing the next capture() to
  /// walk (refresh or rebuild). Required after a pass that wrote result
  /// scratch into the records but was never written back (an abandoned
  /// pass): the epoch-skip soundness argument rests on records matching
  /// the live requests.
  void invalidate() { capturedEpoch_ = 0; }

  /// Pass outputs, paper V^(i)_{:P} and V^(i)_P. They share their segment
  /// blocks with the scheduler's cache (copying a profile adds a reference,
  /// segment_arena.hpp). Between passes they hold whatever the owner left:
  /// the server swaps its superseded stash in, and the next pass drops it.
  ///
  /// The non-preemptive view is published unevaluated, as the pair (free
  /// profile at this app's loop position, own started pre-allocation
  /// occupation) whose clamped sum it is (profile/view.hpp): the free
  /// profile is one block shared by every app between two placements, so
  /// a pass publishes no per-app profile for it. Readers evaluate it with
  /// materialize(); a pass never does.
  NonPreemptiveView nonPreemptiveView;
  View preemptiveView;

  /// Set by the incremental scheduler when this app's output views were
  /// served unchanged from its pass-to-pass cache: the two view members
  /// above are then deliberately left empty (the server's stashed views
  /// from the previous commit have the same value — a renewed lease).
  /// Any full or partially-recomputed derivation clears it.
  bool viewsReused = false;

 private:
  /// Fast path for repeated captures of an unchanged topology (same
  /// requests, same constraints — only attributes moved, the steady state
  /// between two scheduling passes): verifies membership and constraint
  /// edges against the previous capture and, on a match, refreshes the
  /// per-record fields without rebuilding parents, roots or the CSR
  /// adjacency. Returns false when a full rebuild is needed.
  bool tryRefresh(AppId app, const RequestSet* preAllocations,
                  const RequestSet* nonPreemptible,
                  const RequestSet* preemptible);
  /// Debug audit of the epoch-skip fast path: true iff every record still
  /// mirrors its live request (membership, constraint edges, attributes and
  /// result fields alike). A failure means a mutation was not reported
  /// through the owner's epoch.
  [[nodiscard]] bool verifyClean(const RequestSet* preAllocations,
                                 const RequestSet* nonPreemptible,
                                 const RequestSet* preemptible) const;
  void captureSet(const RequestSet* set, SetSnapshot& out);
  void resolveParents();
  void indexSet(SetSnapshot& set);
  void summarizeDemand();

  /// Result fields of one record as of capture time (== the live values,
  /// on every capture path). Plain aggregate so the writeBack pre-scan is
  /// one sequential sweep over a dense array.
  struct ResultSeed {
    NodeCount nAlloc = 0;
    Time scheduledAt = 0;
    Time earliestScheduleAt = 0;
    bool fixed = false;
    friend bool operator==(const ResultSeed&, const ResultSeed&) = default;
  };
  /// Re-seeds seededResults_ from the records' current result fields.
  void seedResults();

  AppId app_{};
  /// Identity + mutation epoch of the population this snapshot captured;
  /// the epoch-skip fast path requires all four to match (0 = never skip).
  const RequestSet* capturedSets_[3] = {nullptr, nullptr, nullptr};
  std::uint64_t capturedEpoch_ = 0;
  /// Membership versions of the captured sets: the skip fast path
  /// cross-checks them, so an add/remove whose owner forgot the epoch bump
  /// degrades to a walk (and asserts in debug builds) instead of serving a
  /// stale image.
  std::uint64_t capturedVersions_[3] = {0, 0, 0};
  CaptureKind lastCapture_ = CaptureKind::kRebuilt;
  bool allStarted_ = false;
  std::vector<SnapshotRecord> records_;
  /// Capture-time result fields. Mutable: the dirty write-back path
  /// re-seeds it from the pass results it just applied, which is what lets
  /// an epoch-clean capture skip without any per-record work at all.
  mutable std::vector<ResultSeed> seededResults_;
  SetSnapshot preAllocations_;
  SetSnapshot nonPreemptible_;
  SetSnapshot preemptible_;
  std::vector<ClusterDemand> preemptibleDemand_;
  /// Capture scratch (live pointer -> record index), kept for its capacity.
  std::vector<std::pair<const Request*, SnapIndex>> index_;
};

/// The frozen image of every application's request sets for one scheduling
/// pass. Building it is O(total requests); after `capture` the live sets
/// may change freely without affecting the pass.
class RequestSetSnapshot {
 public:
  RequestSetSnapshot() = default;

  /// Freezes `apps` (in order — the scheduler requires connection order).
  [[nodiscard]] static RequestSetSnapshot capture(
      std::span<const AppSchedule> apps);

  /// Re-captures in place, reusing the per-application snapshots and their
  /// buffers (see AppSnapshot::capture) — the steady-state path for
  /// pass-per-interval serving.
  void recapture(std::span<const AppSchedule> apps);

  [[nodiscard]] std::span<AppSnapshot> apps() { return apps_; }
  [[nodiscard]] std::span<const AppSnapshot> apps() const { return apps_; }
  [[nodiscard]] std::size_t appCount() const { return apps_.size(); }

  /// Member records across all applications (externals excluded).
  [[nodiscard]] std::size_t requestCount() const { return requestCount_; }

  /// Cumulative per-app capture outcomes across every (re)capture of this
  /// snapshot (introspection for tests and benchmarks: pins the dirty-flag
  /// skip path).
  [[nodiscard]] const CaptureStats& captureStats() const { return stats_; }

  /// Applies every application's pass results to the live requests.
  void writeBack() const;

  /// Forces the next recapture to walk every app (see
  /// AppSnapshot::invalidate).
  void invalidate() {
    for (AppSnapshot& app : apps_) app.invalidate();
  }

 private:
  std::vector<AppSnapshot> apps_;
  std::size_t requestCount_ = 0;
  CaptureStats stats_;
};

}  // namespace coorm
