// Views: per-cluster availability profiles (paper §3.1.4 and Appendix A.3).
//
// A View maps each cluster to a Cluster Availability Profile (a
// StepFunction). The RMS computes a non-preemptive and a preemptive view
// for every application; applications scan views to decide what to request.
// The operations defined here are exactly those of Appendix A.3: union,
// sum, difference, alloc() and findHole().
#pragma once

#include <span>
#include <string>
#include <vector>

#include "coorm/common/ids.hpp"
#include "coorm/common/time.hpp"
#include "coorm/profile/step_function.hpp"

namespace coorm {

class WorkerPool;

/// A set of per-cluster availability profiles.
///
/// Clusters not present behave as the zero profile. The container is a
/// sorted vector keyed by ClusterId (views hold a handful of clusters; the
/// evaluation uses one).
class View {
 public:
  View() = default;

  /// Availability profile of a cluster (zero profile if never set).
  [[nodiscard]] const StepFunction& cap(ClusterId cid) const;

  /// Mutable profile of a cluster (inserted as zero if absent).
  [[nodiscard]] StepFunction& capRef(ClusterId cid);

  /// True when no cluster has a set profile (the view is zero everywhere).
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// True when every profile is >= 0 everywhere (clampMin(0) is a no-op).
  [[nodiscard]] bool nonNegative() const;

  /// Replace a cluster's profile.
  void setCap(ClusterId cid, StepFunction profile);

  /// Drops every profile (the view becomes zero), keeping the entry
  /// buffer for the next assignment.
  void clear() { entries_.clear(); }

  /// Shorthand for cap(cid).at(t).
  [[nodiscard]] NodeCount at(ClusterId cid, Time t) const;

  /// Pointwise sum over every cluster present in either view.
  View& operator+=(const View& other);
  /// Pointwise difference. May produce negative availability; callers that
  /// need non-negative views apply clampMin(0) (the scheduler does).
  View& operator-=(const View& other);
  /// Pointwise maximum — the paper's view union operator.
  View& unionMax(const View& other);
  /// Clamp every profile to >= floor.
  View& clampMin(NodeCount floor);

  /// N-ary in-place accumulate, the sweep-based replacement for folds of
  /// the binary operators above. Per cluster (union of all cluster sets)
  /// one k-way merge produces the result with a single allocation and a
  /// single canonicalize:
  ///   kAdd:       *this + other_0 + other_1 + ...
  ///   kSubtract:  *this - other_0 - other_1 - ...
  ///   kMax:       max(*this, other_0, other_1, ...)
  /// With `clampAtZero`, values are clamped to >= 0 during the same sweep
  /// (equivalent to clampMin(0) on the finished result). A non-null
  /// `pool` fans the independent per-cluster sweeps of the N-ary path out
  /// over its workers; segment blocks come from each sweeping thread's
  /// own arena. The result (entries and profiles) is bit-identical to the
  /// serial pass.
  enum class Op { kAdd, kSubtract, kMax };
  View& accumulate(std::span<const View* const> others, Op op,
                   bool clampAtZero = false, WorkerPool* pool = nullptr);

  /// Append the ids of clusters with a set profile to `out` (in this
  /// view's sorted order; no deduplication across calls).
  void appendClusterIds(std::vector<ClusterId>& out) const;

  /// Sort + dedup a cluster-id list in place. Combined with
  /// appendClusterIds this replaces O(n^2) std::find-based set unions.
  static void sortUniqueClusterIds(std::vector<ClusterId>& ids);

  friend View operator+(View lhs, const View& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend View operator-(View lhs, const View& rhs) {
    lhs -= rhs;
    return lhs;
  }

  /// Paper A.3 alloc(): the node-count that can be granted on `cid` over
  /// [start, start+duration) without changing the start time, limited both
  /// by availability and by the wanted count. Never negative.
  [[nodiscard]] NodeCount alloc(ClusterId cid, Time start, Time duration,
                                NodeCount wanted) const;

  /// Paper A.3 findHole(): earliest time >= earliest at which `need` nodes
  /// are continuously available on `cid` for `duration`. kTimeInf if never.
  [[nodiscard]] Time findHole(ClusterId cid, NodeCount need, Time duration,
                              Time earliest) const;

  /// Total node-seconds available over [t0, t1) summed across clusters.
  [[nodiscard]] double integralNodeSeconds(Time t0, Time t1) const;

  /// Clusters with an explicitly set profile.
  [[nodiscard]] std::vector<ClusterId> clusters() const;

  /// Semantic equality: profiles compare equal cluster-by-cluster, treating
  /// missing clusters as zero.
  [[nodiscard]] bool sameAs(const View& other) const;

  friend bool operator==(const View&, const View&) = default;

  [[nodiscard]] std::string toString() const;

 private:
  struct Entry {
    ClusterId cluster;
    StepFunction profile;
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  [[nodiscard]] const Entry* find(ClusterId cid) const;
  [[nodiscard]] Entry* find(ClusterId cid);

  std::vector<Entry> entries_;  // sorted by cluster id
};

/// A non-preemptive view as a scheduling pass publishes it: the two
/// operands whose clamped sum is the view (paper §3.1.4, Algorithm 4),
///   V^(i)_{:P} = max(0, ownOccupation + freeProfile)   per cluster.
/// `freeProfile` is the running free profile vnp at the application's
/// position in the connection-order loop: it only changes where an
/// application places a pre-allocation, so every application between two
/// placements holds the same segment blocks. `ownOccupation` is the
/// application's own started pre-allocations. Copying the pair shares
/// both operands' blocks (O(clusters), no segment copied); the view is
/// evaluated only where something reads it.
struct NonPreemptiveView {
  View freeProfile;
  View ownOccupation;

  /// True before any pass published the view (both operands unset).
  [[nodiscard]] bool empty() const {
    return freeProfile.empty() && ownOccupation.empty();
  }
  void clear() {
    freeProfile.clear();
    ownOccupation.clear();
  }

  /// The view itself, evaluated for a reader (a push, an in-process query,
  /// a resume); counted as metrics `np_views_materialized`.
  [[nodiscard]] View materialize() const;

  /// The clamped sum, max(0, ownOccupation + freeProfile): one clamped
  /// accumulate. Every evaluation goes through here — materialize() for
  /// readers, the scheduler for the scratch view a dirty application's
  /// pre-allocations are fitted into — so all are bit-identical.
  [[nodiscard]] static View sum(const View& freeProfile,
                                const View& ownOccupation);

  /// Operand identity (O(clusters) when both sides share their blocks);
  /// equal pairs have equal views, the converse does not hold.
  friend bool operator==(const NonPreemptiveView&,
                         const NonPreemptiveView&) = default;
};

}  // namespace coorm
