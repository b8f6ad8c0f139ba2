// Concrete node-ID bookkeeping.
//
// The scheduler reasons about node *counts*; when a request actually starts
// the server attaches node *IDs* from this pool (the paper leaves ID choice
// to the RMS — homogeneous clusters, §7). Allocation is lowest-index-first
// so simulations are deterministic.
#pragma once

#include <span>
#include <vector>

#include "coorm/common/ids.hpp"
#include "coorm/rms/machine.hpp"

namespace coorm {

class NodePool {
 public:
  explicit NodePool(const Machine& machine);

  /// Number of currently unallocated nodes on a cluster.
  [[nodiscard]] NodeCount freeCount(ClusterId cid) const;

  /// Total nodes on a cluster.
  [[nodiscard]] NodeCount totalCount(ClusterId cid) const;

  /// The `count` free nodes allocate() would take (lowest indices first),
  /// without taking them. Aborts if fewer are free — callers check
  /// freeCount() first.
  [[nodiscard]] std::vector<NodeId> lowestFree(ClusterId cid,
                                               NodeCount count) const;

  /// Take `count` free nodes: lowestFree() then claim().
  [[nodiscard]] std::vector<NodeId> allocate(ClusterId cid, NodeCount count);

  /// Return nodes to the pool. Double-free aborts.
  void release(std::span<const NodeId> nodes);

  /// Take specific nodes by ID (a request start, live or replayed from
  /// the journal). Aborts if any is already taken.
  void claim(std::span<const NodeId> nodes);

  [[nodiscard]] bool isFree(NodeId node) const;

 private:
  struct ClusterState {
    ClusterId id{};
    std::vector<bool> free;
    NodeCount freeCount = 0;
  };

  [[nodiscard]] const ClusterState& state(ClusterId cid) const;
  [[nodiscard]] ClusterState& state(ClusterId cid);

  std::vector<ClusterState> clusters_;
};

}  // namespace coorm
