#include "coorm/rms/node_pool.hpp"

#include <utility>

#include "coorm/common/check.hpp"

namespace coorm {

NodePool::NodePool(const Machine& machine) {
  clusters_.reserve(machine.clusters.size());
  for (const ClusterSpec& spec : machine.clusters) {
    COORM_CHECK(spec.nodes >= 0);
    ClusterState st;
    st.id = spec.id;
    st.free.assign(static_cast<std::size_t>(spec.nodes), true);
    st.freeCount = spec.nodes;
    clusters_.push_back(std::move(st));
  }
}

const NodePool::ClusterState& NodePool::state(ClusterId cid) const {
  for (const ClusterState& st : clusters_) {
    if (st.id == cid) return st;
  }
  COORM_CHECK(false && "unknown cluster");
  __builtin_unreachable();
}

NodePool::ClusterState& NodePool::state(ClusterId cid) {
  return const_cast<ClusterState&>(std::as_const(*this).state(cid));
}

NodeCount NodePool::freeCount(ClusterId cid) const {
  return state(cid).freeCount;
}

NodeCount NodePool::totalCount(ClusterId cid) const {
  return static_cast<NodeCount>(state(cid).free.size());
}

std::vector<NodeId> NodePool::lowestFree(ClusterId cid,
                                         NodeCount count) const {
  COORM_CHECK(count >= 0);
  const ClusterState& st = state(cid);
  COORM_CHECK(count <= st.freeCount);
  std::vector<NodeId> result;
  result.reserve(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < st.free.size() && std::ssize(result) < count;
       ++i) {
    if (st.free[i]) result.push_back(NodeId{cid, static_cast<std::int32_t>(i)});
  }
  return result;
}

std::vector<NodeId> NodePool::allocate(ClusterId cid, NodeCount count) {
  std::vector<NodeId> result = lowestFree(cid, count);
  claim(result);
  return result;
}

void NodePool::release(std::span<const NodeId> nodes) {
  for (const NodeId& node : nodes) {
    ClusterState& st = state(node.cluster);
    const auto index = static_cast<std::size_t>(node.index);
    COORM_CHECK(index < st.free.size());
    COORM_CHECK(!st.free[index] && "double release");
    st.free[index] = true;
    ++st.freeCount;
  }
}

void NodePool::claim(std::span<const NodeId> nodes) {
  for (const NodeId& node : nodes) {
    ClusterState& st = state(node.cluster);
    const auto index = static_cast<std::size_t>(node.index);
    COORM_CHECK(index < st.free.size());
    COORM_CHECK(st.free[index] && "claim of allocated node");
    st.free[index] = false;
    --st.freeCount;
  }
}

bool NodePool::isFree(NodeId node) const {
  const ClusterState& st = state(node.cluster);
  const auto index = static_cast<std::size_t>(node.index);
  COORM_CHECK(index < st.free.size());
  return st.free[index];
}

}  // namespace coorm
