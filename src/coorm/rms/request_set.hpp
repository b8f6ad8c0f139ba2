// Request sets with tree navigation (paper Appendix A.2).
//
// For each application the RMS keeps three request sets (pre-allocations,
// non-preemptible, preemptible). Within a set, constraints form forests:
// requests that are unconstrained, or whose constraint target lies outside
// the set, are roots; COALLOC/NEXT edges define parent-child relations.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "coorm/rms/request.hpp"

namespace coorm {

/// Non-owning, insertion-ordered collection of requests.
///
/// Ownership stays with the server (which controls request lifetime across
/// sets); the scheduler only navigates and mutates scheduling attributes.
class RequestSet {
 public:
  RequestSet() = default;

  void add(Request* request);
  /// Removes every member `pred` selects in one pass, keeping the rest in
  /// order (does not destroy them).
  template <typename Pred>
  void removeIf(Pred&& pred) {
    if (std::erase_if(items_, pred) > 0) ++version_;
  }

  [[nodiscard]] bool contains(const Request* request) const;
  [[nodiscard]] Request* find(RequestId id) const;

  /// Paper A.2 roots(): requests with relatedHow == FREE or whose
  /// relatedTo is not a member of this set.
  [[nodiscard]] std::vector<Request*> roots() const;

  /// Paper A.2 children(): members of this set whose relatedTo is r.
  [[nodiscard]] std::vector<Request*> children(const Request& r) const;

  /// Allocation-free variants of roots()/children(); same order, same
  /// membership. These full-set scans define the navigation *contract*:
  /// the scheduler does not run them — it navigates a SetIndex, whose root
  /// list and CSR child adjacency reproduce exactly this membership and
  /// order at O(1) per edge (pinned by tests/test_set_index.cpp).
  template <typename Fn>
  void forEachRoot(Fn&& fn) const {
    for (Request* r : items_) {
      if (r->relatedHow == Relation::kFree || r->relatedTo == nullptr ||
          !contains(r->relatedTo)) {
        fn(r);
      }
    }
  }
  template <typename Fn>
  void forEachChild(const Request& parent, Fn&& fn) const {
    for (Request* r : items_) {
      if (r->relatedTo == &parent && r->relatedHow != Relation::kFree) {
        fn(r);
      }
    }
  }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  /// The member at `slot`, its position in insertion order.
  [[nodiscard]] Request* operator[](std::size_t slot) const {
    return items_[slot];
  }

  /// Monotonic membership version: bumped by every add() and by every
  /// removeIf() that actually erased a member. The scheduler keys its
  /// cached SetIndex on it together with the owner's mutation epoch; with
  /// the epoch unchanged the version must be too (debug builds assert), so
  /// a membership change whose owner forgot the epoch bump is caught
  /// instead of silently navigating a stale index.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  [[nodiscard]] auto begin() const { return items_.begin(); }
  [[nodiscard]] auto end() const { return items_.end(); }

 private:
  std::vector<Request*> items_;
  std::uint64_t version_ = 0;
};

/// Navigation index of one RequestSet's constraint forest: the root list
/// and a CSR child adjacency with exactly the membership and order of
/// RequestSet::forEachRoot/forEachChild, at O(1) per edge where those
/// re-scan the whole set per lookup (quadratic on deep NEXT chains).
/// Members are addressed by slot, their position in the set.
///
/// The index describes the set's membership and constraint edges
/// (`relatedHow`, `relatedTo`) as they were at build(); it is valid until
/// either changes. Every other request field is read live.
class SetIndex {
 public:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Indexes `set` (null reads as an empty set), reusing every buffer's
  /// capacity.
  void build(const RequestSet* set);

  [[nodiscard]] std::size_t size() const { return parents_.size(); }
  [[nodiscard]] bool empty() const { return parents_.empty(); }
  [[nodiscard]] Request& member(std::uint32_t slot) const {
    return *(*set_)[slot];
  }

  /// Slot of the member's constraint parent, or kNoSlot when the member is
  /// unconstrained or its parent is not in this set (a root).
  [[nodiscard]] std::uint32_t parentSlot(std::uint32_t slot) const {
    return parents_[slot];
  }

  /// Paper A.2 roots(), in insertion order.
  [[nodiscard]] std::span<const std::uint32_t> roots() const {
    return roots_;
  }

  /// Paper A.2 children() of the member at `slot`, in insertion order.
  [[nodiscard]] std::span<const std::uint32_t> childrenOf(
      std::uint32_t slot) const {
    const std::uint32_t first = slot == 0 ? 0 : childEnds_[slot - 1];
    return std::span<const std::uint32_t>(children_).subspan(
        first, childEnds_[slot] - first);
  }

 private:
  const RequestSet* set_ = nullptr;
  std::vector<std::uint32_t> parents_;  ///< per slot, kNoSlot for roots
  std::vector<std::uint32_t> roots_;
  /// CSR adjacency: slot s's children occupy
  /// children_[s == 0 ? 0 : childEnds_[s-1] .. childEnds_[s]).
  std::vector<std::uint32_t> childEnds_;
  std::vector<std::uint32_t> children_;
  /// Build scratch (member pointer -> slot, sorted), kept for its capacity.
  std::vector<std::pair<const Request*, std::uint32_t>> bySlot_;
};

}  // namespace coorm
