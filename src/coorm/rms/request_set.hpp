// Request sets with tree navigation (paper Appendix A.2).
//
// For each application the RMS keeps three request sets (pre-allocations,
// non-preemptible, preemptible). Within a set, constraints form forests:
// requests that are unconstrained, or whose constraint target lies outside
// the set, are roots; COALLOC/NEXT edges define parent-child relations.
#pragma once

#include <cstdint>
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
  /// the scheduler hot path no longer runs them — a pass captures the set
  /// into a RequestSetSnapshot whose precomputed root list and CSR child
  /// adjacency reproduce exactly this membership and order at O(1) per
  /// edge (pinned by tests/test_snapshot.cpp). They remain for snapshot
  /// capture-time diagnostics and capture-free callers.
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

  /// Monotonic membership version: bumped by every add() and by every
  /// removeIf() that actually erased a member. Snapshot captures record the
  /// versions they saw; the epoch-skip fast path cross-checks them so a
  /// membership change whose owner forgot the `mutationEpoch` bump is
  /// caught (debug builds assert, release builds fall back to a walk)
  /// instead of silently serving a stale image.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  [[nodiscard]] auto begin() const { return items_.begin(); }
  [[nodiscard]] auto end() const { return items_.end(); }

 private:
  std::vector<Request*> items_;
  std::uint64_t version_ = 0;
};

}  // namespace coorm
