#include "coorm/rms/request_set.hpp"

#include <algorithm>

#include "coorm/common/check.hpp"

namespace coorm {

void RequestSet::add(Request* request) {
  COORM_CHECK(request != nullptr);
  COORM_DCHECK(find(request->id) == nullptr);
  items_.push_back(request);
  ++version_;
}

bool RequestSet::contains(const Request* request) const {
  return std::find(items_.begin(), items_.end(), request) != items_.end();
}

Request* RequestSet::find(RequestId id) const {
  const auto it = std::find_if(items_.begin(), items_.end(),
                               [&](const Request* r) { return r->id == id; });
  return it != items_.end() ? *it : nullptr;
}

std::vector<Request*> RequestSet::roots() const {
  std::vector<Request*> result;
  forEachRoot([&](Request* r) { result.push_back(r); });
  return result;
}

std::vector<Request*> RequestSet::children(const Request& parent) const {
  std::vector<Request*> result;
  forEachChild(parent, [&](Request* r) { result.push_back(r); });
  return result;
}

void SetIndex::build(const RequestSet* set) {
  set_ = set;
  const std::size_t n = set != nullptr ? set->size() : 0;
  parents_.assign(n, kNoSlot);
  roots_.clear();
  childEnds_.assign(n, 0);
  children_.clear();
  if (n == 0) return;

  // Parent slots: a constrained member's relatedTo, looked up among the
  // members. A chain link names the member just before it and needs no
  // lookup; the sorted map is built only for the first other one.
  bySlot_.clear();
  for (std::uint32_t s = 0; s < n; ++s) {
    const Request& r = *(*set)[s];
    if (r.relatedHow == Relation::kFree || r.relatedTo == nullptr) continue;
    if (s > 0 && (*set)[s - 1] == r.relatedTo) {
      parents_[s] = s - 1;
      continue;
    }
    if (bySlot_.empty()) {
      bySlot_.reserve(n);
      for (std::uint32_t k = 0; k < n; ++k) bySlot_.emplace_back((*set)[k], k);
      std::sort(bySlot_.begin(), bySlot_.end());
    }
    const auto it = std::lower_bound(
        bySlot_.begin(), bySlot_.end(), r.relatedTo,
        [](const auto& entry, const Request* key) {
          return entry.first < key;
        });
    if (it != bySlot_.end() && it->first == r.relatedTo) {
      parents_[s] = it->second;
    }
  }

  // Same membership and order as forEachRoot/forEachChild: roots in
  // insertion order, children in insertion order per parent. One counting
  // pass, an exclusive prefix sum, and one placement pass whose per-slot
  // cursors end up as the CSR end-offsets.
  std::uint32_t totalChildren = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (parents_[s] == kNoSlot) {
      roots_.push_back(s);
    } else {
      ++childEnds_[parents_[s]];
      ++totalChildren;
    }
  }
  std::uint32_t running = 0;  // counts -> exclusive start offsets
  for (std::uint32_t& slot : childEnds_) {
    const std::uint32_t count = slot;
    slot = running;
    running += count;
  }
  children_.resize(totalChildren);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (parents_[s] != kNoSlot) {
      children_[childEnds_[parents_[s]]++] = s;  // cursor becomes the end
    }
  }
  // A slot with no children keeps its start offset, which is its end
  // offset (the end of the slot before it): no fix-up pass.
}

}  // namespace coorm
