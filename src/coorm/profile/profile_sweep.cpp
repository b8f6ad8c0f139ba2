#include "coorm/profile/profile_sweep.hpp"

#include <algorithm>

namespace coorm {

ProfileSweep::ProfileSweep(std::span<const StepFunction* const> functions) {
  cursors_.reserve(functions.size());
  heap_.reserve(functions.size());
  changed_.reserve(functions.size());
  for (std::size_t i = 0; i < functions.size(); ++i) {
    cursors_.emplace_back(*functions[i]);
    if (!cursors_.back().atLastSegment()) {
      heap_.push_back({cursors_.back().nextChange(),
                       static_cast<std::uint32_t>(i)});
    }
  }
  std::make_heap(heap_.begin(), heap_.end(), later);
}

bool ProfileSweep::advance() {
  if (heap_.empty()) return false;
  const Time next = heap_.front().time;
  changed_.clear();
  // Pop every cursor breaking at `next`; step it and re-queue its next
  // breakpoint (if any). Each input segment passes through the heap once,
  // so a full sweep costs O(total segments × log N).
  while (!heap_.empty() && heap_.front().time == next) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const std::uint32_t index = heap_.back().index;
    cursors_[index].step();
    changed_.push_back(index);
    if (!cursors_[index].atLastSegment()) {
      heap_.back() = {cursors_[index].nextChange(), index};
      std::push_heap(heap_.begin(), heap_.end(), later);
    } else {
      heap_.pop_back();
    }
  }
  time_ = next;
  return true;
}

}  // namespace coorm
