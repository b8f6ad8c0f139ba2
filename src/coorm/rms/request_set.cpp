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

}  // namespace coorm
