// Requests: the unit of resource negotiation (paper §3.1.1, Appendix A.1).
//
// A request asks for `nodes` nodes on one cluster for `duration`. CooRMv2
// distinguishes three types:
//  - pre-allocation (PA): marks resources for possible future use; no node
//    IDs are ever attached; other applications may still fill the marked
//    resources preemptibly;
//  - non-preemptible (NP): a run-to-completion allocation, only guaranteed
//    when served from inside a pre-allocation;
//  - preemptible (P): an allocation the RMS may shrink at any time (the
//    application must cooperate and release node IDs when told to).
//
// Requests may be constrained relative to one another (§3.1.2): COALLOC
// (start together) and NEXT (start immediately after, sharing resources);
// FREE is unconstrained.
#pragma once

#include <string>
#include <vector>

#include "coorm/common/ids.hpp"
#include "coorm/common/time.hpp"

namespace coorm {

enum class RequestType {
  kPreAllocation,
  kNonPreemptible,
  kPreemptible,
};

enum class Relation {
  kFree,     ///< unconstrained
  kCoAlloc,  ///< starts at the same time as the related request
  kNext,     ///< starts right after the related request, sharing resources
};

[[nodiscard]] const char* toString(RequestType type);
[[nodiscard]] const char* toString(Relation relation);

/// What an application sends to the RMS when submitting a request.
struct RequestSpec {
  ClusterId cluster{0};
  NodeCount nodes = 0;
  Time duration = 0;  ///< may be kTimeInf (open-ended preemptible requests)
  RequestType type = RequestType::kNonPreemptible;
  Relation relatedHow = Relation::kFree;
  RequestId relatedTo{};  ///< must name an existing request unless kFree
};

/// A request as stored inside the RMS. Fields mirror Appendix A.1: the
/// first group is what the application sent, the second is set while
/// computing a schedule, the third once the request has started.
struct Request {
  // --- sent by the application -------------------------------------------
  RequestId id{};
  AppId app{};
  ClusterId cluster{0};
  NodeCount nodes = 0;
  Time duration = 0;
  RequestType type = RequestType::kNonPreemptible;
  Relation relatedHow = Relation::kFree;
  /// Resolved by the server at submission. An unstarted request keeps its
  /// target alive; once it has started, the server clears the link when it
  /// reclaims the ended target (nothing reads a started request's parent).
  Request* relatedTo = nullptr;

  // --- set while computing a schedule ------------------------------------
  NodeCount nAlloc = 0;          ///< nodes that will effectively be granted
  Time scheduledAt = kTimeInf;   ///< computed start time
  bool fixed = false;            ///< start time can no longer be moved
  Time earliestScheduleAt = 0;   ///< lower bound used by findHole()

  // --- set once the request runs ------------------------------------------
  Time startedAt = kNever;       ///< kNever until the request starts
  Time endedAt = kNever;         ///< kNever until done()/expiry
  std::vector<NodeId> nodeIds;   ///< node IDs currently attached

  /// True iff the RMS created this request as an implicit pre-allocation
  /// wrapping a bare non-preemptible request (§3.2).
  bool implicit = false;

  // --- server-side delivery bookkeeping ----------------------------------
  // Whether the start/expiry/end notification was actually posted to an
  // attached endpoint. Cleared by journal replay (the previous process's
  // deliveries are unknowable), so a RESUME re-announces anything pending —
  // at-least-once; RmsClient dedups by request id.
  bool startNotified = false;
  bool expiryNotified = false;
  bool endNotified = false;

  [[nodiscard]] bool started() const { return startedAt != kNever; }
  [[nodiscard]] bool ended() const { return endedAt != kNever; }

  /// End of the allocation window as currently known (start + duration).
  /// Only meaningful for started requests.
  [[nodiscard]] Time plannedEnd() const { return satAdd(startedAt, duration); }

  [[nodiscard]] std::string describe() const;
};

}  // namespace coorm
