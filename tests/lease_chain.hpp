// A malleable application in the PSA/filler pattern (paper §3.1.3 and
// §5.4), shared by the suites that need an endless NEXT lease chain.
//
// The app holds one open-ended preemptible lease sized to what its
// preemptive view offers, capped by a seeded walk that moves every `hold`.
// It changes the lease the way the paper's fillers do: submit a NEXT
// successor of the new size, then end the current lease naming the node IDs
// it gives back (a grow keeps them all and receives extra IDs at the
// successor's start). A transition is issued only once the previous
// successor has started, so the chain grows by one lease per transition for
// as long as the run lasts — the input that pins request reclamation.
#pragma once

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "coorm/common/rng.hpp"
#include "coorm/rms/server.hpp"

namespace coorm::testing_support {

class LeaseChainApp : public AppEndpoint {
 public:
  struct Config {
    ClusterId cluster{0};
    NodeCount minNodes = 1;
    NodeCount maxNodes = 8;
    /// Successors to submit; the last lease is then held to the end.
    int transitions = 1000;
    /// The cap moves every `hold` (the next transition follows as soon as
    /// the view and the in-flight successor allow).
    Time hold = msec(20);
    std::uint64_t seed = 1;
  };

  LeaseChainApp(Executor& executor, Config config)
      : executor_(executor), config_(config), rng_(config.seed) {}

  void attach(Server& server) {
    session_ = server.connect(*this);
    cap_ = config_.maxNodes;
    tick();
  }

  /// Successors that have started so far.
  [[nodiscard]] int transitions() const { return transitions_; }
  [[nodiscard]] bool killed() const { return killed_; }
  [[nodiscard]] const std::vector<std::string>& events() const {
    return events_;
  }

  /// Runs after every start of a lease (sampling hook for tests).
  std::function<void()> onLeaseStarted;

  void onViews(const View&, const View& preemptive) override {
    pView_ = preemptive;
    haveView_ = true;
    log("views p=" + preemptive.toString());
    replan();
  }

  void onStarted(RequestId id, const std::vector<NodeId>& ids) override {
    std::ostringstream os;
    os << "started " << toString(id) << " [";
    for (const NodeId& node : ids) os << toString(node) << ' ';
    os << ']';
    log(os.str());
    if (id != pending_) return;
    if (pendingNext_) ++transitions_;
    current_ = id;
    pending_ = RequestId{};
    ids_ = ids;
    if (onLeaseStarted) onLeaseStarted();
    replan();
  }

  void onExpired(RequestId id) override {
    log("expired " + toString(id));
    if (!killed_) session_->done(id);
  }

  void onEnded(RequestId id) override { log("ended " + toString(id)); }

  void onKilled() override {
    log("killed");
    killed_ = true;
  }

 private:
  void log(const std::string& what) {
    events_.push_back("t=" + std::to_string(executor_.now()) + " " + what);
  }

  void tick() {
    executor_.after(config_.hold, [this] {
      if (killed_ || transitions_ >= config_.transitions) return;
      cap_ = rng_.uniformInt(config_.minNodes, config_.maxNodes);
      replan();
      tick();
    });
  }

  void replan() {
    if (killed_ || !haveView_ || pending_.valid()) return;
    const NodeCount offered = pView_.at(config_.cluster, executor_.now());
    // Once the chain is complete the lease only ever shrinks, as the view
    // demands: holding more than the view allows past the grace period
    // gets the application killed.
    const NodeCount limit =
        transitions_ >= config_.transitions ? std::ssize(ids_) : cap_;
    const NodeCount want = std::max<NodeCount>(std::min(offered, limit), 0);
    if (!current_.valid()) {
      if (want <= 0) return;
      RequestSpec spec;
      spec.cluster = config_.cluster;
      spec.nodes = want;
      spec.duration = kTimeInf;
      spec.type = RequestType::kPreemptible;
      pending_ = session_->request(spec);
      pendingNext_ = false;
      return;
    }
    const NodeCount held = std::ssize(ids_);
    if (want == held) return;
    std::vector<NodeId> released;
    if (want < held) released.assign(ids_.begin() + want, ids_.end());
    if (want > 0) {
      RequestSpec spec;
      spec.cluster = config_.cluster;
      spec.nodes = want;
      spec.duration = kTimeInf;
      spec.type = RequestType::kPreemptible;
      spec.relatedHow = Relation::kNext;
      spec.relatedTo = current_;
      pending_ = session_->request(spec);
      pendingNext_ = true;
    }
    const RequestId ending = current_;
    current_ = RequestId{};
    ids_.clear();
    session_->done(ending, std::move(released));
  }

  Executor& executor_;
  Config config_;
  Rng rng_;
  Session* session_ = nullptr;
  View pView_;
  bool haveView_ = false;
  bool killed_ = false;
  NodeCount cap_ = 0;
  RequestId current_{};
  RequestId pending_{};
  bool pendingNext_ = false;
  std::vector<NodeId> ids_;
  int transitions_ = 0;
  std::vector<std::string> events_;
};

}  // namespace coorm::testing_support
