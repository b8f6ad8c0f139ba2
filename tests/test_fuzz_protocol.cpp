// Randomized protocol stress: a soup of applications performing random
// valid protocol actions must never violate the system invariants:
//   - the node pool never over- or under-flows (checked inside NodePool);
//   - a node ID is attached to at most one live request;
//   - the simulation is deterministic per seed;
//   - every node is reclaimed once everything disconnects.
//
// Whole-second action bursts land exactly on the second-aligned scheduling
// passes, so request/done/disconnect messages share their instants with
// passes. Runs must be bit-identical, trace for trace, across repeats.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "coorm/common/rng.hpp"
#include "coorm/rms/server.hpp"
#include "coorm/sim/engine.hpp"

namespace coorm {
namespace {

const ClusterId kC{0};

/// An application driving random (but protocol-conforming) actions.
class ChaosApp : public AppEndpoint {
 public:
  /// With `disconnectAt` > 0 the application leaves mid-run (releasing
  /// everything), so disconnects also share instants with passes.
  ChaosApp(Engine& engine, std::uint64_t seed, Time disconnectAt = 0)
      : engine_(engine), rng_(seed), disconnectAt_(disconnectAt) {}

  void attach(Server& server) {
    session_ = server.connect(*this);
    scheduleAction();
    scheduleEnforcement();
    if (disconnectAt_ > 0) {
      engine_.after(disconnectAt_, [this] { disconnectNow(); });
    }
  }

  void onViews(const View& np, const View& p) override {
    npView_ = np;
    pView_ = p;
    if (!killed_ && !done_) enforcePreemptibleLimit();
  }

  void onStarted(RequestId id, const std::vector<NodeId>& ids) override {
    held_[id] = ids;
  }

  void onExpired(RequestId id) override {
    if (session_ != nullptr && !killed_) session_->done(id);
  }

  void onEnded(RequestId id) override { held_.erase(id); }
  void onKilled() override { killed_ = true; }

  [[nodiscard]] bool killed() const { return killed_; }
  [[nodiscard]] const std::map<RequestId, std::vector<NodeId>>& held() const {
    return held_;
  }

  void disconnectNow() {
    if (done_) return;
    if (!killed_ && session_ != nullptr) session_->disconnect();
    done_ = true;
    held_.clear();  // the server reclaimed everything on disconnect
  }

 private:
  void scheduleAction() {
    // Half-second grid vs the server's 1 s pass interval: actions at X.5 s
    // arm the pass for (X+1).0 s, so actions scheduled afterwards for
    // (X+1).0 s dispatch at the pass's own instant, right after it.
    engine_.after(msec(500) * rng_.uniformInt(1, 20), [this] {
      if (!done_ && !killed_) {
        const int burst = static_cast<int>(rng_.uniformInt(1, 3));
        for (int i = 0; i < burst && !done_ && !killed_; ++i) act();
        if (!done_ && !killed_) scheduleAction();
      }
    });
  }

  /// A view pushed earlier may announce a *future* drop; no new push
  /// happens when that moment arrives, so a cooperative application must
  /// watch the clock itself (PsaApp schedules wakeups at view breakpoints;
  /// here a periodic check within the violation grace suffices).
  void scheduleEnforcement() {
    engine_.after(sec(2), [this] {
      if (done_ || killed_) return;
      enforcePreemptibleLimit();
      scheduleEnforcement();
    });
  }

  /// Cooperative behaviour: when the preemptive view drops below what we
  /// hold preemptibly, release whole requests until compliant (otherwise
  /// the RMS would rightfully kill us).
  void enforcePreemptibleLimit() {
    const NodeCount allowed = pView_.at(kC, engine_.now());
    NodeCount heldP = 0;
    for (const auto& [id, ids] : held_) {
      if (typeOf_[id] == RequestType::kPreemptible) heldP += std::ssize(ids);
    }
    while (heldP > allowed) {
      RequestId victim{};
      for (const auto& [id, ids] : held_) {
        if (typeOf_[id] == RequestType::kPreemptible && !ids.empty()) {
          victim = id;
          break;
        }
      }
      if (!victim.valid()) break;
      const auto ids = held_[victim];
      heldP -= std::ssize(ids);
      session_->done(victim, ids);
      held_.erase(victim);
    }
  }

  void act() {
    switch (rng_.uniformInt(0, 3)) {
      case 0: {  // submit a modest NP request sized from the view
        const NodeCount free =
            std::max<NodeCount>(npView_.at(kC, engine_.now()), 1);
        RequestSpec spec;
        spec.cluster = kC;
        spec.nodes = rng_.uniformInt(1, std::min<NodeCount>(free, 8));
        spec.duration = sec(rng_.uniformInt(10, 120));
        spec.type = RequestType::kNonPreemptible;
        const RequestId id = session_->request(spec);
        typeOf_[id] = spec.type;
        pending_.push_back(id);
        break;
      }
      case 1: {  // submit a preemptible request
        RequestSpec spec;
        spec.cluster = kC;
        spec.nodes = rng_.uniformInt(1, 8);
        spec.duration =
            rng_.uniformInt(0, 1) ? kTimeInf : sec(rng_.uniformInt(20, 200));
        spec.type = RequestType::kPreemptible;
        const RequestId id = session_->request(spec);
        typeOf_[id] = spec.type;
        pending_.push_back(id);
        break;
      }
      case 2: {  // done() something (started or not)
        if (!pending_.empty()) {
          const std::size_t index = static_cast<std::size_t>(
              rng_.uniformInt(0, std::ssize(pending_) - 1));
          const RequestId id = pending_[index];
          pending_.erase(pending_.begin() + static_cast<long>(index));
          // Release everything the request holds (cooperative behaviour).
          auto it = held_.find(id);
          session_->done(id, it != held_.end() ? it->second
                                               : std::vector<NodeId>{});
        }
        break;
      }
      case 3:  // idle tick
        break;
    }
  }

  Engine& engine_;
  Rng rng_;
  Time disconnectAt_ = 0;
  Session* session_ = nullptr;
  View npView_, pView_;
  std::map<RequestId, std::vector<NodeId>> held_;
  std::map<RequestId, RequestType> typeOf_;
  std::vector<RequestId> pending_;
  bool killed_ = false;
  bool done_ = false;
};

struct FuzzResult {
  Time endTime = 0;
  NodeCount freeAtEnd = 0;
  int killedApps = 0;
  std::uint64_t passes = 0;
};

Server::Config fuzzConfig() {
  Server::Config config;
  config.reschedInterval = sec(1);
  config.violationGrace = sec(5);
  return config;
}

FuzzResult runFuzz(std::uint64_t seed, int napps, Time horizon,
                   Server::Config config = fuzzConfig(),
                   std::vector<std::string>* traceOut = nullptr,
                   bool midRunDisconnects = false) {
  Engine engine;
  Server server(engine, Machine::single(24), config);
  Trace trace;
  if (traceOut != nullptr) server.setTrace(&trace);

  Rng rng(seed);
  std::vector<std::unique_ptr<ChaosApp>> apps;
  for (int i = 0; i < napps; ++i) {
    const Time disconnectAt =
        midRunDisconnects && rng.uniformInt(0, 2) == 0
            ? sec(rng.uniformInt(30, 600))
            : 0;
    apps.push_back(std::make_unique<ChaosApp>(
        engine, rng.fork().engine()(), disconnectAt));
    apps.back()->attach(server);
  }

  engine.runUntil(horizon);

  // Invariant: no node is attached to two live requests at once.
  // (ChaosApps track the IDs the server reported.)
  std::set<NodeId> seen;
  for (const auto& app : apps) {
    if (app->killed()) continue;
    for (const auto& [request, ids] : app->held()) {
      for (const NodeId& node : ids) {
        EXPECT_TRUE(seen.insert(node).second)
            << toString(node) << " attached twice";
      }
    }
  }

  for (auto& app : apps) app->disconnectNow();
  engine.runUntil(satAdd(horizon, sec(10)));

  FuzzResult result;
  result.endTime = engine.now();
  result.freeAtEnd = server.pool().freeCount(kC);
  for (const auto& app : apps) {
    if (app->killed()) ++result.killedApps;
  }
  result.passes = server.passCount();
  if (traceOut != nullptr) {
    traceOut->clear();
    for (const Trace::Entry& entry : trace.entries()) {
      traceOut->push_back("t=" + std::to_string(entry.at) + " " +
                          entry.actor + ": " + entry.what);
    }
  }
  return result;
}

void expectSameResult(const FuzzResult& a, const FuzzResult& b) {
  EXPECT_EQ(a.endTime, b.endTime);
  EXPECT_EQ(a.freeAtEnd, b.freeAtEnd);
  EXPECT_EQ(a.killedApps, b.killedApps);
  EXPECT_EQ(a.passes, b.passes);
}

class FuzzProtocol : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzProtocol, InvariantsHoldAndEverythingIsReclaimed) {
  const FuzzResult result = runFuzz(GetParam(), 6, minutes(30));
  EXPECT_EQ(result.freeAtEnd, 24);   // all nodes reclaimed
  EXPECT_EQ(result.killedApps, 0);   // cooperative apps are never killed
  EXPECT_GT(result.passes, 10u);     // the system actually did things
}

TEST_P(FuzzProtocol, DeterministicPerSeed) {
  const FuzzResult a = runFuzz(GetParam(), 4, minutes(10));
  const FuzzResult b = runFuzz(GetParam(), 4, minutes(10));
  EXPECT_EQ(a.endTime, b.endTime);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.freeAtEnd, b.freeAtEnd);
}

// Request/done/disconnect bursts at the passes' instants: a repeat of the
// seed must reproduce the first run's result and trace exactly.
TEST_P(FuzzProtocol, RepeatsMatchUnderBursts) {
  const std::uint64_t seed = GetParam();
  std::vector<std::string> firstTrace;
  const FuzzResult first =
      runFuzz(seed, 5, minutes(15), fuzzConfig(), &firstTrace,
              /*midRunDisconnects=*/true);
  std::vector<std::string> repeatTrace;
  const FuzzResult repeat =
      runFuzz(seed, 5, minutes(15), fuzzConfig(), &repeatTrace,
              /*midRunDisconnects=*/true);
  expectSameResult(first, repeat);
  EXPECT_EQ(firstTrace, repeatTrace);
}

// A denser scenario (more applications, tighter action grid): every node
// still comes back once everything disconnects.
TEST(FuzzProtocolDense, BurstsReclaimEveryNode) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const FuzzResult result =
        runFuzz(seed, 10, minutes(10), fuzzConfig(), nullptr,
                /*midRunDisconnects=*/true);
    EXPECT_EQ(result.freeAtEnd, 24);
  }
}

TEST_P(FuzzProtocol, TraceDeterministicPerSeed) {
  const std::uint64_t seed = GetParam();
  std::vector<std::string> first;
  std::vector<std::string> second;
  const FuzzResult a = runFuzz(seed, 4, minutes(10), fuzzConfig(), &first,
                               /*midRunDisconnects=*/true);
  const FuzzResult b = runFuzz(seed, 4, minutes(10), fuzzConfig(), &second,
                               /*midRunDisconnects=*/true);
  expectSameResult(a, b);
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProtocol,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace coorm
