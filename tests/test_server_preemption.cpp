// Preemptible requests: equi-partition views, filling, yanking resources
// back for non-preemptible growth, protocol-violation kills, and the start
// a pass decided happening on the filler's release, not one interval later.
#include <gtest/gtest.h>

#include <algorithm>

#include "coorm/rms/server.hpp"
#include "coorm/sim/engine.hpp"

namespace coorm {
namespace {

const ClusterId kC{0};

/// Minimal cooperative malleable endpoint: keeps its preemptible request
/// sized to its preemptive view (like a PSA without tasks).
class MiniMalleable : public AppEndpoint {
 public:
  explicit MiniMalleable(bool cooperative = true)
      : cooperative_(cooperative) {}

  void onViews(const View& np, const View& p) override {
    (void)np;
    view = p;
    ++viewPushes;
    replan();
  }
  void onStarted(RequestId id, const std::vector<NodeId>& ids) override {
    if (id != pending) return;
    pending = RequestId{};
    current = id;
    held = ids;
    inFlight = false;
    replan();
  }
  void onExpired(RequestId id) override { session->done(id); }
  void onKilled() override { killed = true; }

  void replan() {
    if (!cooperative_ || session == nullptr || inFlight || killed) return;
    const NodeCount allowed = view.at(kC, now());
    const NodeCount have = std::ssize(held);
    if (allowed == have && current.valid()) return;
    RequestSpec spec;
    spec.cluster = kC;
    spec.nodes = allowed;
    spec.duration = kTimeInf;
    spec.type = RequestType::kPreemptible;
    if (current.valid()) {
      spec.relatedHow = Relation::kNext;
      spec.relatedTo = current;
      if (allowed <= 0) {
        // Give everything back.
        std::vector<NodeId> all = held;
        held.clear();
        session->done(current, all);
        current = RequestId{};
        return;
      }
      pending = session->request(spec);
      inFlight = true;
      std::vector<NodeId> released;
      if (allowed < have) {
        released.assign(held.begin() + allowed, held.end());
        held.resize(static_cast<std::size_t>(allowed));
        releasedAt.push_back(now());
      }
      session->done(current, released);
      current = RequestId{};
    } else if (allowed > 0) {
      pending = session->request(spec);
      inFlight = true;
    }
  }

  [[nodiscard]] Time now() const { return exec->now(); }

  Session* session = nullptr;
  const Executor* exec = nullptr;
  View view;
  std::vector<NodeId> held;
  RequestId current, pending;
  std::vector<Time> releasedAt;  ///< when each shrink gave nodes back
  bool inFlight = false;
  bool killed = false;
  int viewPushes = 0;
  bool cooperative_;
};

class RigidEndpoint : public AppEndpoint {
 public:
  void onStarted(RequestId id, const std::vector<NodeId>&) override {
    started.push_back(id);
  }
  void onExpired(RequestId id) override { session->done(id); }
  Session* session = nullptr;
  std::vector<RequestId> started;
};

class PreemptionTest : public ::testing::Test {
 protected:
  PreemptionTest() : server_(engine_, Machine::single(10), config()) {}

  static Server::Config config() {
    Server::Config c;
    c.reschedInterval = sec(1);
    c.violationGrace = sec(5);
    return c;
  }

  void attach(MiniMalleable& app) {
    app.session = server_.connect(app);
    app.exec = &engine_;
  }

  void runUntil(Time t) { engine_.runUntil(t); }

  Engine engine_;
  Server server_;
};

TEST_F(PreemptionTest, MalleableFillsWholeIdleMachine) {
  MiniMalleable psa;
  attach(psa);
  runUntil(sec(3));
  EXPECT_EQ(std::ssize(psa.held), 10);
}

TEST_F(PreemptionTest, TwoMalleablesConvergeToEquiPartition) {
  MiniMalleable a, b;
  attach(a);
  attach(b);
  runUntil(sec(30));
  // Between them they must not exceed the machine...
  EXPECT_LE(std::ssize(a.held) + std::ssize(b.held), 10);
  // ...and each holds at least its entitled half.
  EXPECT_GE(std::ssize(a.held), 5);
  EXPECT_GE(std::ssize(b.held), 5);
}

TEST_F(PreemptionTest, NonPreemptibleGrowthYanksPreemptibleNodes) {
  MiniMalleable psa;
  attach(psa);
  RigidEndpoint rigid;
  rigid.session = server_.connect(rigid);
  runUntil(sec(3));
  ASSERT_EQ(std::ssize(psa.held), 10);

  RequestSpec np;
  np.cluster = kC;
  np.nodes = 6;
  np.duration = sec(100);
  np.type = RequestType::kNonPreemptible;
  const RequestId id = rigid.session->request(np);
  runUntil(sec(10));
  EXPECT_EQ(rigid.started, std::vector<RequestId>{id});
  EXPECT_EQ(std::ssize(psa.held), 4);
}

TEST_F(PreemptionTest, PreemptibleComesBackWhenNpEnds) {
  MiniMalleable psa;
  attach(psa);
  RigidEndpoint rigid;
  rigid.session = server_.connect(rigid);
  runUntil(sec(3));

  RequestSpec np;
  np.cluster = kC;
  np.nodes = 6;
  np.duration = sec(20);
  np.type = RequestType::kNonPreemptible;
  rigid.session->request(np);
  runUntil(sec(15));
  EXPECT_EQ(std::ssize(psa.held), 4);
  runUntil(sec(40));
  EXPECT_EQ(std::ssize(psa.held), 10);
}

TEST_F(PreemptionTest, UncooperativeAppIsKilled) {
  MiniMalleable good;
  attach(good);
  runUntil(sec(3));
  ASSERT_EQ(std::ssize(good.held), 10);
  good.cooperative_ = false;  // stops reacting from now on

  RigidEndpoint rigid;
  rigid.session = server_.connect(rigid);
  RequestSpec np;
  np.cluster = kC;
  np.nodes = 6;
  np.duration = sec(100);
  np.type = RequestType::kNonPreemptible;
  const RequestId id = rigid.session->request(np);

  runUntil(sec(30));  // beyond the violation grace
  EXPECT_TRUE(good.killed);
  // The rigid app got its nodes after the kill.
  EXPECT_EQ(rigid.started, std::vector<RequestId>{id});
}

TEST_F(PreemptionTest, PreemptibleViewSignalsFutureDrop) {
  // A queued NP request with a future start must show up as a future drop
  // in the preemptive view, not an immediate one.
  MiniMalleable psa;
  attach(psa);
  RigidEndpoint rigid;
  rigid.session = server_.connect(rigid);
  runUntil(sec(3));

  RequestSpec first;
  first.cluster = kC;
  first.nodes = 10;
  first.duration = sec(50);
  first.type = RequestType::kNonPreemptible;
  rigid.session->request(first);
  runUntil(sec(10));
  // Machine fully non-preemptible: the PSA holds nothing.
  EXPECT_EQ(std::ssize(psa.held), 0);
  // Its view promises capacity back when the NP job ends.
  EXPECT_GT(psa.view.at(kC, sec(120)), 0);
}

// ---------------------------------------------------------------------------
// Start on release: the start step runs on every release too, so a start
// the last pass decided is not held to the next re-scheduling interval by
// node IDs the preempted filler still held at that pass's commit.

RequestSpec npSpec(NodeCount nodes, Time duration,
                   Relation how = Relation::kFree, RequestId to = RequestId{}) {
  RequestSpec spec;
  spec.cluster = kC;
  spec.nodes = nodes;
  spec.duration = duration;
  spec.type = RequestType::kNonPreemptible;
  spec.relatedHow = how;
  spec.relatedTo = to;
  return spec;
}

TEST_F(PreemptionTest, RigidStartsAtTheFillersReleaseInThePassThatPlacedIt) {
  MiniMalleable psa;
  attach(psa);
  RigidEndpoint rigid;
  rigid.session = server_.connect(rigid);
  runUntil(msec(3500));
  ASSERT_EQ(std::ssize(psa.held), 10);
  const std::uint64_t passesBefore = server_.passCount();

  // The request arms a pass at T = 3.5 s (the last one ran over a second
  // ago). That pass places the rigid job at T and shrinks the filler's
  // view; the filler answers the push at T, and the job starts on that
  // release instead of at the next pass (T + 1 s).
  const RequestId id = rigid.session->request(npSpec(6, sec(100)));
  runUntil(sec(10));
  ASSERT_EQ(rigid.started, std::vector<RequestId>{id});
  ASSERT_FALSE(psa.releasedAt.empty());
  EXPECT_EQ(psa.releasedAt.front(), msec(3500));
  EXPECT_EQ(server_.findRequest(id)->startedAt, msec(3500));
  EXPECT_EQ(server_.findRequest(id)->scheduledAt, msec(3500));
  EXPECT_GT(server_.passCount(), passesBefore);
  EXPECT_EQ(std::ssize(psa.held), 4);
}

TEST_F(PreemptionTest, GrowSuccessorStartsAtTheFillersRelease) {
  MiniMalleable psa;
  attach(psa);
  RigidEndpoint app;
  app.session = server_.connect(app);
  runUntil(msec(500));
  // The rigid app runs 4 nodes from the pass at 1 s; the filler takes the
  // other 6.
  const RequestId first = app.session->request(npSpec(4, sec(100)));
  runUntil(msec(5500));
  ASSERT_EQ(app.started, std::vector<RequestId>{first});
  ASSERT_EQ(std::ssize(psa.held), 6);
  const std::vector<NodeId> kept = server_.findRequest(first)->nodeIds;
  const std::size_t releases = psa.releasedAt.size();

  // A spontaneous NEXT grow to 8 nodes (request, then done the current
  // request). The pass the request arms, at T = 5.5 s, places the
  // successor at T with the 4 inherited IDs and shrinks the filler's view;
  // the filler answers the push at T, and the successor starts on that
  // release instead of at the next pass (T + 1 s).
  const RequestId grown =
      app.session->request(npSpec(8, sec(100), Relation::kNext, first));
  app.session->done(first);
  runUntil(sec(10));
  ASSERT_EQ(app.started, (std::vector<RequestId>{first, grown}));
  ASSERT_GT(psa.releasedAt.size(), releases);
  EXPECT_EQ(psa.releasedAt[releases], msec(5500));
  const Request* successor = server_.findRequest(grown);
  EXPECT_EQ(successor->scheduledAt, msec(5500));
  EXPECT_EQ(successor->startedAt, msec(5500));
  ASSERT_EQ(std::ssize(successor->nodeIds), 8);
  for (const NodeId& id : kept) {
    EXPECT_NE(std::find(successor->nodeIds.begin(), successor->nodeIds.end(),
                        id),
              successor->nodeIds.end());
  }
  EXPECT_EQ(std::ssize(psa.held), 2);
}

}  // namespace
}  // namespace coorm
