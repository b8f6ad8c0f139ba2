// Server/session protocol: connect, request, start notifications, views,
// done, expiry, NEXT transitions, implicit wrapping.
#include <gtest/gtest.h>

#include "coorm/rms/server.hpp"
#include "coorm/sim/engine.hpp"

namespace coorm {
namespace {

const ClusterId kC{0};

/// Endpoint that records everything the RMS tells it.
class TestApp : public AppEndpoint {
 public:
  void onViews(const View& np, const View& p) override {
    nonPreemptive = np;
    preemptive = p;
    ++viewPushes;
  }
  void onStarted(RequestId id, const std::vector<NodeId>& ids) override {
    started.push_back(id);
    nodesOf[id] = ids;
  }
  void onExpired(RequestId id) override {
    expired.push_back(id);
    if (session != nullptr && autoDone) session->done(id);
  }
  void onEnded(RequestId id) override { ended.push_back(id); }
  void onKilled() override { killed = true; }
  bool killed = false;

  [[nodiscard]] bool hasStarted(RequestId id) const {
    return std::find(started.begin(), started.end(), id) != started.end();
  }
  [[nodiscard]] bool hasEnded(RequestId id) const {
    return std::find(ended.begin(), ended.end(), id) != ended.end();
  }

  Session* session = nullptr;
  bool autoDone = true;
  View nonPreemptive, preemptive;
  int viewPushes = 0;
  std::vector<RequestId> started, expired, ended;
  std::map<RequestId, std::vector<NodeId>> nodesOf;
};

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : server_(engine_, Machine::single(10), config()) {}

  static Server::Config config() {
    Server::Config c;
    c.reschedInterval = sec(1);
    c.violationGrace = sec(5);
    return c;
  }

  Session* connect(TestApp& app) {
    Session* s = server_.connect(app);
    app.session = s;
    return s;
  }

  static RequestSpec np(NodeCount nodes, Time duration,
                        Relation how = Relation::kFree,
                        RequestId to = RequestId{}) {
    RequestSpec spec;
    spec.cluster = kC;
    spec.nodes = nodes;
    spec.duration = duration;
    spec.type = RequestType::kNonPreemptible;
    spec.relatedHow = how;
    spec.relatedTo = to;
    return spec;
  }

  Engine engine_;
  Server server_;
};

TEST_F(ServerTest, ConnectPushesInitialViews) {
  TestApp app;
  connect(app);
  engine_.run();
  EXPECT_GE(app.viewPushes, 1);
  EXPECT_EQ(app.nonPreemptive.at(kC, 0), 10);
  EXPECT_EQ(app.preemptive.at(kC, 0), 10);
}

TEST_F(ServerTest, SimpleNpRequestStartsImmediately) {
  TestApp app;
  Session* s = connect(app);
  engine_.run();
  const RequestId id = s->request(np(4, sec(60)));
  engine_.run();
  EXPECT_TRUE(app.hasStarted(id));
  EXPECT_EQ(app.nodesOf[id].size(), 4u);
  // ... and ends at its deadline (the app's default onExpired calls done).
  EXPECT_TRUE(app.hasEnded(id));
  EXPECT_GE(engine_.now(), sec(60));
  EXPECT_EQ(server_.pool().freeCount(kC), 10);
}

TEST_F(ServerTest, RequestLargerThanMachineNeverStarts) {
  TestApp app;
  Session* s = connect(app);
  engine_.run();
  const RequestId id = s->request(np(11, sec(60)));
  engine_.runUntil(sec(100));
  EXPECT_FALSE(app.hasStarted(id));
}

TEST_F(ServerTest, SecondRequestQueuesBehindFirst) {
  TestApp a, b;
  Session* sa = connect(a);
  Session* sb = connect(b);
  engine_.run();
  const RequestId ra = sa->request(np(8, sec(60)));
  const RequestId rb = sb->request(np(8, sec(30)));
  engine_.runUntil(sec(10));
  EXPECT_TRUE(a.hasStarted(ra));
  EXPECT_FALSE(b.hasStarted(rb));
  engine_.runUntil(sec(70));
  EXPECT_TRUE(b.hasStarted(rb));
}

TEST_F(ServerTest, BackfillSmallerJob) {
  TestApp a, b, c;
  Session* sa = connect(a);
  Session* sb = connect(b);
  Session* sc = connect(c);
  engine_.run();
  sa->request(np(8, sec(100)));
  sb->request(np(8, sec(100)));       // queued until t=100
  const RequestId rc = sc->request(np(2, sec(50)));  // fits beside a now
  engine_.runUntil(sec(5));
  EXPECT_TRUE(c.hasStarted(rc));
}

TEST_F(ServerTest, DoneFreesResourcesEarly) {
  TestApp a, b;
  Session* sa = connect(a);
  Session* sb = connect(b);
  engine_.run();
  const RequestId ra = sa->request(np(8, sec(100)));
  const RequestId rb = sb->request(np(8, sec(10)));
  engine_.runUntil(sec(5));
  ASSERT_TRUE(a.hasStarted(ra));
  sa->done(ra);
  engine_.runUntil(sec(10));
  EXPECT_TRUE(b.hasStarted(rb));
  EXPECT_TRUE(a.hasEnded(ra));
}

TEST_F(ServerTest, CancelUnstartedRequest) {
  TestApp a, b;
  Session* sa = connect(a);
  Session* sb = connect(b);
  engine_.run();
  sa->request(np(8, sec(100)));
  const RequestId rb = sb->request(np(8, sec(10)));
  engine_.runUntil(sec(5));
  EXPECT_FALSE(b.hasStarted(rb));
  sb->done(rb);  // cancel while queued
  engine_.runUntil(sec(10));
  EXPECT_TRUE(b.hasEnded(rb));
  EXPECT_FALSE(b.hasStarted(rb));
}

TEST_F(ServerTest, NextGrowTransition) {
  TestApp app;
  Session* s = connect(app);
  app.autoDone = false;
  engine_.run();
  const RequestId r1 = s->request(np(3, sec(100)));
  engine_.runUntil(sec(5));
  ASSERT_TRUE(app.hasStarted(r1));
  const auto firstNodes = app.nodesOf[r1];

  // Spontaneous update: request more, then done the current request.
  const RequestId r2 = s->request(np(6, sec(100), Relation::kNext, r1));
  s->done(r1);
  engine_.runUntil(sec(10));
  ASSERT_TRUE(app.hasStarted(r2));
  const auto& grown = app.nodesOf[r2];
  EXPECT_EQ(grown.size(), 6u);
  // The original nodes were kept (shared resources, §3.1.2).
  for (const NodeId& n : firstNodes) {
    EXPECT_NE(std::find(grown.begin(), grown.end(), n), grown.end());
  }
}

TEST_F(ServerTest, NextShrinkReleasesChosenIds) {
  TestApp app;
  Session* s = connect(app);
  app.autoDone = false;
  engine_.run();
  const RequestId r1 = s->request(np(6, sec(100)));
  engine_.runUntil(sec(5));
  ASSERT_TRUE(app.hasStarted(r1));
  auto nodes = app.nodesOf[r1];

  const RequestId r2 = s->request(np(4, sec(100), Relation::kNext, r1));
  // Release the *last two* specifically.
  std::vector<NodeId> released(nodes.end() - 2, nodes.end());
  s->done(r1, released);
  engine_.runUntil(sec(10));
  ASSERT_TRUE(app.hasStarted(r2));
  const auto& kept = app.nodesOf[r2];
  EXPECT_EQ(kept.size(), 4u);
  for (const NodeId& n : released) {
    EXPECT_EQ(std::find(kept.begin(), kept.end(), n), kept.end());
  }
  EXPECT_EQ(server_.pool().freeCount(kC), 6);
}

TEST_F(ServerTest, ShrinkSuccessorStartsAtItsPredecessorsDone) {
  // An app that answers onExpired by ending the request and giving back
  // the IDs its NEXT shrink successor does not keep.
  class Shrinker final : public TestApp {
   public:
    explicit Shrinker(const Executor& exec) : exec_(exec) {}
    void onExpired(RequestId id) override {
      expired.push_back(id);
      doneAt = exec_.now();
      const std::vector<NodeId>& held = nodesOf[id];
      session->done(id, std::vector<NodeId>(held.begin() + 4, held.end()));
    }
    Time doneAt = kNever;

   private:
    const Executor& exec_;
  };
  Shrinker app(engine_);
  Session* s = connect(app);
  engine_.run();
  const RequestId r1 = s->request(np(6, sec(10)));
  engine_.runUntil(msec(10500));
  ASSERT_TRUE(app.hasStarted(r1));
  ASSERT_EQ(server_.findRequest(r1)->plannedEnd(), sec(11));

  // The pass this request arms (at 10.5 s) places the successor at r1's
  // end. At that end the app answers onExpired with a DONE; the successor
  // starts on it, with the IDs r1 kept, not at the pass the DONE arms
  // (11.5 s).
  const RequestId r2 = s->request(np(4, sec(100), Relation::kNext, r1));
  engine_.runUntil(sec(20));
  EXPECT_EQ(app.expired, std::vector<RequestId>{r1});
  EXPECT_EQ(app.doneAt, sec(11));
  ASSERT_TRUE(app.hasStarted(r2));
  EXPECT_EQ(server_.findRequest(r2)->startedAt, sec(11));
  const std::vector<NodeId>& first = app.nodesOf[r1];
  EXPECT_EQ(app.nodesOf[r2],
            std::vector<NodeId>(first.begin(), first.begin() + 4));
  EXPECT_EQ(server_.pool().freeCount(kC), 6);
}

TEST_F(ServerTest, ExpiredRequestAsksAppAndEnds) {
  TestApp app;
  Session* s = connect(app);
  engine_.run();
  const RequestId id = s->request(np(2, sec(30)));
  engine_.run();
  EXPECT_EQ(app.expired, std::vector<RequestId>{id});
  EXPECT_TRUE(app.hasEnded(id));
}

TEST_F(ServerTest, IgnoringExpiryGetsTheAppKilled) {
  TestApp app;
  app.autoDone = false;  // protocol violation: never answers onExpired
  Session* s = connect(app);
  engine_.run();
  s->request(np(2, sec(30)));
  engine_.runUntil(sec(36));  // 30s + 5s grace + slack
  EXPECT_TRUE(app.killed);
  EXPECT_EQ(server_.pool().freeCount(kC), 10);  // resources reclaimed
}

TEST_F(ServerTest, RequestAtAPreAllocationsEndStartsWhenItExpires) {
  // A's explicit pre-allocation fills the machine for 100 s, so the pass
  // places B's request at its end. The pre-allocation's expiry frees the
  // capacity and nothing else happens: B must start right then, not wait
  // for a later message to arm a pass.
  TestApp a, b;
  Session* sa = connect(a);
  Session* sb = connect(b);
  RequestSpec pa = np(10, sec(100));
  pa.type = RequestType::kPreAllocation;
  const RequestId held = sa->request(pa);
  const RequestId job = sb->request(np(5, sec(60)));
  engine_.runUntil(sec(2));
  ASSERT_TRUE(a.hasStarted(held));
  const Request* r = server_.findRequest(job);
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->scheduledAt, sec(100));
  ASSERT_FALSE(r->started());

  const std::uint64_t atRelease =
      metrics::value(metrics::Event::kStartsAtRelease);
  engine_.runUntil(sec(101));
  EXPECT_TRUE(a.hasEnded(held));
  ASSERT_TRUE(b.hasStarted(job));
  EXPECT_EQ(r->startedAt, sec(100));
  EXPECT_EQ(metrics::value(metrics::Event::kStartsAtRelease) - atRelease, 1u);
}

TEST_F(ServerTest, ImplicitWrapperPreallocationIsCreated) {
  TestApp app;
  Session* s = connect(app);
  engine_.run();
  const RequestId id = s->request(np(4, sec(60)));
  engine_.runUntil(sec(1));
  const Request* r = server_.findRequest(id);
  ASSERT_NE(r, nullptr);
  // The bare NP request was re-anchored on an implicit PA (§3.2).
  ASSERT_NE(r->relatedTo, nullptr);
  EXPECT_EQ(r->relatedTo->type, RequestType::kPreAllocation);
  EXPECT_TRUE(r->relatedTo->implicit);
}

TEST_F(ServerTest, ViewsShowOtherAppsLoad) {
  TestApp a, b;
  Session* sa = connect(a);
  connect(b);
  engine_.run();
  sa->request(np(6, sec(100)));
  engine_.runUntil(sec(2));
  // b's non-preemptive view shows 4 nodes now and 10 after t=100... the
  // implicit PA covers [start, start+100).
  EXPECT_EQ(b.nonPreemptive.at(kC, sec(2)), 4);
  EXPECT_EQ(b.nonPreemptive.at(kC, sec(200)), 10);
}

TEST_F(ServerTest, DisconnectReleasesEverything) {
  TestApp app;
  Session* s = connect(app);
  engine_.run();
  s->request(np(5, sec(1000)));
  engine_.runUntil(sec(2));
  EXPECT_EQ(server_.pool().freeCount(kC), 5);
  s->disconnect();
  engine_.runUntil(sec(4));
  EXPECT_EQ(server_.pool().freeCount(kC), 10);
}

TEST_F(ServerTest, ReschedulingIntervalCoalescesPasses) {
  TestApp app;
  Session* s = connect(app);
  engine_.run();
  const auto before = server_.passCount();
  // A burst of messages within the same second...
  for (int i = 0; i < 5; ++i) {
    s->request(np(1, sec(10)));
  }
  engine_.runUntil(engine_.now());  // same-instant events only
  // ...triggers at most one extra pass immediately; the rest coalesce.
  EXPECT_LE(server_.passCount(), before + 1);
  engine_.runUntil(satAdd(engine_.now(), sec(2)));
  EXPECT_GE(server_.passCount(), before + 1);
}

TEST_F(ServerTest, DeterministicReplay) {
  auto runOnce = [] {
    Engine engine;
    Server server(engine, Machine::single(10), config());
    TestApp a, b;
    Session* sa = server.connect(a);
    a.session = sa;
    Session* sb = server.connect(b);
    b.session = sb;
    engine.run();
    sa->request(np(7, sec(40)));
    sb->request(np(5, sec(20)));
    engine.run();
    return std::make_tuple(a.started.size(), b.started.size(), engine.now());
  };
  EXPECT_EQ(runOnce(), runOnce());
}

}  // namespace
}  // namespace coorm
