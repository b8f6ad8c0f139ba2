// Request reclamation: the lifetime rule of Server::pruneEnded.
//
// An ended request is reclaimed at the next pass launch unless an unstarted
// request still names it as its NEXT/COALLOC target, it is half of a live
// implicit-wrapper pair, or its end has not been announced yet. Started
// requests that named a reclaimed target lose the link. The suite pins:
//  - the leak regression: an endless NEXT lease chain (the PSA/filler
//    pattern) keeps the server's request count flat;
//  - each keep-condition of the rule, and that a finished chain goes in
//    one pass (journal restore included);
//  - that a NEXT naming a reclaimed request is rejected without side
//    effects, in process and over the wire;
//  - that a rigid job finishing early leaves no walltime event behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "coorm/common/metrics.hpp"
#include "coorm/net/client.hpp"
#include "coorm/net/io_executor.hpp"
#include "coorm/rms/journal.hpp"
#include "coorm/rms/server.hpp"
#include "coorm/sim/engine.hpp"
#include "lease_chain.hpp"
#include "net_harness.hpp"

namespace coorm {
namespace {

using metrics::Gauge;
using testing_support::LeaseChainApp;

const ClusterId kC{0};

std::int64_t liveRequests() { return metrics::value(Gauge::kLiveRequests); }

RequestSpec spec(RequestType type, NodeCount nodes, Time duration,
                 Relation how = Relation::kFree, RequestId to = RequestId{}) {
  RequestSpec s;
  s.cluster = kC;
  s.nodes = nodes;
  s.duration = duration;
  s.type = type;
  s.relatedHow = how;
  s.relatedTo = to;
  return s;
}

/// Records starts and ends; answers expiries with done() like a
/// well-behaved application.
class Recorder : public AppEndpoint {
 public:
  void onStarted(RequestId id, const std::vector<NodeId>& ids) override {
    nodesOf[id] = ids;
  }
  void onExpired(RequestId id) override {
    if (link != nullptr) link->done(id);
  }
  void onEnded(RequestId id) override { ended.push_back(id); }
  void onKilled() override { killed = true; }

  [[nodiscard]] bool started(RequestId id) const {
    return nodesOf.contains(id);
  }

  AppLink* link = nullptr;
  std::map<RequestId, std::vector<NodeId>> nodesOf;
  std::vector<RequestId> ended;
  bool killed = false;
};

bool holdsAll(const std::vector<NodeId>& ids,
              const std::vector<NodeId>& subset) {
  return std::all_of(subset.begin(), subset.end(), [&](const NodeId& id) {
    return std::find(ids.begin(), ids.end(), id) != ids.end();
  });
}

std::string tempJournal(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "coorm_reclaim_" + name + ".journal";
  std::remove(path.c_str());
  return path;
}

// ---------------------------------------------------------------------------
// (a) Leak regression: 10,000 NEXT lease changes.

struct ChainStats {
  int transitions = 0;
  std::int64_t maxLive = 0;
  std::int64_t liveAtEnd = 0;
  bool killed = false;
};

/// At a lease start the server holds that lease and its ended predecessor
/// (reclaimed at the next launch). A pass reads a subset of the live
/// requests, so the same bound holds for what it schedules.
constexpr std::int64_t kLiveBound = 2;

ChainStats runLongChain(bool incremental, int transitions) {
  Engine engine;
  Server::Config config;
  config.reschedInterval = msec(10);
  config.incremental = incremental;
  Server server(engine, Machine::single(16), config);
  const std::int64_t base = liveRequests();

  LeaseChainApp::Config chain;
  chain.maxNodes = 12;
  chain.transitions = transitions;
  chain.hold = msec(10);
  LeaseChainApp app(engine, chain);

  ChainStats stats;
  app.onLeaseStarted = [&] {
    stats.maxLive = std::max(stats.maxLive, liveRequests() - base);
    // Growth by one request per lease shows within a few hundred leases;
    // stop there instead of paying the quadratic cost of the full chain.
    if (stats.maxLive > 8 * kLiveBound) engine.stop();
  };
  app.attach(server);
  // The chain needs ~3 min of virtual time; the bound turns a successor
  // that never starts (the app then ticks forever) into a failure.
  engine.runUntil(hours(1));

  server.runSchedulingPassNow();
  stats.transitions = app.transitions();
  stats.liveAtEnd = liveRequests() - base;
  stats.killed = app.killed();
  return stats;
}

TEST(ServerReclaim, EndlessLeaseChainKeepsRequestCountFlat) {
  constexpr int kTransitions = 10000;
  for (const bool incremental : {false, true}) {
    SCOPED_TRACE(std::string("incremental=") + (incremental ? "on" : "off"));
    const ChainStats stats = runLongChain(incremental, kTransitions);
    EXPECT_FALSE(stats.killed);
    EXPECT_LE(stats.maxLive, kLiveBound);
    EXPECT_GE(stats.transitions, kTransitions);
    // After a final pass only the lease the app still holds is left.
    EXPECT_EQ(stats.liveAtEnd, 1);
  }
}

// ---------------------------------------------------------------------------
// (b) An unstarted NEXT successor keeps its ended predecessor.

TEST(ServerReclaim, NextSuccessorStartsAtPredecessorEndWithInheritedIds) {
  Engine engine;
  Server server(engine, Machine::single(8));
  Recorder app;
  Session* session = server.connect(app);
  app.link = session;
  const std::int64_t base = liveRequests();

  const RequestId lease =
      session->request(spec(RequestType::kPreemptible, 4, kTimeInf));
  engine.runUntil(sec(1));
  ASSERT_TRUE(app.started(lease));

  // Grow: NEXT successor, then end the current lease keeping every ID.
  const RequestId grow = session->request(spec(
      RequestType::kPreemptible, 6, kTimeInf, Relation::kNext, lease));
  session->done(lease, {});
  const Time endedAt = engine.now();
  engine.runUntil(sec(2));

  // The pass that started the successor launched with the predecessor
  // ended and the successor unstarted: it had to keep the predecessor.
  const Request* predecessor = server.findRequest(lease);
  ASSERT_NE(predecessor, nullptr);
  EXPECT_TRUE(predecessor->ended());
  const Request* successor = server.findRequest(grow);
  ASSERT_NE(successor, nullptr);
  ASSERT_TRUE(app.started(grow));
  EXPECT_EQ(successor->startedAt, endedAt);
  EXPECT_EQ(successor->relatedTo, predecessor);
  EXPECT_EQ(app.nodesOf[grow].size(), 6u);
  EXPECT_TRUE(holdsAll(app.nodesOf[grow], app.nodesOf[lease]));

  // Now the successor runs: the next launch reclaims the predecessor and
  // unlinks the successor.
  server.runSchedulingPassNow();
  EXPECT_EQ(server.findRequest(lease), nullptr);
  ASSERT_NE(server.findRequest(grow), nullptr);
  EXPECT_EQ(server.findRequest(grow)->relatedTo, nullptr);
  EXPECT_EQ(liveRequests() - base, 1);
}

TEST(ServerReclaim, WaitingNextSuccessorKeepsPredecessorAcrossPasses) {
  Engine engine;
  Server server(engine, Machine::single(8));
  Recorder app;
  Recorder blocker;
  Session* session = server.connect(app);
  app.link = session;
  blocker.link = server.connect(blocker);

  // The blocker holds half the machine until 30 s; the successor needs all
  // of it, so it waits 20 s past its predecessor's end.
  blocker.link->request(spec(RequestType::kNonPreemptible, 4, sec(30)));
  const RequestId first =
      session->request(spec(RequestType::kNonPreemptible, 4, sec(10)));
  engine.runUntil(sec(1));
  ASSERT_TRUE(app.started(first));
  const RequestId next = session->request(spec(
      RequestType::kNonPreemptible, 8, sec(10), Relation::kNext, first));

  engine.runUntil(sec(20));  // `first` expired at 10 s and was done()
  server.runSchedulingPassNow();
  const Request* predecessor = server.findRequest(first);
  ASSERT_NE(predecessor, nullptr);
  EXPECT_TRUE(predecessor->ended());
  const Request* successor = server.findRequest(next);
  ASSERT_NE(successor, nullptr);
  EXPECT_FALSE(successor->started());
  EXPECT_EQ(successor->relatedTo, predecessor);

  engine.runUntil(sec(31));
  ASSERT_TRUE(app.started(next));
  EXPECT_EQ(server.findRequest(next)->startedAt, sec(30));
  EXPECT_EQ(app.nodesOf[next].size(), 8u);
  EXPECT_TRUE(holdsAll(app.nodesOf[next], app.nodesOf[first]));

  server.runSchedulingPassNow();
  EXPECT_EQ(server.findRequest(first), nullptr);
  EXPECT_EQ(server.findRequest(next)->relatedTo, nullptr);
}

// ---------------------------------------------------------------------------
// (c) A COALLOC child waiting to start keeps its ended parent.

TEST(ServerReclaim, WaitingCoallocChildKeepsEndedParent) {
  Engine engine;
  Server server(engine, Machine::single(8));
  Recorder app;
  Recorder blocker;
  Session* session = server.connect(app);
  app.link = session;
  blocker.link = server.connect(blocker);

  blocker.link->request(spec(RequestType::kNonPreemptible, 4, sec(30)));
  const RequestId parent =
      session->request(spec(RequestType::kNonPreemptible, 4, sec(100)));
  engine.runUntil(sec(1));
  ASSERT_TRUE(app.started(parent));

  // The child is placed from its parent's start; six nodes only fit once
  // the blocker leaves at 30 s, long after the parent ended at 5 s.
  const RequestId child = session->request(spec(
      RequestType::kNonPreemptible, 6, sec(10), Relation::kCoAlloc, parent));
  engine.runUntil(sec(5));
  session->done(parent);
  engine.runUntil(sec(20));
  server.runSchedulingPassNow();

  const Request* kept = server.findRequest(parent);
  ASSERT_NE(kept, nullptr);
  EXPECT_TRUE(kept->ended());
  ASSERT_NE(server.findRequest(child), nullptr);
  EXPECT_FALSE(server.findRequest(child)->started());
  EXPECT_EQ(server.findRequest(child)->relatedTo, kept);

  engine.runUntil(sec(31));
  ASSERT_TRUE(app.started(child));
  EXPECT_EQ(server.findRequest(child)->startedAt, sec(30));
  EXPECT_EQ(app.nodesOf[child].size(), 6u);

  server.runSchedulingPassNow();
  EXPECT_EQ(server.findRequest(parent), nullptr);
  EXPECT_EQ(server.findRequest(child)->relatedTo, nullptr);
}

// ---------------------------------------------------------------------------
// (d) An end not yet announced survives until RESUME re-announces it.

TEST(ServerReclaim, UnannouncedEndSurvivesUntilResume) {
  Engine engine;
  Server server(engine, Machine::single(8));
  Recorder app;
  Session* session = server.connect(app);
  app.link = session;
  const AppId id = session->app();

  // An explicit pre-allocation ends server-side at its expiry.
  const RequestId pa =
      session->request(spec(RequestType::kPreAllocation, 4, sec(5)));
  engine.runUntil(sec(1));
  ASSERT_TRUE(app.started(pa));
  server.detachEndpoint(id);

  engine.runUntil(sec(6));
  server.runSchedulingPassNow();
  const Request* r = server.findRequest(pa);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->ended());
  EXPECT_FALSE(r->endNotified);
  EXPECT_TRUE(app.ended.empty());

  ASSERT_NE(server.resumeSession(id, server.sessionToken(id), app), nullptr);
  engine.runUntil(sec(7));
  EXPECT_EQ(app.ended, std::vector<RequestId>{pa});
  ASSERT_NE(server.findRequest(pa), nullptr);  // announced, not yet a pass

  server.runSchedulingPassNow();
  EXPECT_EQ(server.findRequest(pa), nullptr);
}

// ---------------------------------------------------------------------------
// (e) A finished 16-step chain goes in one pass. Journal replay rebuilds
// every link of it (replay reclaims nothing), and the restored sessions'
// ends stay unannounced until RESUME: the first pass after that reclaims
// the whole chain at once.

/// Runs one filler-style transition: NEXT successor of `nodes`, then end
/// `current` giving back the IDs the successor does not keep.
RequestId transition(Session& session, Recorder& app, RequestId current,
                     NodeCount nodes) {
  const RequestId next = session.request(spec(
      RequestType::kPreemptible, nodes, kTimeInf, Relation::kNext, current));
  const std::vector<NodeId>& held = app.nodesOf[current];
  std::vector<NodeId> released;
  if (std::ssize(held) > nodes) {
    released.assign(held.begin() + nodes, held.end());
  }
  session.done(current, std::move(released));
  return next;
}

TEST(ServerReclaim, FinishedChainIsReclaimedInOnePassAfterRestore) {
  const std::string path = tempJournal("chain");
  std::vector<RequestId> chain;
  AppId app{};
  std::uint64_t token = 0;
  {
    Engine engine;
    rms::Journal journal(path, 0);
    Server server(engine, Machine::single(8));
    server.attachJournal(&journal);
    Recorder recorder;
    Session* session = server.connect(recorder);
    recorder.link = session;
    app = session->app();
    token = server.sessionToken(app);

    chain.push_back(
        session->request(spec(RequestType::kPreemptible, 2, kTimeInf)));
    engine.runUntil(sec(1));
    for (int step = 1; step < 16; ++step) {
      chain.push_back(
          transition(*session, recorder, chain.back(), 2 + step % 4));
      engine.runUntil(engine.now() + sec(1));
      ASSERT_TRUE(recorder.started(chain.back())) << "step " << step;
    }
    session->done(chain.back(), recorder.nodesOf[chain.back()]);
    engine.runUntil(engine.now() + sec(1));
  }  // the server goes away with no shutdown step, as in a crash

  const rms::ScanResult scan = rms::Journal::scan(path);
  ASSERT_FALSE(scan.refused) << scan.diagnostic;
  Engine engine;
  Server server(engine, Machine::single(8));
  const std::int64_t base = liveRequests();
  Time lastTime = kNever;
  std::string error;
  ASSERT_TRUE(server.restoreFromJournal(scan.records, &lastTime, &error))
      << error;
  EXPECT_EQ(liveRequests() - base, 16);
  engine.runUntil(lastTime);
  server.runSchedulingPassNow();
  EXPECT_EQ(liveRequests() - base, 16);  // detached: ends unannounced

  Recorder recorder;
  ASSERT_NE(server.resumeSession(app, token, recorder), nullptr);
  engine.runUntil(engine.now() + 1);
  EXPECT_EQ(recorder.ended.size(), chain.size());

  server.runSchedulingPassNow();
  EXPECT_EQ(liveRequests() - base, 0);
  for (const RequestId id : chain) EXPECT_EQ(server.findRequest(id), nullptr);
  EXPECT_EQ(server.pool().freeCount(kC), 8);
  std::remove(path.c_str());
}

TEST(ServerReclaim, CompactedJournalRestoresClearedLinks) {
  // Compaction after a reclamation writes the running lease's cleared link
  // as -1; a restore from the compacted log continues the chain.
  const std::string path = tempJournal("compacted");
  AppId app{};
  std::uint64_t token = 0;
  RequestId current{};
  std::int64_t liveAtCrash = 0;
  {
    Engine engine;
    rms::Journal journal(path, 0);
    Server server(engine, Machine::single(8));
    server.attachJournal(&journal);
    Recorder recorder;
    Session* session = server.connect(recorder);
    recorder.link = session;
    app = session->app();
    token = server.sessionToken(app);
    const std::int64_t base = liveRequests();

    current = session->request(spec(RequestType::kPreemptible, 3, kTimeInf));
    engine.runUntil(sec(1));
    for (int step = 1; step <= 4; ++step) {
      current = transition(*session, recorder, current, 2 + step % 3);
      engine.runUntil(engine.now() + sec(1));
    }
    server.runSchedulingPassNow();
    ASSERT_EQ(server.findRequest(current)->relatedTo, nullptr);
    server.journalSnapshotNow();
    liveAtCrash = liveRequests() - base;
  }

  const rms::ScanResult scan = rms::Journal::scan(path);
  // Live state only: the counters, the session and the running lease's
  // request and start — none of the reclaimed chain.
  ASSERT_EQ(scan.records.size(), 4u);
  Engine engine;
  Server server(engine, Machine::single(8));
  const std::int64_t base = liveRequests();
  Time lastTime = kNever;
  std::string error;
  ASSERT_TRUE(server.restoreFromJournal(scan.records, &lastTime, &error))
      << error;
  EXPECT_EQ(liveRequests() - base, liveAtCrash);
  const Request* restored = server.findRequest(current);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(restored->started());
  EXPECT_EQ(restored->relatedHow, Relation::kNext);
  EXPECT_EQ(restored->relatedTo, nullptr);
  const std::vector<NodeId> held = restored->nodeIds;
  ASSERT_FALSE(held.empty());

  engine.runUntil(lastTime);
  Recorder recorder;
  Session* session = server.resumeSession(app, token, recorder);
  ASSERT_NE(session, nullptr);
  recorder.link = session;
  engine.runUntil(engine.now() + 1);
  const RequestId next = transition(*session, recorder, current, 5);
  ASSERT_TRUE(next.valid());
  engine.runUntil(engine.now() + sec(1));
  ASSERT_TRUE(recorder.started(next));
  EXPECT_TRUE(holdsAll(recorder.nodesOf[next], held));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// (f) A NEXT naming a reclaimed request is rejected without side effects.

TEST(ServerReclaim, NextNamingReclaimedRequestIsRejected) {
  const std::string path = tempJournal("rejected");
  Engine engine;
  rms::Journal journal(path, 0);
  Server server(engine, Machine::single(8));
  server.attachJournal(&journal);
  Recorder app;
  Session* session = server.connect(app);
  app.link = session;

  const RequestId lease =
      session->request(spec(RequestType::kPreemptible, 2, kTimeInf));
  engine.runUntil(sec(1));
  const RequestId grow = transition(*session, app, lease, 4);
  engine.runUntil(sec(2));
  ASSERT_TRUE(app.started(grow));
  server.runSchedulingPassNow();
  engine.run();
  ASSERT_EQ(server.findRequest(lease), nullptr);

  const std::int64_t live = liveRequests();
  const std::uint64_t bytes = journal.bytes();
  const std::uint64_t passes = server.passCount();
  const RequestId rejected = session->request(spec(
      RequestType::kPreemptible, 3, kTimeInf, Relation::kNext, lease));
  EXPECT_FALSE(rejected.valid());
  EXPECT_EQ(liveRequests(), live);
  EXPECT_EQ(journal.bytes(), bytes);
  EXPECT_TRUE(engine.empty());  // no pass armed
  engine.run();
  EXPECT_EQ(server.passCount(), passes);
  EXPECT_TRUE(server.findRequest(grow)->started());
  std::remove(path.c_str());
}

/// Pumps `loop` until `done` holds (bounded wall time).
template <typename Pred>
bool pumpUntil(net::IoExecutor& loop, Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    loop.runOne(msec(5));
  }
  return true;
}

TEST(ServerReclaim, NextNamingReclaimedRequestIsRejectedOverTheWire) {
  Server::Config config;
  config.reschedInterval = msec(10);
  nettest::DaemonFixture daemon(config, 8);
  net::IoExecutor loop;
  net::RmsClient client(
      loop, net::RmsClient::Config{net::Endpoint{"127.0.0.1", daemon.port()},
                                   "chain"});
  Recorder app;
  app.link = &client;
  client.connect(app);

  const RequestId lease =
      client.request(spec(RequestType::kPreemptible, 2, kTimeInf));
  ASSERT_TRUE(pumpUntil(loop, [&] { return app.started(lease); }));
  const RequestId grow = client.request(spec(
      RequestType::kPreemptible, 4, kTimeInf, Relation::kNext, lease));
  client.done(lease, {});
  ASSERT_TRUE(pumpUntil(loop, [&] { return app.started(grow); }));
  // Any later pass reclaims the predecessor: its successor runs.
  const RequestId other =
      client.request(spec(RequestType::kPreemptible, 1, kTimeInf));
  ASSERT_TRUE(pumpUntil(loop, [&] { return app.started(other); }));

  const std::optional<metrics::Snapshot> before = client.stats();
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ((*before)[Gauge::kLiveRequests], 2);
  const RequestId rejected = client.request(spec(
      RequestType::kPreemptible, 3, kTimeInf, Relation::kNext, lease));
  EXPECT_FALSE(rejected.valid());
  const std::optional<metrics::Snapshot> after = client.stats();
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ((*after)[Gauge::kLiveRequests], 2);
  EXPECT_FALSE(app.killed);

  // The session is intact: a NEXT on the running lease still works.
  const RequestId shrink = client.request(spec(
      RequestType::kPreemptible, 2, kTimeInf, Relation::kNext, grow));
  ASSERT_TRUE(shrink.valid());
  std::vector<NodeId> released(app.nodesOf[grow].begin() + 2,
                               app.nodesOf[grow].end());
  client.done(grow, released);
  ASSERT_TRUE(pumpUntil(loop, [&] { return app.started(shrink); }));
  EXPECT_EQ(app.nodesOf[shrink].size(), 2u);
  client.disconnect();
}

// ---------------------------------------------------------------------------
// Wrapper expiry timers: a rigid job finishing early leaves no event behind.

TEST(ServerReclaim, EarlyDoneCancelsImplicitWrapperExpiry) {
  Engine engine;
  Server server(engine, Machine::single(8));
  Recorder app;
  Session* session = server.connect(app);
  app.link = session;
  const RequestId job =
      session->request(spec(RequestType::kNonPreemptible, 4, sec(100)));
  engine.after(sec(10), [&] { session->done(job); });
  engine.run();
  EXPECT_TRUE(app.started(job));
  EXPECT_EQ(app.ended, std::vector<RequestId>{job});
  // Idle right after the last pass, long before the 100 s walltime.
  EXPECT_LT(engine.now(), sec(20));
}

}  // namespace
}  // namespace coorm
