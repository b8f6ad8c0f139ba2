// Differential suite for the server's scheduling passes.
//
// Each pass runs inline in its timer event, on the executor's thread. The
// suite pins:
//  1. runs are fully deterministic: application-observable output — every
//     endpoint callback with its payload, final node-pool state, pass
//     count — and the server's own protocol trace are *bit-identical*
//     across repeats of one seed, with and without a 1,000-transition
//     lease chain;
//  2. what a pass publishes — views, leases, RESUME deliveries — against
//     the full-recompute reference and a never-detached twin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "coorm/common/metrics.hpp"
#include "coorm/common/rng.hpp"
#include "coorm/rms/journal.hpp"
#include "coorm/rms/server.hpp"
#include "coorm/sim/engine.hpp"
#include "lease_chain.hpp"

namespace coorm {
namespace {

const ClusterId kC0{0};
const ClusterId kC1{1};
/// The lease-chain filler's own cluster: the scripted population keeps the
/// other two full, and a filler with nothing to fill makes no transitions.
const ClusterId kChain{2};

/// A scripted application performing deterministic pseudo-random protocol
/// action bursts, recording everything the server tells it.
class ScriptApp : public AppEndpoint {
 public:
  ScriptApp(Engine& engine, std::uint64_t seed, Time disconnectAt)
      : engine_(engine), rng_(seed), disconnectAt_(disconnectAt) {}

  void attach(Server& server) {
    session_ = server.connect(*this);
    scheduleAction();
    scheduleEnforcement();
    if (disconnectAt_ > 0) {
      engine_.after(disconnectAt_, [this] {
        if (!done_ && !killed_) {
          log("disconnect");
          session_->disconnect();
          done_ = true;
        }
      });
    }
  }

  void onViews(const View& np, const View& p) override {
    npView_ = np;
    pView_ = p;
    log("views np=" + np.toString() + " p=" + p.toString());
    if (!killed_ && !done_) enforcePreemptibleLimit();
  }

  void onStarted(RequestId id, const std::vector<NodeId>& ids) override {
    held_[id] = ids;
    std::ostringstream os;
    os << "started " << toString(id) << " [";
    for (const NodeId& node : ids) os << toString(node) << ' ';
    os << ']';
    log(os.str());
  }

  void onExpired(RequestId id) override {
    log("expired " + toString(id));
    if (session_ != nullptr && !killed_ && !done_) session_->done(id);
  }

  void onEnded(RequestId id) override {
    log("ended " + toString(id));
    held_.erase(id);
  }

  void onKilled() override {
    log("killed");
    killed_ = true;
  }

  [[nodiscard]] const std::vector<std::string>& events() const {
    return events_;
  }

 private:
  void log(const std::string& what) {
    events_.push_back("t=" + std::to_string(engine_.now()) + " " + what);
  }

  void scheduleAction() {
    // Half-second action grid against the server's 1 s re-scheduling
    // interval: a message at X.5 s arms the pass for (X+1).0 s, and the
    // *next* actions scheduled after that arming can land exactly at
    // (X+1).0 s — the pass's own instant, where the executor's same-time
    // scheduling order decides which runs first.
    engine_.after(msec(500) * rng_.uniformInt(1, 8), [this] {
      if (done_ || killed_) return;
      const int burst = static_cast<int>(rng_.uniformInt(1, 3));
      for (int i = 0; i < burst; ++i) act();
      scheduleAction();
    });
  }

  void scheduleEnforcement() {
    engine_.after(sec(2), [this] {
      if (done_ || killed_) return;
      enforcePreemptibleLimit();
      scheduleEnforcement();
    });
  }

  void enforcePreemptibleLimit() {
    for (const ClusterId cid : {kC0, kC1}) {
      const NodeCount allowed = pView_.at(cid, engine_.now());
      NodeCount heldP = 0;
      for (const auto& [id, ids] : held_) {
        if (typeOf_[id] != RequestType::kPreemptible) continue;
        heldP += std::count_if(
            ids.begin(), ids.end(),
            [&](const NodeId& node) { return node.cluster == cid; });
      }
      while (heldP > allowed) {
        RequestId victim{};
        for (const auto& [id, ids] : held_) {
          if (typeOf_[id] == RequestType::kPreemptible && !ids.empty() &&
              ids.front().cluster == cid) {
            victim = id;
            break;
          }
        }
        if (!victim.valid()) break;
        const auto ids = held_[victim];
        heldP -= std::ssize(ids);
        log("release " + toString(victim));
        session_->done(victim, ids);
        held_.erase(victim);
      }
    }
  }

  void act() {
    const ClusterId cid = rng_.uniformInt(0, 3) == 0 ? kC1 : kC0;
    switch (rng_.uniformInt(0, 4)) {
      case 0: {  // non-preemptible request (implicitly wrapped)
        RequestSpec spec;
        spec.cluster = cid;
        spec.nodes = rng_.uniformInt(1, 6);
        spec.duration = sec(rng_.uniformInt(10, 90));
        spec.type = RequestType::kNonPreemptible;
        remember(session_->request(spec), spec.type);
        break;
      }
      case 1: {  // preemptible request, sometimes open-ended
        RequestSpec spec;
        spec.cluster = cid;
        spec.nodes = rng_.uniformInt(1, 6);
        spec.duration =
            rng_.uniformInt(0, 1) ? kTimeInf : sec(rng_.uniformInt(20, 150));
        spec.type = RequestType::kPreemptible;
        remember(session_->request(spec), spec.type);
        break;
      }
      case 2: {  // NEXT-chained follow-up to the most recent request
        if (lastRequest_.valid()) {
          RequestSpec spec;
          spec.cluster = cid;
          spec.nodes = rng_.uniformInt(1, 4);
          spec.duration = sec(rng_.uniformInt(10, 60));
          spec.type = typeOf_[lastRequest_];
          spec.relatedHow = Relation::kNext;
          spec.relatedTo = lastRequest_;
          remember(session_->request(spec), spec.type);
        }
        break;
      }
      case 3: {  // done() something, started or not
        if (!pending_.empty()) {
          const std::size_t index = static_cast<std::size_t>(
              rng_.uniformInt(0, std::ssize(pending_) - 1));
          const RequestId id = pending_[index];
          pending_.erase(pending_.begin() + static_cast<long>(index));
          const auto it = held_.find(id);
          log("done " + toString(id));
          session_->done(id, it != held_.end() ? it->second
                                               : std::vector<NodeId>{});
        }
        break;
      }
      case 4:  // idle
        break;
    }
  }

  void remember(RequestId id, RequestType type) {
    if (!id.valid()) return;
    typeOf_[id] = type;
    pending_.push_back(id);
    lastRequest_ = id;
  }

  Engine& engine_;
  Rng rng_;
  Time disconnectAt_;
  Session* session_ = nullptr;
  View npView_, pView_;
  std::map<RequestId, std::vector<NodeId>> held_;
  std::map<RequestId, RequestType> typeOf_;
  std::vector<RequestId> pending_;
  RequestId lastRequest_{};
  std::vector<std::string> events_;
  bool killed_ = false;
  bool done_ = false;
};

struct Outcome {
  std::vector<std::vector<std::string>> appLogs;
  std::vector<std::string> trace;  ///< "t=<at> <actor>: <what>"
  NodeCount freeC0 = 0;
  NodeCount freeC1 = 0;
  std::uint64_t passes = 0;
  int chainTransitions = 0;
};

/// `chainTransitions` > 0 adds a malleable filler running an endless NEXT
/// lease chain (tests/lease_chain.hpp) on a third cluster next to the
/// scripted applications; its log is the last entry of Outcome::appLogs.
Outcome runScenario(std::uint64_t seed, int napps = 5,
                    Time horizon = minutes(8), int chainTransitions = 0) {
  Engine engine;
  Machine machine;
  machine.clusters.push_back({kC0, 16});
  machine.clusters.push_back({kC1, 8});
  if (chainTransitions > 0) machine.clusters.push_back({kChain, 16});
  Server::Config config;
  config.reschedInterval = sec(1);
  config.violationGrace = sec(5);
  Server server(engine, machine, config);
  Trace trace;
  server.setTrace(&trace);

  Rng rng(seed);
  std::vector<std::unique_ptr<ScriptApp>> apps;
  for (int i = 0; i < napps; ++i) {
    // Some applications leave mid-run; one joins late.
    const Time disconnectAt =
        rng.uniformInt(0, 3) == 0 ? sec(rng.uniformInt(60, 400)) : 0;
    apps.push_back(std::make_unique<ScriptApp>(
        engine, rng.fork().engine()(), disconnectAt));
    if (i + 1 == napps) {
      ScriptApp* late = apps.back().get();
      engine.after(sec(30), [late, &server] { late->attach(server); });
    } else {
      apps.back()->attach(server);
    }
  }

  std::unique_ptr<testing_support::LeaseChainApp> chain;
  if (chainTransitions > 0) {
    testing_support::LeaseChainApp::Config chainConfig;
    chainConfig.cluster = kChain;
    chainConfig.maxNodes = 12;
    chainConfig.transitions = chainTransitions;
    chainConfig.seed = rng.fork().engine()();
    chain = std::make_unique<testing_support::LeaseChainApp>(engine,
                                                             chainConfig);
    chain->attach(server);
  }

  engine.runUntil(horizon);

  Outcome outcome;
  for (const auto& app : apps) outcome.appLogs.push_back(app->events());
  if (chain != nullptr) {
    outcome.appLogs.push_back(chain->events());
    outcome.chainTransitions = chain->transitions();
  }
  for (const Trace::Entry& entry : trace.entries()) {
    outcome.trace.push_back("t=" + std::to_string(entry.at) + " " +
                            entry.actor + ": " + entry.what);
  }
  outcome.freeC0 = server.pool().freeCount(kC0);
  outcome.freeC1 = server.pool().freeCount(kC1);
  outcome.passes = server.passCount();
  return outcome;
}

void expectSameOutput(const Outcome& a, const Outcome& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.appLogs.size(), b.appLogs.size());
  for (std::size_t i = 0; i < a.appLogs.size(); ++i) {
    EXPECT_EQ(a.appLogs[i], b.appLogs[i]) << "app " << i;
  }
  EXPECT_EQ(a.freeC0, b.freeC0);
  EXPECT_EQ(a.freeC1, b.freeC1);
  EXPECT_EQ(a.passes, b.passes);
}

TEST(ServerPipeline, TracesAreDeterministicAcrossRepeats) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) seeds.push_back(seed);
  for (std::uint64_t seed = 11; seed <= 14; ++seed) seeds.push_back(seed);
  for (const std::uint64_t seed : seeds) {
    const Outcome first = runScenario(seed);
    const Outcome repeat = runScenario(seed);
    EXPECT_EQ(first.trace, repeat.trace) << "seed=" << seed;
    expectSameOutput(first, repeat, "repeat seed=" + std::to_string(seed));
  }
}

TEST(ServerPipeline, LeaseChainOutputIsDeterministicAcrossRepeats) {
  // The same scripted population plus a filler whose NEXT lease chain runs
  // past 1,000 transitions: every pass start reclaims ended leases and
  // unlinks running successors.
  constexpr int kTransitions = 1000;
  constexpr std::uint64_t kSeed = 21;
  const Outcome first = runScenario(kSeed, 5, minutes(18), kTransitions);
  EXPECT_GE(first.chainTransitions, kTransitions);
  const Outcome repeat = runScenario(kSeed, 5, minutes(18), kTransitions);
  expectSameOutput(first, repeat, "chain repeat");
  EXPECT_EQ(first.trace, repeat.trace);
}

TEST(ServerPipeline, RunSchedulingPassNowCommits) {
  Engine engine;
  Server server(engine, Machine::single(8));

  class Silent : public AppEndpoint {
  } endpoint;
  Session* session = server.connect(endpoint);
  RequestSpec spec;
  spec.cluster = kC0;
  spec.nodes = 4;
  spec.duration = sec(60);
  spec.type = RequestType::kNonPreemptible;
  const RequestId id = session->request(spec);

  server.runSchedulingPassNow();
  const Request* r = server.findRequest(id);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->started());  // committed: the request actually started
}

TEST(ServerPipeline, SessionAccessorsObserveCommittedViews) {
  Engine engine;
  Server::Config config;
  config.reschedInterval = sec(1);
  Server server(engine, Machine::single(12), config);

  class Silent : public AppEndpoint {
  } endpoint;
  class Silent2 : public AppEndpoint {
  } endpoint2;
  Session* session = server.connect(endpoint);
  Session* observer = server.connect(endpoint2);
  RequestSpec spec;
  spec.cluster = kC0;
  spec.nodes = 4;
  spec.duration = sec(60);
  spec.type = RequestType::kNonPreemptible;
  session->request(spec);
  engine.runUntil(sec(2));

  // The views reflect the committed pass: the other application sees
  // 12 - 4 = 8 non-preemptible nodes while the request runs (its own view
  // adds its own pre-allocated resources back, so it must be read from a
  // second session).
  EXPECT_FALSE(session->killed());
  EXPECT_EQ(observer->nonPreemptiveView().at(kC0, engine.now()), 8);
}

// ---------------------------------------------------------------------------
// Published non-preemptive views: a pass publishes each one as its operand
// pair (free profile, own started pre-allocations) and the server evaluates
// it only where it is read — a push to an attached endpoint,
// Session::nonPreemptiveView(), RESUME.
// ---------------------------------------------------------------------------

RequestSpec specOf(RequestType type, NodeCount nodes, Time duration) {
  RequestSpec spec;
  spec.cluster = kC0;
  spec.nodes = nodes;
  spec.duration = duration;
  spec.type = type;
  return spec;
}

/// Records every view push and start it receives.
class ViewRecorder : public AppEndpoint {
 public:
  void onViews(const View& nonPreemptive, const View& preemptive) override {
    np = nonPreemptive;
    p = preemptive;
    ++pushes;
  }
  void onStarted(RequestId id, const std::vector<NodeId>&) override {
    started.push_back(id);
  }
  View np;
  View p;
  int pushes = 0;
  std::vector<RequestId> started;
};

TEST(ServerPipeline, FreeProfileMovingOnlyWhereTheViewClampsKeepsTheView) {
  // X (first in connection order) holds a started 2-node pre-allocation
  // and nothing else: from its third pass on it is lease-clean. A holds
  // three started 8-node pre-allocations, the later two placed inside its
  // own earlier ones, so the free profile X sees runs at -16 and -8 over
  // their windows and X's view, max(0, 2 + free), clamps at 0 there.
  Engine engine;
  Server server(engine, Machine::single(10));
  ViewRecorder x;
  ViewRecorder a;
  Session* xs = server.connect(x);
  Session* as = server.connect(a);
  xs->request(specOf(RequestType::kPreAllocation, 2, sec(7200)));
  engine.runUntil(sec(2));
  const RequestId pa1 =
      as->request(specOf(RequestType::kPreAllocation, 8, sec(3600)));
  engine.runUntil(sec(4));
  as->request(specOf(RequestType::kPreAllocation, 8, sec(1800)));
  engine.runUntil(sec(6));
  const RequestId pa3 =
      as->request(specOf(RequestType::kPreAllocation, 8, sec(1200)));
  engine.runUntil(sec(7));
  ASSERT_EQ(a.started.size(), 3u);
  const View before = xs->nonPreemptiveView();
  EXPECT_EQ(before.at(kC0, sec(100)), 0);   // 2 + 10 - 2 - 16, clamped
  EXPECT_EQ(before.at(kC0, sec(2000)), 2);  // 2 + 10 - 2 - 8

  // Each step below runs one pass that moves the free profile X sees.
  const auto onePass = [&](const std::function<void()>& step) {
    const std::uint64_t passes = server.passCount();
    step();
    engine.runUntil(engine.now() + sec(2));
    ASSERT_EQ(server.passCount(), passes + 1);
  };
  // The third pre-allocation, started at the last commit, enters the free
  // profile: -8 -> -16 over [6 s, 1206 s), where X's view clamps to 0
  // either way. Ending it moves it back. X's view keeps its value.
  onePass([&] { server.runSchedulingPassNow(); });
  EXPECT_EQ(xs->nonPreemptiveView(), before);
  onePass([&] { as->done(pa3); });
  EXPECT_EQ(xs->nonPreemptiveView(), before);

  // Control: ending the first one lifts the free profile by 8 up to
  // 3602 s, past where X's view clamps (0 -> 2 up to 1804 s, 2 -> 10
  // after).
  onePass([&] { as->done(pa1); });
  EXPECT_EQ(xs->nonPreemptiveView().at(kC0, sec(2000)), 10);
}

TEST(ServerPipeline, CleanAppReadsItsViewAfterFreeProfileChanges) {
  // The incremental server against the full-recompute oracle
  // configuration. D, connected first, places a fresh
  // pre-allocation before each of three passes, moving the free profile
  // that X — clean after its requests started — sees. X reads its view
  // after each of those passes; under ASan a read through a block the
  // scheduler had already released would trip the parked-block poisoning.
  Server::Config oracle;
  oracle.incremental = false;
  Engine engine;
  Engine oracleEngine;
  Server server(engine, Machine::single(32));
  Server reference(oracleEngine, Machine::single(32), oracle);
  ViewRecorder d;
  ViewRecorder x;
  ViewRecorder dRef;
  ViewRecorder xRef;
  Session* ds = server.connect(d);
  Session* xs = server.connect(x);
  Session* dsRef = reference.connect(dRef);
  Session* xsRef = reference.connect(xRef);
  for (Session* s : {xs, xsRef}) {
    s->request(specOf(RequestType::kPreAllocation, 8, sec(3600)));
  }
  engine.runUntil(sec(2));  // X's pre-allocation started
  oracleEngine.runUntil(sec(2));
  server.runSchedulingPassNow();  // re-indexes X: clean from here on
  reference.runSchedulingPassNow();
  engine.runUntil(sec(4));
  oracleEngine.runUntil(sec(4));
  for (int step = 0; step < 3; ++step) {
    const std::uint64_t clean =
        metrics::value(metrics::Event::kPassAppsClean);
    const RequestSpec pa = specOf(RequestType::kPreAllocation, 2 + step,
                                  sec(600 + 300 * step));
    ds->request(pa);
    dsRef->request(pa);
    engine.runUntil(sec(6 + 2 * step));
    oracleEngine.runUntil(sec(6 + 2 * step));
    // X was served from the cache (the oracle server counts nothing).
    EXPECT_EQ(metrics::value(metrics::Event::kPassAppsClean) - clean, 1u)
        << "step " << step;
    const View view = xs->nonPreemptiveView();
    EXPECT_EQ(view, xsRef->nonPreemptiveView()) << "step " << step;
    EXPECT_EQ(view, x.np) << "step " << step;  // what its last push held
  }
}

TEST(ServerPipeline, DetachedSessionMaterializesNothingAndResumesLikeATwin) {
  // Two servers run the same 100-pass script, driven by D's in-process
  // requests while D itself is detached (its ends stay unannounced, and
  // so unreclaimed, in both). In the first, X is detached too: no view is
  // evaluated at all. At RESUME, X receives the views its twin — attached
  // throughout in the second server — holds after the same passes, bit for
  // bit.
  const auto run = [](bool detached, ViewRecorder& x,
                      std::uint64_t* materialized) {
    Engine engine;
    Server server(engine, Machine::single(24));
    ViewRecorder d;
    Session* ds = server.connect(d);
    Session* xs = server.connect(x);
    xs->request(specOf(RequestType::kPreAllocation, 6, sec(100000)));
    engine.runUntil(sec(1));
    const std::uint64_t before =
        metrics::value(metrics::Event::kNpViewsMaterialized);
    server.detachEndpoint(ds->app());
    if (detached) server.detachEndpoint(xs->app());
    const std::uint64_t firstPass = server.passCount();
    for (int i = 0; server.passCount() < firstPass + 100; ++i) {
      ds->request(specOf(RequestType::kPreAllocation, 1 + i % 5,
                         sec(3 + i % 7)));
      engine.runUntil(engine.now() + sec(1));
    }
    *materialized = metrics::value(metrics::Event::kNpViewsMaterialized) - before;
    if (detached) {
      ASSERT_NE(server.resumeSession(xs->app(),
                                     server.sessionToken(xs->app()), x),
                nullptr);
      engine.runUntil(engine.now() + 1);
    }
  };
  ViewRecorder resumed;
  ViewRecorder twin;
  std::uint64_t materialized = 0;
  std::uint64_t twinMaterialized = 0;
  run(/*detached=*/true, resumed, &materialized);
  run(/*detached=*/false, twin, &twinMaterialized);
  EXPECT_EQ(materialized, 0u);
  EXPECT_GT(twinMaterialized, 0u);
  ASSERT_GT(resumed.pushes, 0);
  EXPECT_EQ(resumed.np, twin.np) << resumed.np.toString() << "\nvs\n"
                                 << twin.np.toString();
  EXPECT_EQ(resumed.p, twin.p) << resumed.p.toString() << "\nvs\n"
                               << twin.p.toString();
}

TEST(ServerPipeline, ResumeDeliversTheLatestViewsNotTheLastSent) {
  // A malleable filler holds all ten nodes, then loses its transport. A
  // rigid job's 6-node request shrinks the filler's preemptive view to 4
  // while it is detached. The filler resumes at once and obeys the views
  // it is given: handed the stale ones, it would keep all ten nodes and be
  // killed at the violation grace; handed the latest, it shrinks in time
  // and the job starts.
  Engine engine;
  Server server(engine, Machine::single(10));
  testing_support::LeaseChainApp::Config config;
  config.cluster = kC0;
  config.minNodes = 10;
  config.maxNodes = 10;
  config.transitions = 1;  // then it only ever shrinks, as views demand
  config.hold = sec(1);
  testing_support::LeaseChainApp filler(engine, config);
  filler.attach(server);
  engine.runUntil(sec(3));
  ASSERT_EQ(server.pool().freeCount(kC0), 0);
  const AppId fillerApp{0};
  server.detachEndpoint(fillerApp);

  ViewRecorder rigid;
  Session* job = server.connect(rigid);
  const RequestId id =
      job->request(specOf(RequestType::kNonPreemptible, 6, sec(60)));
  engine.runUntil(sec(4));
  ASSERT_TRUE(rigid.started.empty());  // waits for the filler's nodes

  Session* resumed = server.resumeSession(
      fillerApp, server.sessionToken(fillerApp), filler);
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->preemptiveView().at(kC0, engine.now()), 4);
  engine.runUntil(sec(20));  // well past the violation grace
  EXPECT_FALSE(filler.killed());
  EXPECT_EQ(rigid.started, std::vector<RequestId>{id});
}

TEST(ServerPipeline, ResumeOfAJournalRestoredSessionDeliversItsViews) {
  // A session restored from the journal was never sent a view. The pass
  // the restore armed computes its views while it is detached; RESUME
  // must deliver them — nothing else would, as no pass is armed then.
  const std::string path =
      ::testing::TempDir() + "coorm_pipeline_resume.journal";
  std::remove(path.c_str());
  AppId app{};
  std::uint64_t token = 0;
  {
    Engine engine;
    rms::Journal journal(path, 0);
    Server server(engine, Machine::single(10));
    server.attachJournal(&journal);
    ViewRecorder before;
    Session* session = server.connect(before);
    app = session->app();
    token = server.sessionToken(app);
    session->request(specOf(RequestType::kPreAllocation, 4, sec(3600)));
    engine.runUntil(sec(2));
  }  // no shutdown step, as in a crash

  const rms::ScanResult scan = rms::Journal::scan(path);
  ASSERT_FALSE(scan.refused) << scan.diagnostic;
  Engine engine;
  Server server(engine, Machine::single(10));
  Time lastTime = kNever;
  std::string error;
  ASSERT_TRUE(server.restoreFromJournal(scan.records, &lastTime, &error))
      << error;
  engine.runUntil(lastTime + sec(2));  // the armed pass has committed
  const std::uint64_t passes = server.passCount();
  ASSERT_GT(passes, 0u);

  ViewRecorder after;
  Session* session = server.resumeSession(app, token, after);
  ASSERT_NE(session, nullptr);
  engine.runUntil(engine.now() + 1);
  EXPECT_EQ(server.passCount(), passes);
  ASSERT_EQ(after.pushes, 1);
  EXPECT_EQ(after.np, session->nonPreemptiveView());
  EXPECT_EQ(after.p, session->preemptiveView());
  EXPECT_EQ(after.np.at(kC0, engine.now()), 10);  // own 4 + the free 6
  std::remove(path.c_str());
}

}  // namespace
}  // namespace coorm
