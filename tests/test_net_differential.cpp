// Loopback differential suite: a coorm_rmsd-shaped daemon serving real TCP
// clients must produce the *same per-app event traces* as the in-process
// Server driven by direct function calls — the acceptance bar for the wire
// transport (the paper's simulator/prototype interchangeability, §5, run
// in reverse).
//
// Each scenario is scripted once (reactive actors + externally-ordered
// steps, tests/net_harness.hpp) and executed twice: on the discrete-event
// Engine, and against a daemon thread over 127.0.0.1 with one RmsClient
// per actor. The normalized traces are compared exactly.
//
// Scenario design keeps the runs alignable: every externally-injected
// action is gated on a pass-commit-observable event of some actor, so
// messages fall into the same scheduling passes on both transports (the
// re-scheduling interval, 100 ms here, dwarfs loopback round trips).
#include "net_harness.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "coorm/common/metrics.hpp"

namespace coorm::nettest {
namespace {

Server::Config chainShrinkConfig() {
  Server::Config config;
  config.reschedInterval = msec(100);
  config.violationGrace = sec(5);
  return config;
}

/// Scenario "chain shrink": inside an explicit pre-allocation, a worker
/// runs an 8-node NP request with a 4-node NEXT successor (a planned
/// shrink, §3.1.2): on expiry it releases half of its node ids and the
/// successor inherits the rest; a passive watcher observes the
/// availability changes throughout.
///
/// Alignment rules the script obeys (what makes remote == direct exact):
/// the pre-allocation outlives the whole chain, so no server-side expiry
/// timer arms a pass at the same instant an application round trip is in
/// flight, and the final disconnect waits for the view push of the pass
/// that processed the last done() — in-process, a same-timestamp reaction
/// would beat that pass; over TCP it cannot.
struct ChainShrink {
  ScriptApp worker;
  ScriptApp watcher;
  Scenario scenario;
  int viewsWhenChainEnded = -1;

  void wire(Transport& transport) {
    worker.onFirstViews = [this] {
      RequestSpec prealloc;
      prealloc.nodes = 8;
      prealloc.duration = sec(3);
      prealloc.type = RequestType::kPreAllocation;
      worker.submit(prealloc);  // ordinal 0
      RequestSpec first;
      first.nodes = 8;
      first.duration = msec(500);
      const int o1 = worker.submit(first);  // ordinal 1
      RequestSpec next;
      next.nodes = 4;
      next.duration = msec(500);
      next.relatedHow = Relation::kNext;
      next.relatedTo = worker.submitted[static_cast<std::size_t>(o1)];
      worker.submit(next);  // ordinal 2
    };
    worker.onExpiredHook = [this](int ordinal) {
      if (ordinal == 1) {
        // The shrink: hand back the first half of the granted ids; the
        // NEXT successor inherits the remainder (§3.1.2 node-ID rules).
        const auto& ids = worker.granted[1];
        worker.finish(1, {ids.begin(), ids.begin() + 4});
      } else {
        worker.finish(ordinal);
      }
    };
    worker.onEndedHook = [this](int ordinal) {
      if (ordinal == 2) viewsWhenChainEnded = worker.viewsCount;
    };

    scenario.steps = {
        {[] { return true; },
         [this, &transport] { worker.bind(transport.add(worker, "worker")); }},
        {[this] { return worker.viewsCount >= 1; },
         [this, &transport] {
           watcher.bind(transport.add(watcher, "watcher"));
         }},
        // Leave only after the pass that processed the last done() pushed
        // its views, so the departure lands in a later pass on both
        // transports.
        {[this] {
           return viewsWhenChainEnded >= 0 &&
                  worker.viewsCount > viewsWhenChainEnded;
         },
         [this] { worker.leave(); }},
    };
    scenario.finished = [this] {
      return worker.left && worker.startedCount == 3;
    };
  }
};

Server::Config violationConfig() {
  Server::Config config;
  config.reschedInterval = msec(100);
  config.violationGrace = msec(500);
  return config;
}

/// Scenario "kill after violation": a holder acquires every node
/// preemptibly and then ignores the shrunk preemptive view a claimant's
/// demand forces; past the grace period the RMS kills it and the claimant
/// gets the machine (§3.1.4).
struct KillAfterViolation {
  ScriptApp holder;
  ScriptApp claimant;
  Scenario scenario;

  void wire(Transport& transport) {
    holder.onFirstViews = [this] {
      RequestSpec grab;
      grab.nodes = 8;
      grab.duration = kTimeInf;
      grab.type = RequestType::kPreemptible;
      holder.submit(grab);
    };
    holder.onExpiredHook = [](int) {};  // never answer: the violation
    claimant.onFirstViews = [this] {
      RequestSpec want;
      want.nodes = 8;
      want.duration = kTimeInf;
      want.type = RequestType::kPreemptible;
      claimant.submit(want);
    };

    scenario.steps = {
        {[] { return true; },
         [this, &transport] { holder.bind(transport.add(holder, "holder")); }},
        {[this] { return holder.startedCount >= 1; },
         [this, &transport] {
           claimant.bind(transport.add(claimant, "claimant"));
         }},
    };
    scenario.finished = [this] {
      return holder.killed && claimant.startedCount >= 1;
    };
  }
};

TEST(NetDifferential, ChainShrinkTracesMatchInProcessServer) {
  ChainShrink reference;
  Engine engine;
  Server server(engine, Machine::single(16), chainShrinkConfig());
  InProcessTransport direct(server);
  reference.wire(direct);
  ASSERT_TRUE(runInProcess(engine, reference.scenario))
      << "in-process reference run did not finish";

  ChainShrink remote;
  DaemonFixture daemon(chainShrinkConfig(), 16);
  net::IoExecutor clientLoop;
  LoopbackTransport loopback(clientLoop, daemon.port());
  remote.wire(loopback);
  ASSERT_TRUE(runLoopback(clientLoop, remote.scenario))
      << "loopback run did not finish";

  EXPECT_FALSE(reference.worker.trace.empty());
  EXPECT_EQ(reference.worker.trace, remote.worker.trace);
  EXPECT_EQ(reference.watcher.trace, remote.watcher.trace);

  // The shrink itself: the successor inherited exactly the 4 kept ids.
  ASSERT_EQ(remote.worker.granted.size(), 3u);
  EXPECT_EQ(remote.worker.granted[1].size(), 8u);
  EXPECT_EQ(remote.worker.granted[2].size(), 4u);
}

TEST(NetDifferential, KillAfterViolationTracesMatchInProcessServer) {
  KillAfterViolation reference;
  Engine engine;
  Server server(engine, Machine::single(8), violationConfig());
  InProcessTransport direct(server);
  reference.wire(direct);
  ASSERT_TRUE(runInProcess(engine, reference.scenario))
      << "in-process reference run did not finish";

  KillAfterViolation remote;
  DaemonFixture daemon(violationConfig(), 8);
  net::IoExecutor clientLoop;
  LoopbackTransport loopback(clientLoop, daemon.port());
  remote.wire(loopback);
  ASSERT_TRUE(runLoopback(clientLoop, remote.scenario))
      << "loopback run did not finish";

  EXPECT_FALSE(reference.holder.trace.empty());
  EXPECT_EQ(reference.holder.trace, remote.holder.trace);
  EXPECT_EQ(reference.claimant.trace, remote.claimant.trace);

  EXPECT_TRUE(remote.holder.killed);
  // After the kill the claimant received the whole machine.
  ASSERT_GE(remote.claimant.granted.size(), 1u);
  EXPECT_EQ(remote.claimant.granted[0].size(), 8u);
}

// --- delta pushes vs full pushes ---------------------------------------------

/// The delta transport's acceptance bar, pinned inside a single run (raw
/// views carry absolute breakpoints, so comparing two separately-timed
/// runs would race on millisecond jitter): a watcher that followed the
/// whole chain through spliced VIEWS_DELTA windows must hold views
/// bit-identical — raw View equality, not normalized shapes — to the
/// full-flagged push a fresh verifier session receives from the same
/// live daemon. A splice divergence is permanent (every later delta is
/// diffed against the daemon's idea of the acked state), so if the two
/// observers ever disagree they never converge and the wait times out.
TEST(NetDifferential, DeltaSplicedViewsAreBitIdenticalToAFullPush) {
  ChainShrink chain;
  DaemonFixture daemon(chainShrinkConfig(), 16);
  net::IoExecutor clientLoop;
  LoopbackTransport loopback(clientLoop, daemon.port());
  chain.wire(loopback);
  // Keep the worker attached: the comparison below should see the rich
  // mid-scenario profile (pre-allocation plus the NEXT successor), not
  // the trivial idle machine left after a departure.
  chain.scenario.steps.pop_back();
  chain.scenario.finished = [&chain] {
    return chain.viewsWhenChainEnded >= 0 &&
           chain.worker.viewsCount > chain.viewsWhenChainEnded;
  };
  std::vector<std::pair<View, View>> watcherRaw;
  chain.watcher.onViewsRaw = [&watcherRaw](const View& np, const View& p) {
    watcherRaw.emplace_back(np, p);
  };
  const auto deltasBefore = metrics::value(metrics::Event::kViewsDeltaSent);
  const auto resyncsBefore = metrics::value(metrics::Event::kViewsResync);
  ASSERT_TRUE(runLoopback(clientLoop, chain.scenario))
      << "chain run did not finish";
  ASSERT_GT(watcherRaw.size(), 1u);  // the watcher saw the chain evolve
  EXPECT_GT(metrics::value(metrics::Event::kViewsDeltaSent), deltasBefore)
      << "the watcher never exercised the splice path";

  ScriptApp verifier;
  std::vector<std::pair<View, View>> fullPush;
  verifier.onViewsRaw = [&fullPush](const View& np, const View& p) {
    fullPush.emplace_back(np, p);
  };
  verifier.bind(loopback.add(verifier, "verifier"));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         (fullPush.empty() || watcherRaw.back() != fullPush.back())) {
    clientLoop.runOne(msec(5));
  }
  ASSERT_FALSE(fullPush.empty()) << "the verifier never received views";
  EXPECT_EQ(watcherRaw.back(), fullPush.back());
  EXPECT_EQ(metrics::value(metrics::Event::kViewsResync), resyncsBefore);
}

}  // namespace
}  // namespace coorm::nettest
