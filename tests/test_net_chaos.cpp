// Chaos differential suite: SIGKILL the daemon mid-run, restart it on the
// same journal, and require that the application-observed traces come out
// *identical* to an uninterrupted in-process serial server — the crash
// never happened as far as any client can tell.
//
// Two kill points (the acceptance bar asks for at least two distinct
// ones):
//  - between pass commits: a request is running (its start is journaled
//    and fsync'd before the client ever hears "started"), the daemon dies,
//    and the restarted daemon must re-arm its expiry on the recovered
//    clock and serve the rest of its life normally;
//  - mid-handshake: a second application's connect() spans the kill and
//    the restart — its dial/HELLO retries (client backoff policy) bridge
//    the outage, while the first application RESUMEs its session;
//  - after a reclaiming compaction: a 1,000-transition filler lease chain
//    is killed once the journal has been compacted behind a pass that
//    reclaimed ended leases, so the restart replays running leases whose
//    predecessor links were cleared (written as -1).
//
// Alignment: all injected chaos is gated on client-observed post-commit
// events (a started/ended line in a trace), so both runs decompose into
// the same sequence of scheduling decisions. Re-announced notifications
// after a RESUME are deduplicated client-side; the traces would show the
// duplication otherwise.
#include "net_harness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace coorm::nettest {
namespace {

bool contains(const std::vector<std::string>& trace, const std::string& line) {
  return std::find(trace.begin(), trace.end(), line) != trace.end();
}

std::size_t eventIndex(metrics::Event event) {
  return static_cast<std::size_t>(event);
}

/// The in-process reference's config, matching the daemons' flags below.
Server::Config chaosConfig() {
  Server::Config config;
  config.reschedInterval = msec(100);
  config.violationGrace = sec(5);
  return config;
}

// The chaos daemons run the full c100k serving path: the epoll loop,
// delta view pushes and write coalescing — a SIGKILL/restart must be
// invisible through all three (the restarted daemon knows nothing of the
// old delta sequence, so every resumed session restarts from a full push).
const std::vector<std::string> kDaemonArgs = {
    "--nodes", "16", "--resched", "0.1", "--resume-grace", "30"};

std::string journalPath(const std::string& name) {
  const std::string path = testing::TempDir() + "coorm_chaos_" + name + ".journal";
  std::remove(path.c_str());
  return path;
}

/// Transport whose clients survive daemon death: reconnect + RESUME with
/// fast backoff, and enough dial attempts to bridge a restart window.
class ReconnectTransport final : public Transport {
 public:
  ReconnectTransport(net::IoExecutor& executor, std::uint16_t port)
      : executor_(executor), port_(port) {}

  AppLink& add(AppEndpoint& endpoint, const std::string& name) override {
    net::RmsClient::Config config{net::Endpoint{"127.0.0.1", port_}, name};
    config.rpcTimeout = sec(20);
    config.reconnect = true;
    config.connectAttempts = 400;
    config.backoffBase = msec(5);
    config.backoffMax = msec(100);
    auto client = std::make_unique<net::RmsClient>(executor_, config);
    client->connect(endpoint);
    clients.push_back(std::move(client));
    return *clients.back();
  }

  std::vector<std::unique_ptr<net::RmsClient>> clients;

 private:
  net::IoExecutor& executor_;
  std::uint16_t port_;
};

/// One app submits a 1.5 s non-preemptible request and rides it to the
/// end; `atStarted` (remote runs only) injects the kill once the start is
/// known committed.
struct SoloRun {
  ScriptApp app;
  Scenario scenario;
  std::function<void()> atStarted;

  void wire(Transport& transport) {
    app.onFirstViews = [this] {
      RequestSpec spec;
      spec.nodes = 4;
      spec.duration = msec(1500);
      app.submit(spec);
    };
    scenario.steps = {
        {[] { return true; },
         [this, &transport] { app.bind(transport.add(app, "solo")); }},
        {[this] { return app.startedCount >= 1; },
         [this] {
           if (atStarted) atStarted();
         }},
    };
    scenario.finished = [this] { return contains(app.trace, "ended #0"); };
  }
};

/// Two apps: alpha runs a long request; beta joins only after alpha's
/// start — in the chaos run that join spans the kill/restart window.
struct PairRun {
  ScriptApp alpha;
  ScriptApp beta;
  Scenario scenario;
  std::function<void()> atAlphaStarted;

  void wire(Transport& transport) {
    alpha.onFirstViews = [this] {
      RequestSpec spec;
      spec.nodes = 6;
      spec.duration = msec(2000);
      alpha.submit(spec);
    };
    beta.onFirstViews = [this] {
      RequestSpec spec;
      spec.nodes = 4;
      spec.duration = msec(800);
      beta.submit(spec);
    };
    scenario.steps = {
        {[] { return true; },
         [this, &transport] { alpha.bind(transport.add(alpha, "alpha")); }},
        {[this] { return alpha.startedCount >= 1; },
         [this, &transport] {
           if (atAlphaStarted) atAlphaStarted();
           beta.bind(transport.add(beta, "beta"));
         }},
    };
    scenario.finished = [this] {
      return contains(alpha.trace, "ended #0") &&
             contains(beta.trace, "ended #0");
    };
  }
};

TEST(NetChaos, KillBetweenPassCommitsMatchesUninterruptedServer) {
  SoloRun reference;
  Engine engine;
  Server server(engine, Machine::single(16), chaosConfig());
  InProcessTransport direct(server);
  reference.wire(direct);
  ASSERT_TRUE(runInProcess(engine, reference.scenario))
      << "in-process reference run did not finish";

  ChildDaemon daemon(COORM_RMSD_PATH, journalPath("passes"), kDaemonArgs);
  daemon.start();
  SoloRun remote;
  // The kill point: the client has observed "started", which the daemon
  // only sends after the pass commit fsync'd the start record — so the
  // journal provably holds the running request when SIGKILL lands.
  remote.atStarted = [&daemon] { daemon.restart(); };
  net::IoExecutor clientLoop;
  ReconnectTransport transport(clientLoop, daemon.port());
  remote.wire(transport);
  ASSERT_TRUE(runLoopback(clientLoop, remote.scenario, msec(600), sec(60)))
      << "chaos run did not finish";

  EXPECT_FALSE(reference.app.trace.empty());
  EXPECT_EQ(reference.app.trace, remote.app.trace);
  EXPECT_GE(transport.clients[0]->reconnects(), 1u);

  // Satellite (f): the restarted daemon's own counters report the
  // recovery — what `coorm_rmsd --stats --connect` prints.
  net::RmsClient statsq(
      clientLoop,
      net::RmsClient::Config{net::Endpoint{"127.0.0.1", daemon.port()},
                             "statsq"});
  statsq.dial();
  const auto stats = statsq.stats();
  statsq.disconnect();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->events[eventIndex(metrics::Event::kJournalRecordsReplayed)],
            0u);
  EXPECT_GE(stats->events[eventIndex(metrics::Event::kSessionsResumed)], 1u);
  EXPECT_GE(stats->events[eventIndex(metrics::Event::kReconnects)], 1u);
  // The journal path really hit the disk after the restart: every commit
  // appends bytes and lands an fsync barrier, and the fsync latency
  // histogram saw the same barriers (wire v4 carries it end to end).
  EXPECT_GT(stats->events[eventIndex(metrics::Event::kJournalBytesAppended)],
            0u);
  EXPECT_GT(stats->events[eventIndex(metrics::Event::kJournalFsyncs)], 0u);
  const metrics::HistogramData& fsync =
      stats->histos[static_cast<std::size_t>(metrics::Histo::kJournalFsyncUs)];
  EXPECT_GT(fsync.count, 0u);
  EXPECT_GT(fsync.totalInBuckets(), 0u);
}

/// Steady-state lease scenario: `holder` takes two open-ended preemptible
/// leases plus one long finite request and then goes quiet — every
/// subsequent pass sees it epoch-clean and all-started. `ticker` keeps the
/// pass cadence alive with a chain of short requests, so those passes
/// classify the holder as a lease. Releasing lease #1 and then killing the
/// daemon places the SIGKILL mid-steady-state with lease #0 still held and
/// lease #1 freshly ended.
struct LeaseRun {
  ScriptApp holder;
  ScriptApp ticker;
  Scenario scenario;
  std::function<void()> atSteadyState;

  void wire(Transport& transport) {
    holder.onFirstViews = [this] {
      RequestSpec lease;
      lease.nodes = 4;
      lease.duration = kTimeInf;
      lease.type = RequestType::kPreemptible;
      holder.submit(lease);  // #0: held across the kill
      lease.nodes = 2;
      holder.submit(lease);  // #1: released just before the kill
      RequestSpec finite;
      finite.nodes = 3;
      finite.duration = msec(4000);
      finite.type = RequestType::kNonPreemptible;
      holder.submit(finite);  // #2: its expiry spans the kill/restart
    };
    const auto tick = [this] {
      RequestSpec spec;
      spec.nodes = 2;
      spec.duration = msec(500);
      spec.type = RequestType::kNonPreemptible;
      ticker.submit(spec);
    };
    ticker.onFirstViews = tick;
    // Each resubmission waits for the views push that follows the previous
    // request's end: the real daemon commits a pass in the wire round-trip
    // gap between END and the next SUBMIT, so the reference run must leave
    // the same gap or the traces diverge on those interim pushes.
    const auto endedAndSettled = [](const ScriptApp& app, const char* mark) {
      return contains(app.trace, mark) && !app.trace.empty() &&
             app.trace.back().rfind("views", 0) == 0;
    };
    scenario.steps = {
        {[] { return true; },
         [this, &transport] { holder.bind(transport.add(holder, "holder")); }},
        {[this] { return holder.startedCount >= 3; },
         [this, &transport] { ticker.bind(transport.add(ticker, "ticker")); }},
        {[this] { return ticker.startedCount >= 1; },
         [this] { holder.finish(1); }},
        {[this] { return contains(holder.trace, "ended #1"); },
         [this] {
           if (atSteadyState) atSteadyState();
         }},
        {[this, endedAndSettled] {
           return endedAndSettled(ticker, "ended #0");
         },
         tick},
        {[this, endedAndSettled] {
           return endedAndSettled(ticker, "ended #1");
         },
         tick},
    };
    scenario.finished = [this] {
      return contains(holder.trace, "ended #2") &&
             contains(ticker.trace, "ended #2");
    };
  }
};

TEST(NetChaos, KillMidSteadyStateWithLeasesMatchesPristineServer) {
  // Reference: pristine serial full-recompute server, uninterrupted.
  LeaseRun reference;
  Engine engine;
  Server::Config pristine = chaosConfig();
  pristine.incremental = false;
  Server server(engine, Machine::single(16), pristine);
  InProcessTransport direct(server);
  reference.wire(direct);
  ASSERT_TRUE(runInProcess(engine, reference.scenario))
      << "in-process reference run did not finish";

  // Chaos run: the daemon keeps its defaults — incremental passes on —
  // so the kill lands while leases are being renewed from the scheduler's
  // cache, and the restart must rebuild that state from the journal alone.
  ChildDaemon daemon(COORM_RMSD_PATH, journalPath("leases"), kDaemonArgs);
  daemon.start();
  LeaseRun remote;
  remote.atSteadyState = [&daemon] { daemon.restart(); };
  net::IoExecutor clientLoop;
  ReconnectTransport transport(clientLoop, daemon.port());
  remote.wire(transport);
  ASSERT_TRUE(runLoopback(clientLoop, remote.scenario, msec(600), sec(60)))
      << "chaos run did not finish";

  EXPECT_FALSE(reference.holder.trace.empty());
  EXPECT_EQ(reference.holder.trace, remote.holder.trace);
  EXPECT_EQ(reference.ticker.trace, remote.ticker.trace);
  EXPECT_GE(transport.clients[0]->reconnects(), 1u);

  // No stale-lease resurrection: the lease released before the kill
  // started exactly once and never re-started after its end.
  const auto startsOf = [](const std::vector<std::string>& trace,
                           const std::string& needle) {
    return std::count_if(trace.begin(), trace.end(),
                         [&](const std::string& line) {
                           return line.find(needle) != std::string::npos;
                         });
  };
  EXPECT_EQ(startsOf(remote.holder.trace, "started #1"), 1);
  EXPECT_EQ(startsOf(remote.holder.trace, "ended #1"), 1);

  // The restarted daemon really ran incremental steady state: the ticker's
  // passes classified the quiet holder as an epoch-clean lease (skipped on
  // recapture and fed through the renew/preempt lease path) after the
  // journal replay rebuilt its sessions.
  net::RmsClient statsq(
      clientLoop,
      net::RmsClient::Config{net::Endpoint{"127.0.0.1", daemon.port()},
                             "statsq"});
  statsq.dial();
  const auto stats = statsq.stats();
  statsq.disconnect();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->events[eventIndex(metrics::Event::kJournalRecordsReplayed)],
            0u);
  EXPECT_GT(stats->events[eventIndex(metrics::Event::kPassAppsClean)], 0u);
  EXPECT_GT(stats->events[eventIndex(metrics::Event::kLeasesRenewed)] +
                stats->events[eventIndex(metrics::Event::kLeasesPreempted)],
            0u);
}

/// Filler lease chain (the PSA/filler pattern): every start immediately
/// triggers the next transition — a NEXT successor of the next size, then
/// the end of the current lease naming the node IDs the successor does not
/// keep. On a 1024-node machine with leases of 256–1024 nodes every start
/// record carries kilobytes of node IDs, so the journal crosses its 1 MiB
/// compaction threshold every ~150 transitions; each such compaction runs
/// at a pass commit, right after that pass's launch reclaimed the chain's
/// ended leases.
struct ChainRun {
  static constexpr int kTransitions = 1000;
  ScriptApp filler;
  Scenario scenario;
  /// Fires once the client has seen lease `kKillAfter` end (its successor
  /// is acked and its end journaled); remote runs kill the daemon here.
  static constexpr int kKillAfter = 600;
  std::function<void()> atKillPoint;

  static NodeCount sizeOf(int ordinal) {
    return 256 + (static_cast<NodeCount>(ordinal) * 397) % 769;
  }

  void wire(Transport& transport) {
    filler.onFirstViews = [this] {
      RequestSpec lease;
      lease.nodes = sizeOf(0);
      lease.duration = kTimeInf;
      lease.type = RequestType::kPreemptible;
      filler.submit(lease);
    };
    filler.onStartedHook = [this](int o) {
      if (o < 0 || o >= kTransitions) return;
      RequestSpec next;
      next.nodes = sizeOf(o + 1);
      next.duration = kTimeInf;
      next.type = RequestType::kPreemptible;
      next.relatedHow = Relation::kNext;
      next.relatedTo = filler.submitted[static_cast<std::size_t>(o)];
      filler.submit(next);
      const std::vector<NodeId>& held =
          filler.granted[static_cast<std::size_t>(o)];
      std::vector<NodeId> released;
      if (std::ssize(held) > next.nodes) {
        released.assign(held.begin() + next.nodes, held.end());
      }
      filler.finish(o, std::move(released));
    };
    const std::string killMark = "ended #" + std::to_string(kKillAfter);
    scenario.steps = {
        {[] { return true; },
         [this, &transport] { filler.bind(transport.add(filler, "filler")); }},
        {[this, killMark] { return contains(filler.trace, killMark); },
         [this] {
           if (atKillPoint) atKillPoint();
         }},
    };
    scenario.finished = [this] {
      return filler.startedCount > kTransitions;
    };
  }
};

TEST(NetChaos, KillAfterReclaimingCompactionMatchesUninterruptedServer) {
  Server::Config config = chaosConfig();
  config.reschedInterval = msec(10);
  ChainRun reference;
  Engine engine;
  Server server(engine, Machine::single(1024), config);
  InProcessTransport direct(server);
  reference.wire(direct);
  ASSERT_TRUE(runInProcess(engine, reference.scenario))
      << "in-process reference run did not finish";

  ChildDaemon daemon(COORM_RMSD_PATH, journalPath("chain"),
                     {"--nodes", "1024", "--resched", "0.01",
                      "--resume-grace", "30"});
  daemon.start();
  net::IoExecutor clientLoop;
  std::uint64_t compactionsBeforeKill = 0;
  ChainRun remote;
  // The kill point: the journal has been compacted (a snapshot holding the
  // running leases with their reclaimed predecessors' links written as -1)
  // and has grown records since; the restarted daemon replays both.
  remote.atKillPoint = [&] {
    net::RmsClient statsq(
        clientLoop,
        net::RmsClient::Config{net::Endpoint{"127.0.0.1", daemon.port()},
                               "statsq"});
    statsq.dial();
    const auto stats = statsq.stats();
    statsq.disconnect();
    if (stats.has_value()) {
      compactionsBeforeKill =
          stats->events[eventIndex(metrics::Event::kJournalCompactions)];
    }
    daemon.restart();
  };
  ReconnectTransport transport(clientLoop, daemon.port());
  remote.wire(transport);
  ASSERT_TRUE(runLoopback(clientLoop, remote.scenario, msec(600), sec(120)))
      << "chaos run did not finish";

  EXPECT_GE(compactionsBeforeKill, 1u);
  EXPECT_EQ(reference.filler.trace, remote.filler.trace);
  EXPECT_GE(transport.clients[0]->reconnects(), 1u);

  // The restarted daemon rebuilt the chain from the compacted journal and
  // reclaimed it as it ran: it holds the last lease and a few links, not
  // the ~400 leases it served after the restart.
  net::RmsClient statsq(
      clientLoop,
      net::RmsClient::Config{net::Endpoint{"127.0.0.1", daemon.port()},
                             "statsq"});
  statsq.dial();
  const auto stats = statsq.stats();
  statsq.disconnect();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->events[eventIndex(metrics::Event::kJournalRecordsReplayed)],
            0u);
  EXPECT_LE(stats->gauges[static_cast<std::size_t>(
                metrics::Gauge::kLiveRequests)],
            3);
}

TEST(NetChaos, KillMidHandshakeMatchesUninterruptedServer) {
  PairRun reference;
  Engine engine;
  Server server(engine, Machine::single(16), chaosConfig());
  InProcessTransport direct(server);
  reference.wire(direct);
  ASSERT_TRUE(runInProcess(engine, reference.scenario))
      << "in-process reference run did not finish";

  ChildDaemon daemon(COORM_RMSD_PATH, journalPath("handshake"), kDaemonArgs);
  daemon.start();
  PairRun remote;
  std::thread restarter;
  // The kill point: the daemon dies right before beta dials, and comes
  // back ~300 ms later from another thread — beta's connect() retry loop
  // (dial + HELLO, backoff policy) spans the outage, while alpha's
  // established session RESUMEs. fork+exec keeps the threaded restart
  // safe.
  remote.atAlphaStarted = [&daemon, &restarter] {
    daemon.kill();
    restarter = std::thread([&daemon] {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      daemon.start();
    });
  };
  net::IoExecutor clientLoop;
  ReconnectTransport transport(clientLoop, daemon.port());
  remote.wire(transport);
  const bool finished =
      runLoopback(clientLoop, remote.scenario, msec(600), sec(60));
  if (restarter.joinable()) restarter.join();
  ASSERT_TRUE(finished) << "chaos run did not finish";

  EXPECT_FALSE(reference.alpha.trace.empty());
  EXPECT_FALSE(reference.beta.trace.empty());
  EXPECT_EQ(reference.alpha.trace, remote.alpha.trace);
  EXPECT_EQ(reference.beta.trace, remote.beta.trace);
  EXPECT_GE(transport.clients[0]->reconnects(), 1u);
}

}  // namespace
}  // namespace coorm::nettest
