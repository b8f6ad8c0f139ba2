// Journal round trip at every pass commit: the determinism oracle for
// replay and compaction.
//
// A live Server runs seeded scenarios on the sim Engine with a journal
// attached. After every pass commit a fresh Server is restored twice:
//  (a) from the log as written (scanned before compacting), and
//  (b) from the log right after journalSnapshotNow().
// Later commits append to the compacted log, so (a) also covers a
// compacted prefix followed by new records. Both restores must match the
// live server on its sessions and tokens, every request it holds (shape,
// constraint, implicit flag, start/end times, nAlloc, node IDs), the
// per-cluster free node counts, and the ids the next session and request
// receive — checked with one probe connect + request on each side.
//
// The scripted scenario pins the compaction hazards: an ended bare NP and
// its ended implicit wrapper kept unpaired behind an unstarted NEXT
// successor that holds inherited node IDs; a cancelled request named by a
// child admitted after the cancel; the newest request and session
// reclaimed just before a compaction. The seeded scenarios mix connects,
// bare NP / PA / P requests, NEXT grow/shrink chains with and without
// implicit wrappers, COALLOC, cancels, done with releases, disconnects and
// violation kills.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "coorm/common/rng.hpp"
#include "coorm/rms/journal.hpp"
#include "coorm/rms/server.hpp"
#include "coorm/sim/engine.hpp"

namespace coorm {
namespace {

const ClusterId kC{0};
constexpr NodeCount kNodes = 10;

Server::Config serverConfig() {
  Server::Config config;
  config.reschedInterval = sec(1);
  config.violationGrace = sec(5);
  return config;
}

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

/// An application the scenario drives: remembers what it was granted and
/// answers expiries by ending the request — unless it is `deaf`, which
/// gets it killed after the violation grace period.
class App final : public AppEndpoint {
 public:
  void onStarted(RequestId id, const std::vector<NodeId>& ids) override {
    waiting.erase(id);
    running[id] = ids;
  }
  void onExpired(RequestId id) override {
    if (deaf || !alive()) return;
    session->done(id, running[id]);
  }
  void onEnded(RequestId id) override {
    waiting.erase(id);
    running.erase(id);
  }

  [[nodiscard]] bool alive() const { return !gone && !session->killed(); }
  RequestId submit(const RequestSpec& s) {
    const RequestId id = session->request(s);
    if (id.valid()) waiting.insert(id);
    return id;
  }

  Session* session = nullptr;
  bool deaf = false;
  bool gone = false;  ///< disconnected by the scenario
  std::set<RequestId> waiting;  ///< submitted, neither started nor ended
  std::map<RequestId, std::vector<NodeId>> running;
};

/// A server restored from the journal at `path` on its own engine.
struct Restored {
  Engine engine;
  Server server{engine, Machine::single(kNodes), serverConfig()};
};

/// nullptr (and a failure) when the log is refused.
std::unique_ptr<Restored> restore(const std::string& path) {
  auto out = std::make_unique<Restored>();
  const rms::ScanResult scan = rms::Journal::scan(path);
  Time last = kNever;
  std::string error;
  if (scan.refused) {
    ADD_FAILURE() << scan.diagnostic;
    return nullptr;
  }
  if (!out->server.restoreFromJournal(scan.records, &last, &error)) {
    ADD_FAILURE() << error;
    return nullptr;
  }
  return out;
}

std::vector<NodeId> sorted(std::vector<NodeId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::int64_t idOf(const Request* r) { return r != nullptr ? r->id.value : -1; }

/// The live side: server + journal + the apps the scenario drives.
class Scenario {
 public:
  explicit Scenario(const std::string& name)
      : path_(::testing::TempDir() + "coorm_replay_" + name + ".journal"),
        journal_(path_, 0),
        server_(engine_, Machine::single(kNodes), serverConfig()) {
    server_.attachJournal(&journal_);
  }
  ~Scenario() { std::remove(path_.c_str()); }

  Server& server() { return server_; }
  [[nodiscard]] int checkpoints() const { return checkpoints_; }

  App& connect() {
    apps_.push_back(std::make_unique<App>());
    App& app = *apps_.back();
    app.session = server_.connect(app, "app" + std::to_string(apps_.size()));
    return app;
  }
  std::vector<App*> liveApps() {
    std::vector<App*> out;
    for (auto& app : apps_) {
      if (app->alive()) out.push_back(app.get());
    }
    return out;
  }

  /// Steps the engine to `until`, checking the round trip after every
  /// pass commit.
  void runChecked(Time until) {
    std::uint64_t passes = server_.passCount();
    while (engine_.nextEventAt() <= until && engine_.step()) {
      if (server_.passCount() == passes) continue;
      passes = server_.passCount();
      checkRoundTrip();
      if (::testing::Test::HasFatalFailure()) return;
    }
    engine_.runUntil(until);  // advance the clock past trailing events
  }

 private:
  void checkRoundTrip() {
    ++checkpoints_;
    SCOPED_TRACE("checkpoint " + std::to_string(checkpoints_) + " at t=" +
                 std::to_string(engine_.now()));
    App probeA;
    App probeB;
    auto asWritten = restore(path_);
    server_.journalSnapshotNow();
    auto compacted = restore(path_);
    ASSERT_NE(asWritten, nullptr) << "log as written refused";
    ASSERT_NE(compacted, nullptr) << "compacted log refused";

    // The ids the next session and request receive. The live probe is
    // journaled and then disconnected: its request, the newest, is
    // reclaimed before the next compaction.
    const auto probe = [](Server& server, App& app) {
      app.session = server.connect(app, "probe");
      return std::make_pair(
          app.session->app(),
          app.session->request(spec(RequestType::kPreAllocation, 1, sec(1))));
    };
    probes_.push_back(std::make_unique<App>());
    const auto next = probe(server_, *probes_.back());
    EXPECT_EQ(probe(asWritten->server, probeA), next) << "as written";
    EXPECT_EQ(probe(compacted->server, probeB), next) << "compacted";

    expectSame(asWritten->server, next.second, /*compacted=*/false);
    expectSame(compacted->server, next.second, /*compacted=*/true);
    probes_.back()->session->disconnect();
  }

  void expectSame(Server& restored, RequestId newest, bool compacted) {
    SCOPED_TRACE(compacted ? "compacted log" : "log as written");
    for (const auto& app : apps_) {
      const AppId id = app->session->app();
      if (app->alive()) {
        EXPECT_EQ(restored.sessionToken(id), server_.sessionToken(id))
            << toString(id);
      } else if (compacted) {
        EXPECT_EQ(restored.sessionToken(id), 0u) << "dead " << toString(id);
      }
    }
    EXPECT_EQ(restored.pool().freeCount(kC), server_.pool().freeCount(kC));

    for (std::int64_t value = 0; value <= newest.value; ++value) {
      const RequestId id{value};
      const Request* live = server_.findRequest(id);
      const Request* back = restored.findRequest(id);
      if (live == nullptr) {
        // Only the as-written log still holds what the live server has
        // reclaimed since.
        if (compacted) {
          EXPECT_EQ(back, nullptr) << "reclaimed " << toString(id);
        }
        continue;
      }
      ASSERT_NE(back, nullptr) << "missing " << live->describe();
      SCOPED_TRACE(live->describe());
      EXPECT_EQ(back->app, live->app);
      EXPECT_EQ(back->type, live->type);
      EXPECT_EQ(back->cluster, live->cluster);
      EXPECT_EQ(back->nodes, live->nodes);
      EXPECT_EQ(back->duration, live->duration);
      EXPECT_EQ(back->relatedHow, live->relatedHow);
      if (!compacted && live->relatedTo == nullptr &&
          back->relatedTo != nullptr) {
        // The live server cleared the link when it reclaimed the target.
        EXPECT_EQ(server_.findRequest(back->relatedTo->id), nullptr);
      } else {
        EXPECT_EQ(idOf(back->relatedTo), idOf(live->relatedTo));
      }
      EXPECT_EQ(back->implicit, live->implicit);
      EXPECT_EQ(back->startedAt, live->startedAt);
      EXPECT_EQ(back->endedAt, live->endedAt);
      // Passes keep rewriting an ended lease's nAlloc (to the IDs it
      // still holds: none); only a compacted log carries that.
      if (live->started() && (compacted || !live->ended())) {
        EXPECT_EQ(back->nAlloc, live->nAlloc);
      }
      EXPECT_EQ(sorted(back->nodeIds), sorted(live->nodeIds));
    }
  }

  std::string path_;
  std::vector<std::unique_ptr<App>> apps_;  // outlive the server
  std::vector<std::unique_ptr<App>> probes_;
  Engine engine_;
  rms::Journal journal_;
  Server server_;
  int checkpoints_ = 0;
};

// ---------------------------------------------------------------------------
// The compaction hazards, scripted.

TEST(JournalReplay, CompactionHazardsRoundTrip) {
  Scenario s("hazards");
  Server& server = s.server();
  // A deaf app never answers its expiry and is killed; `big` holds four
  // nodes for a minute; `app` runs a bare NP A inside its implicit wrapper
  // WA; a preemptible lease takes the remaining three.
  App& deaf = s.connect();
  deaf.deaf = true;
  deaf.submit(spec(RequestType::kNonPreemptible, 1, sec(3)));
  App& big = s.connect();
  big.submit(spec(RequestType::kNonPreemptible, 4, sec(60)));
  App& app = s.connect();
  const RequestId a =
      app.submit(spec(RequestType::kNonPreemptible, 2, sec(40)));
  const RequestId wa{a.value - 1};
  App& lease = s.connect();
  const RequestId p0 =
      lease.submit(spec(RequestType::kPreemptible, 3, kTimeInf));
  s.runChecked(sec(1));
  ASSERT_TRUE(app.running.contains(a));
  ASSERT_TRUE(lease.running.contains(p0));
  ASSERT_EQ(lease.running.at(p0).size(), 3u);

  // A grows into B (NEXT, wrapped as WB mirroring WA) and ends at once: B
  // inherits A's two IDs but cannot start (it needs six and the cluster is
  // full), so A and WA stay owned, ended and unpaired behind it.
  const RequestId b = app.submit(
      spec(RequestType::kNonPreemptible, 6, sec(20), Relation::kNext, a));
  app.session->done(a, {});
  // C is cancelled before it starts: D, admitted before the cancel, is
  // orphaned; E, admitted after it, still names C (and keeps it: E needs
  // the whole cluster).
  const RequestId c =
      app.submit(spec(RequestType::kNonPreemptible, 5, sec(30)));
  const RequestId d = app.submit(
      spec(RequestType::kNonPreemptible, 2, sec(30), Relation::kNext, c));
  app.session->done(c, {});
  const RequestId e = app.submit(
      spec(RequestType::kNonPreemptible, 10, sec(10), Relation::kNext, c));
  s.runChecked(sec(2));

  ASSERT_NE(server.findRequest(a), nullptr);
  ASSERT_NE(server.findRequest(wa), nullptr);
  ASSERT_NE(server.findRequest(b), nullptr);
  EXPECT_TRUE(server.findRequest(a)->ended());
  EXPECT_TRUE(server.findRequest(wa)->ended());
  EXPECT_TRUE(server.findRequest(wa)->implicit);
  EXPECT_FALSE(server.findRequest(b)->started());
  EXPECT_EQ(server.findRequest(b)->nodeIds.size(), 2u);
  EXPECT_TRUE(server.findRequest(c)->ended());
  EXPECT_EQ(idOf(server.findRequest(d)->relatedTo), -1);
  EXPECT_EQ(idOf(server.findRequest(e)->relatedTo), c.value);

  // The lease shrinks to one node with explicit releases, then grows.
  const std::vector<NodeId> held = lease.running.at(p0);
  const RequestId p1 = lease.submit(
      spec(RequestType::kPreemptible, 1, kTimeInf, Relation::kNext, p0));
  lease.session->done(p0, std::vector<NodeId>(held.begin() + 1, held.end()));
  s.runChecked(sec(4));
  ASSERT_TRUE(lease.running.contains(p1));
  lease.submit(spec(RequestType::kPreemptible, 2, kTimeInf, Relation::kNext,
                    p1));
  lease.session->done(p1, {});
  s.runChecked(sec(20));
  EXPECT_TRUE(deaf.session->killed());

  big.session->disconnect();
  big.gone = true;
  s.runChecked(sec(40));
  EXPECT_GE(s.checkpoints(), 20);
}

// ---------------------------------------------------------------------------
// Records that contradict the state so far are refused, not applied.

using Records = std::vector<std::vector<std::uint8_t>>;

/// Index of the `nth` record of `type`.
std::size_t indexOf(const Records& records, rms::RecordType type,
                    int nth = 0) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i][0] == static_cast<std::uint8_t>(type) && nth-- == 0) {
      return i;
    }
  }
  ADD_FAILURE() << "no such record";
  return 0;
}

void expectRefused(const Records& records, const std::string& why) {
  Engine engine;
  Server server(engine, Machine::single(kNodes), serverConfig());
  Time last = kNever;
  std::string error;
  EXPECT_FALSE(server.restoreFromJournal(records, &last, &error)) << why;
  EXPECT_NE(error.find(why), std::string::npos) << error;
}

TEST(JournalReplay, InconsistentRecordsAreRefused) {
  const std::string path =
      ::testing::TempDir() + "coorm_replay_refusals.journal";
  Records log;        // as written
  Records compacted;  // after journalSnapshotNow()
  {
    Engine engine;
    rms::Journal journal(path, 0);
    Server server(engine, Machine::single(kNodes), serverConfig());
    server.attachJournal(&journal);
    App a;
    App b;
    a.session = server.connect(a, "a");
    b.session = server.connect(b, "b");
    // a: implicit wrapper W + bare NP (2 nodes); b: a one-node lease.
    const RequestId np =
        a.submit(spec(RequestType::kNonPreemptible, 2, sec(10)));
    b.submit(spec(RequestType::kPreemptible, 1, kTimeInf));
    engine.runUntil(sec(1));
    ASSERT_TRUE(a.running.contains(np));
    a.session->done(np, {});
    b.session->disconnect();
    engine.runUntil(sec(2));
    log = rms::Journal::scan(path).records;
    server.journalSnapshotNow();
    compacted = rms::Journal::scan(path).records;
  }
  std::remove(path.c_str());
  using rms::RecordType;
  ASSERT_GE(compacted.size(), 2u);
  ASSERT_EQ(compacted[0][0], static_cast<std::uint8_t>(RecordType::kCounters));
  {
    Engine engine;
    Server server(engine, Machine::single(kNodes), serverConfig());
    Time last = kNever;
    std::string error;
    ASSERT_TRUE(server.restoreFromJournal(log, &last, &error)) << error;
  }
  const auto edited = [](Records records, const auto& edit) {
    edit(records);
    return records;
  };
  const auto duplicate = [&](RecordType type) {
    return edited(log, [type](Records& r) {
      const std::size_t i = indexOf(r, type);
      r.insert(r.begin() + static_cast<std::ptrdiff_t>(i), r[i]);
    });
  };
  const auto drop = [&](RecordType type) {
    return edited(log, [type](Records& r) {
      r.erase(r.begin() + static_cast<std::ptrdiff_t>(indexOf(r, type)));
    });
  };

  expectRefused(edited(log, [](Records& r) {
                  r[indexOf(r, RecordType::kRequest)].pop_back();
                }),
                "malformed request record");
  expectRefused(edited(log, [](Records& r) { r[0][0] = 99; }),
                "unknown record type");
  expectRefused(duplicate(RecordType::kSessionOpen), "duplicate session");
  expectRefused(drop(RecordType::kSessionOpen), "request for unknown/dead");
  // b's close moved before b's request: a request of a dead session.
  expectRefused(edited(log, [](Records& r) {
                  const std::size_t close =
                      indexOf(r, RecordType::kSessionClosed);
                  const std::vector<std::uint8_t> record = r[close];
                  r.erase(r.begin() + static_cast<std::ptrdiff_t>(close));
                  r.insert(r.begin() + 2, record);
                }),
                "request for unknown/dead");
  expectRefused(duplicate(RecordType::kSessionClosed),
                "close/kill of unknown/dead");
  expectRefused(duplicate(RecordType::kRequest), "duplicate request");
  // Without the wrapper W, the NP's anchor and pairing name nothing.
  expectRefused(drop(RecordType::kRequest), "constraint target missing");
  expectRefused(duplicate(RecordType::kStarted), "start of unknown/started");
  expectRefused(duplicate(RecordType::kEnded), "end of unknown/ended");
  // b's lease (the third start) granted node 0, which a's NP holds.
  expectRefused(edited(log, [](Records& r) {
                  std::vector<std::uint8_t>& start =
                      r[indexOf(r, RecordType::kStarted, 2)];
                  std::fill(start.end() - 4, start.end(), 0);
                }),
                "grants a node allocated elsewhere");
  expectRefused(edited(compacted,
                       [](Records& r) { std::swap(r[0], r[1]); }),
                "counters record not at log head");
}

// ---------------------------------------------------------------------------
// Seeded random scenarios.

/// One random protocol action by a random live application.
void randomAction(Scenario& s, Rng& rng) {
  std::vector<App*> apps = s.liveApps();
  if (apps.size() < 2 || (apps.size() < 6 && rng.uniformInt(0, 9) == 0)) {
    s.connect();
    return;
  }
  App& app = *apps[static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(apps.size()) - 1))];
  const auto pick = [&rng](const auto& ids) {
    auto it = ids.begin();
    std::advance(it,
                 rng.uniformInt(0, static_cast<std::int64_t>(ids.size()) - 1));
    return it;
  };
  const auto duration = [&rng] { return sec(rng.uniformInt(2, 20)); };
  switch (rng.uniformInt(0, 11)) {
    case 0:
    case 1:  // bare NP: wrapped unless the app holds an explicit PA
      app.submit(spec(RequestType::kNonPreemptible, rng.uniformInt(1, 4),
                      duration()));
      return;
    case 2:  // explicit pre-allocation
      app.submit(spec(RequestType::kPreAllocation, rng.uniformInt(3, 8),
                      sec(rng.uniformInt(10, 40))));
      return;
    case 3:  // preemptible lease, open-ended or not
      app.submit(spec(RequestType::kPreemptible, rng.uniformInt(1, 4),
                      rng.uniformInt(0, 1) == 0 ? kTimeInf : duration()));
      return;
    case 4:
    case 5: {  // NEXT grow/shrink of a running request
      if (app.running.empty()) return;
      const auto it = pick(app.running);
      const RequestId current = it->first;
      const std::vector<NodeId> held = it->second;
      const Request* r = s.server().findRequest(current);
      if (r == nullptr || r->ended() ||
          r->type == RequestType::kPreAllocation) {
        return;
      }
      const NodeCount nodes = rng.uniformInt(1, 6);
      app.submit(spec(r->type, nodes,
                      r->type == RequestType::kPreemptible &&
                              rng.uniformInt(0, 1) == 0
                          ? kTimeInf
                          : duration(),
                      Relation::kNext, current));
      if (rng.uniformInt(0, 4) == 0) return;  // the parent runs to expiry
      // Release the shrink's excess — sometimes less, which the start
      // trims, sometimes more.
      const NodeCount keep = std::clamp<NodeCount>(
          nodes + rng.uniformInt(-1, 1), 0, std::ssize(held));
      app.session->done(current, std::vector<NodeId>(held.begin() + keep,
                                                     held.end()));
      return;
    }
    case 6: {  // COALLOC to a request the app knows
      std::vector<RequestId> known(app.waiting.begin(), app.waiting.end());
      for (const auto& [id, ids] : app.running) known.push_back(id);
      if (known.empty()) return;
      app.submit(spec(rng.uniformInt(0, 1) == 0 ? RequestType::kNonPreemptible
                                                : RequestType::kPreemptible,
                      rng.uniformInt(1, 3), duration(), Relation::kCoAlloc,
                      *pick(known)));
      return;
    }
    case 7:
    case 8: {  // cancel before start
      if (app.waiting.empty()) return;
      const RequestId id = *pick(app.waiting);
      app.session->done(id, {});
      return;
    }
    case 9: {  // done with releases
      if (app.running.empty()) return;
      const auto it = pick(app.running);
      const std::vector<NodeId> held = it->second;
      const auto give = rng.uniformInt(0, std::ssize(held));
      app.session->done(it->first,
                        std::vector<NodeId>(held.begin(), held.begin() + give));
      return;
    }
    case 10:  // disconnect
      app.session->disconnect();
      app.gone = true;
      return;
    default:  // stops answering expiries: a violation kill follows
      app.deaf = true;
      return;
  }
}

class JournalReplaySeeded : public ::testing::TestWithParam<int> {};

TEST_P(JournalReplaySeeded, EveryCommitRoundTrips) {
  Scenario s("seed" + std::to_string(GetParam()));
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int i = 0; i < 3; ++i) s.connect();
  Time at = 0;
  while (at < sec(150)) {
    at += msec(rng.uniformInt(200, 2500));
    s.runChecked(at);
    if (HasFatalFailure()) return;
    randomAction(s, rng);
  }
  s.runChecked(at + sec(30));
  EXPECT_GE(s.checkpoints(), 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalReplaySeeded, ::testing::Range(1, 9));

}  // namespace
}  // namespace coorm
