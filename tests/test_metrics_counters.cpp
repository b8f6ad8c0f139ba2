// Runtime metrics (common/metrics.hpp): catalogue sanity, exactness under
// concurrent increments (run in the TSan CI job), and the STATS admin
// round trip over loopback TCP — a scripted daemon exchange whose wire
// counters are pinned to exact values.
#include "coorm/common/metrics.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "coorm/net/client.hpp"
#include "coorm/net/io_executor.hpp"
#include "net_harness.hpp"

namespace coorm {
namespace {

using metrics::Event;
using metrics::Gauge;

TEST(MetricsCatalogue, NamesAreUniqueSnakeCase) {
  std::set<std::string> seen;
  const auto check = [&](std::string_view name) {
    EXPECT_FALSE(name.empty());
    for (const char c : name) {
      EXPECT_TRUE(std::islower(static_cast<unsigned char>(c)) ||
                  std::isdigit(static_cast<unsigned char>(c)) || c == '_')
          << name;
    }
    EXPECT_TRUE(seen.insert(std::string(name)).second)
        << "duplicate name " << name;
  };
  for (std::size_t i = 0; i < metrics::kEventCount; ++i) {
    check(metrics::name(static_cast<Event>(i)));
  }
  for (std::size_t i = 0; i < metrics::kGaugeCount; ++i) {
    check(metrics::name(static_cast<Gauge>(i)));
  }
}

TEST(MetricsCounters, IncrementAddValueAndReset) {
  metrics::reset();
  EXPECT_EQ(metrics::value(Event::kSweepSegmentsMerged), 0u);
  metrics::increment(Event::kSweepSegmentsMerged);
  metrics::increment(Event::kSweepSegmentsMerged, 41);
  EXPECT_EQ(metrics::value(Event::kSweepSegmentsMerged), 42u);

  EXPECT_EQ(metrics::value(Gauge::kLiveSessions), 0);
  metrics::add(Gauge::kLiveSessions, 3);
  metrics::add(Gauge::kLiveSessions, -1);
  EXPECT_EQ(metrics::value(Gauge::kLiveSessions), 2);

  metrics::reset();
  EXPECT_EQ(metrics::value(Event::kSweepSegmentsMerged), 0u);
  EXPECT_EQ(metrics::value(Gauge::kLiveSessions), 0);
}

TEST(MetricsCounters, SnapshotIndexesAndCompares) {
  metrics::reset();
  metrics::increment(Event::kFramesEncoded, 7);
  metrics::add(Gauge::kArenaBytesHeld, 1024);
  const metrics::Snapshot a = metrics::snapshot();
  EXPECT_EQ(a[Event::kFramesEncoded], 7u);
  EXPECT_EQ(a[Gauge::kArenaBytesHeld], 1024);
  EXPECT_EQ(a, metrics::snapshot());
  metrics::increment(Event::kFramesEncoded);
  EXPECT_NE(a, metrics::snapshot());
  metrics::reset();
}

// The whole point of relaxed atomics: concurrent increments lose nothing.
// The TSan CI job runs this test to pin that the counters are race-free.
TEST(MetricsCounters, ConcurrentIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  const std::uint64_t eventsBefore = metrics::value(Event::kArenaHits);
  const std::int64_t gaugeBefore = metrics::value(Gauge::kLiveRequests);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        metrics::increment(Event::kArenaHits);
        metrics::add(Gauge::kLiveRequests, 1);
        metrics::add(Gauge::kLiveRequests, -1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(metrics::value(Event::kArenaHits),
            eventsBefore + std::uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(metrics::value(Gauge::kLiveRequests), gaugeBefore);
}

// ---------------------------------------------------------------------------
// STATS over loopback TCP against a coorm_rmsd-shaped daemon.

/// Server config that keeps the resched timer out of the way so the only
/// traffic during the scripted exchange is the traffic the script sends.
Server::Config quietConfig() {
  Server::Config config;
  config.reschedInterval = hours(1);
  return config;
}

/// Polls the daemon through repeated STATS round trips until `pred` holds
/// on a reply (events the daemon processes asynchronously — GOODBYE,
/// EOF — land shortly after the triggering close).
template <typename Pred>
std::optional<metrics::Snapshot> pollStats(net::RmsClient& client,
                                           Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    std::optional<metrics::Snapshot> reply = client.stats();
    if (!reply.has_value()) return std::nullopt;
    if (pred(*reply)) return reply;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return std::nullopt;
}

struct NullEndpoint final : AppEndpoint {
  void onViews(const View&, const View&) override {}
  void onStarted(RequestId, const std::vector<NodeId>&) override {}
  void onExpired(RequestId) override {}
  void onEnded(RequestId) override {}
  void onKilled() override {}
};

TEST(MetricsLoopback, StatsReplyPinsExactWireCounters) {
  nettest::DaemonFixture daemon(quietConfig(), 64);
  metrics::reset();  // daemon is up and idle; the script owns every frame

  net::IoExecutor executor;
  net::RmsClient client(
      executor,
      net::RmsClient::Config{net::Endpoint{"127.0.0.1", daemon.port()},
                             "statsq"});
  client.dial();
  const std::optional<metrics::Snapshot> reply = client.stats();
  ASSERT_TRUE(reply.has_value());

  // At the instant the daemon snapshotted: exactly one frame each way —
  // our STATS encoded (client side) and decoded (daemon side). The reply
  // frame is encoded after the snapshot, so it is not in these numbers.
  EXPECT_EQ((*reply)[Event::kFramesEncoded], 1u);
  EXPECT_EQ((*reply)[Event::kFramesDecoded], 1u);
  EXPECT_GT((*reply)[Event::kWireBytesOut], 0u);
  EXPECT_EQ((*reply)[Event::kWireBytesIn], (*reply)[Event::kWireBytesOut]);
  EXPECT_EQ((*reply)[Event::kDeadPeerDrops], 0u);
  EXPECT_EQ((*reply)[Event::kBackpressureStalls], 0u);
  EXPECT_EQ((*reply)[Gauge::kLiveSessions], 0);  // dial() opens no session

  // Daemon and test share one process, so the daemon's STATS reply must
  // agree with the in-process counters once the reply's own frame is
  // added: one more encode (daemon) and one more decode (client).
  const metrics::Snapshot local = metrics::snapshot();
  EXPECT_EQ(local[Event::kFramesEncoded], 2u);
  EXPECT_EQ(local[Event::kFramesDecoded], 2u);
  EXPECT_EQ(local[Event::kWireBytesIn], local[Event::kWireBytesOut]);

  client.disconnect();
}

TEST(MetricsLoopback, SessionsAndCleanGoodbyesAreNotDeadPeers) {
  nettest::DaemonFixture daemon(quietConfig(), 64);
  metrics::reset();

  net::IoExecutor executor;
  NullEndpoint endpoint;
  net::RmsClient app(
      executor,
      net::RmsClient::Config{net::Endpoint{"127.0.0.1", daemon.port()},
                             "app"});
  app.connect(endpoint);  // HELLO/WELCOME: a session now exists

  net::RmsClient statsq(
      executor,
      net::RmsClient::Config{net::Endpoint{"127.0.0.1", daemon.port()},
                             "statsq"});
  statsq.dial();
  std::optional<metrics::Snapshot> reply = statsq.stats();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ((*reply)[Gauge::kLiveSessions], 1);

  app.disconnect();  // clean GOODBYE
  reply = pollStats(statsq, [](const metrics::Snapshot& snap) {
    return snap[Gauge::kLiveSessions] == 0;
  });
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ((*reply)[Gauge::kLiveSessions], 0);
  EXPECT_EQ((*reply)[Event::kDeadPeerDrops], 0u);  // GOODBYE is not a drop

  statsq.disconnect();
}

TEST(MetricsLoopback, LiveRequestsRiseWithSubmissionsAndReturnToZero) {
  // A short re-scheduling interval: the pass a GOODBYE arms must run
  // within the poll window, since that pass reclaims the ended requests.
  Server::Config config;
  config.reschedInterval = msec(10);
  nettest::DaemonFixture daemon(config, 64);
  metrics::reset();

  net::IoExecutor executor;
  NullEndpoint endpoints[2];
  std::vector<std::unique_ptr<net::RmsClient>> apps;
  for (NullEndpoint& endpoint : endpoints) {
    apps.push_back(std::make_unique<net::RmsClient>(
        executor,
        net::RmsClient::Config{net::Endpoint{"127.0.0.1", daemon.port()},
                               "app"}));
    apps.back()->connect(endpoint);
  }
  net::RmsClient statsq(
      executor,
      net::RmsClient::Config{net::Endpoint{"127.0.0.1", daemon.port()},
                             "statsq"});
  statsq.dial();

  RequestSpec rigid;  // a bare NP request: held with its implicit wrapper
  rigid.nodes = 4;
  rigid.duration = sec(60);
  rigid.type = RequestType::kNonPreemptible;
  ASSERT_TRUE(apps[0]->request(rigid).valid());
  std::optional<metrics::Snapshot> reply = statsq.stats();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ((*reply)[Gauge::kLiveRequests], 2);

  RequestSpec lease;
  lease.nodes = 8;
  lease.duration = kTimeInf;
  lease.type = RequestType::kPreemptible;
  const RequestId first = apps[1]->request(lease);
  ASSERT_TRUE(first.valid());
  lease.relatedHow = Relation::kNext;
  lease.relatedTo = first;
  ASSERT_TRUE(apps[1]->request(lease).valid());
  reply = statsq.stats();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ((*reply)[Gauge::kLiveRequests], 4);

  // Disconnecting ends everything; the pass the GOODBYE arms reclaims it.
  for (auto& app : apps) app->disconnect();
  reply = pollStats(statsq, [](const metrics::Snapshot& snap) {
    return snap[Gauge::kLiveRequests] == 0 && snap[Gauge::kLiveSessions] == 0;
  });
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ((*reply)[Gauge::kLiveRequests], 0);

  statsq.disconnect();
}

TEST(MetricsLoopback, AbruptCloseCountsAsDeadPeer) {
  nettest::DaemonFixture daemon(quietConfig(), 64);
  metrics::reset();

  // A peer that connects and vanishes without a GOODBYE.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(daemon.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ::close(fd);

  net::IoExecutor executor;
  net::RmsClient statsq(
      executor,
      net::RmsClient::Config{net::Endpoint{"127.0.0.1", daemon.port()},
                             "statsq"});
  statsq.dial();
  const std::optional<metrics::Snapshot> reply =
      pollStats(statsq, [](const metrics::Snapshot& snap) {
        return snap[Event::kDeadPeerDrops] >= 1;
      });
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ((*reply)[Event::kDeadPeerDrops], 1u);
  EXPECT_EQ((*reply)[Gauge::kLiveSessions], 0);

  statsq.disconnect();
}

// ---------------------------------------------------------------------------
// C100k serving-path counters: delta pushes, write coalescing, epoll.

/// One worker whose two short requests force several view-changing passes:
/// push 1 is necessarily full; once its ack lands, later pushes go out as
/// VIEWS_DELTA diffs, and each grant commit (STARTED + views in one pass)
/// exercises the per-session write coalescer.
struct ChurnScenario {
  nettest::ScriptApp worker;
  nettest::Scenario scenario;

  void wire(nettest::Transport& transport) {
    worker.onFirstViews = [this] {
      RequestSpec first;
      first.nodes = 8;
      first.duration = msec(300);
      worker.submit(first);
      RequestSpec second;
      second.nodes = 4;
      second.duration = msec(600);
      worker.submit(second);
    };
    scenario.steps = {
        {[] { return true; },
         [this, &transport] { worker.bind(transport.add(worker, "worker")); }},
    };
    scenario.finished = [this] {
      return worker.startedCount >= 2 && worker.viewsCount >= 3;
    };
  }
};

TEST(MetricsLoopback, DeltaCoalescingAndEpollCountersEngage) {
  Server::Config config;
  config.reschedInterval = msec(100);
  nettest::DaemonFixture daemon(config, 64);
  metrics::reset();

  ChurnScenario churn;
  net::IoExecutor executor;
  nettest::LoopbackTransport loopback(executor, daemon.port());
  churn.wire(loopback);
  ASSERT_TRUE(nettest::runLoopback(executor, churn.scenario))
      << "churn scenario did not finish";

  // Assert through STATS — the same export an operator's `coorm_rmsd
  // --stats` reads — so the new counters are pinned end to end.
  net::IoExecutor statsLoop;
  net::RmsClient statsq(
      statsLoop,
      net::RmsClient::Config{net::Endpoint{"127.0.0.1", daemon.port()},
                             "statsq"});
  statsq.dial();
  const std::optional<metrics::Snapshot> reply =
      pollStats(statsq, [](const metrics::Snapshot& snap) {
        return snap[Event::kViewsDeltaSent] >= 1 &&
               snap[Event::kFramesCoalesced] >= 1;
      });
  ASSERT_TRUE(reply.has_value())
      << "delta/coalescing counters never engaged: delta="
      << metrics::value(Event::kViewsDeltaSent)
      << " coalesced=" << metrics::value(Event::kFramesCoalesced);
  EXPECT_GE((*reply)[Event::kViewsDeltaSent], 1u);
  EXPECT_GE((*reply)[Event::kFramesCoalesced], 1u);
  EXPECT_EQ((*reply)[Event::kViewsResync], 0u);  // loopback never desyncs
  EXPECT_GT((*reply)[Event::kEpollWakeups], 0u);
  statsq.disconnect();
}

/// Speaks the raw protocol against the daemon: after the initial full push,
/// a VIEWS_ACK carrying kResync must bump views_resync and produce another
/// full (not delta) push with the next sequence number.
TEST(MetricsLoopback, ResyncAckForcesFullRepushAndCounts) {
  nettest::DaemonFixture daemon(quietConfig(), 64);
  metrics::reset();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{5, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(daemon.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);

  net::FrameBuffer frames;
  const auto nextFrameOfType = [&](net::MsgType want,
                                   net::FrameView& frame) -> bool {
    while (true) {
      net::FrameBuffer::Next next;
      while ((next = frames.next(frame)) == net::FrameBuffer::Next::kFrame) {
        if (frame.type == want) return true;
      }
      if (next == net::FrameBuffer::Next::kBad) return false;
      std::uint8_t chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      frames.append({chunk, static_cast<std::size_t>(n)});
    }
  };
  const auto sendAll = [&](const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  };

  std::vector<std::uint8_t> out;
  net::encode(out, net::HelloMsg{"raw-v3"});
  sendAll(out);

  net::FrameView frame;
  ASSERT_TRUE(nextFrameOfType(net::MsgType::kViewsDelta, frame));
  net::ViewsDeltaMsg push;
  ASSERT_TRUE(net::decode(frame.payload, push));
  EXPECT_TRUE(push.full);  // a new session always starts from a sync point

  out.clear();
  net::encode(out, net::ViewsAckMsg{push.seq,
                                    net::ViewsAckMsg::Status::kResync});
  sendAll(out);

  ASSERT_TRUE(nextFrameOfType(net::MsgType::kViewsDelta, frame));
  net::ViewsDeltaMsg repush;
  ASSERT_TRUE(net::decode(frame.payload, repush));
  EXPECT_TRUE(repush.full);  // resync is answered with a full push
  EXPECT_EQ(repush.seq, push.seq + 1);
  EXPECT_EQ(repush.nonPreemptive, push.nonPreemptive);
  EXPECT_EQ(repush.preemptive, push.preemptive);
  EXPECT_GE(metrics::value(Event::kViewsResync), 1u);

  out.clear();
  net::encode(out, net::GoodbyeMsg{});
  sendAll(out);
  ::close(fd);
}

}  // namespace
}  // namespace coorm
