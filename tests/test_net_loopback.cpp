// Daemon/client mechanics over loopback TCP: handshake, synchronous
// request acks, view/start/end delivery, graceful and abrupt departures
// (dead-peer cleanup mapped to disconnect), partial-frame reassembly on
// the daemon's read path, and protocol-error handling — the transport
// behaviours the differential suite builds on.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>

#include "net_harness.hpp"

namespace coorm::nettest {
namespace {

Server::Config quickConfig() {
  Server::Config config;
  config.reschedInterval = msec(20);
  return config;
}

/// Pumps the client loop until `pred` holds (or the wall deadline).
template <typename Pred>
bool pumpUntil(net::IoExecutor& executor, Pred pred, Time timeout = sec(10)) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    executor.runOne(msec(5));
  }
  return true;
}

TEST(NetLoopback, ConnectRequestDoneDisconnect) {
  DaemonFixture daemon(quickConfig(), 32);
  net::IoExecutor loop;
  net::RmsClient client(
      loop, net::RmsClient::Config{{"127.0.0.1", daemon.port()}, "basic"});
  ScriptApp app;
  client.connect(app);
  app.bind(client);

  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.app().valid());

  ASSERT_TRUE(pumpUntil(loop, [&] { return app.viewsCount >= 1; }));

  RequestSpec spec;
  spec.nodes = 4;
  spec.duration = sec(60);
  const int ordinal = app.submit(spec);
  EXPECT_TRUE(app.submitted[static_cast<std::size_t>(ordinal)].valid());

  ASSERT_TRUE(pumpUntil(loop, [&] { return app.startedCount >= 1; }));
  EXPECT_EQ(app.granted[0].size(), 4u);

  app.finish(ordinal);
  ASSERT_TRUE(pumpUntil(loop, [&] {
    return !app.trace.empty() && app.trace.back() == "ended #0";
  }));

  client.disconnect();
  EXPECT_FALSE(client.connected());
}

TEST(NetLoopback, InvalidRequestSpecsAreAckedInvalidNotFatal) {
  DaemonFixture daemon(quickConfig(), 32);
  net::IoExecutor loop;
  net::RmsClient client(
      loop, net::RmsClient::Config{{"127.0.0.1", daemon.port()}, "bad-specs"});
  ScriptApp app;
  client.connect(app);
  app.bind(client);

  RequestSpec zeroNodes;
  zeroNodes.nodes = 0;
  zeroNodes.duration = sec(10);
  EXPECT_FALSE(client.request(zeroNodes).valid());

  RequestSpec badCluster;
  badCluster.cluster = ClusterId{99};
  badCluster.nodes = 1;
  badCluster.duration = sec(10);
  EXPECT_FALSE(client.request(badCluster).valid());

  // The session survived the rejections: a valid request still works.
  RequestSpec good;
  good.nodes = 1;
  good.duration = sec(10);
  EXPECT_TRUE(client.request(good).valid());
  EXPECT_FALSE(client.dead());
}

TEST(NetLoopback, DeadPeerCleanupFreesResourcesForOthers) {
  DaemonFixture daemon(quickConfig(), 8);
  net::IoExecutor loop;

  auto hog = std::make_unique<net::RmsClient>(
      loop, net::RmsClient::Config{{"127.0.0.1", daemon.port()}, "hog"});
  ScriptApp hogApp;
  hog->connect(hogApp);
  hogApp.bind(*hog);
  RequestSpec all;
  all.nodes = 8;
  all.duration = sec(600);
  hogApp.submit(all);
  ASSERT_TRUE(pumpUntil(loop, [&] { return hogApp.startedCount >= 1; }));

  net::RmsClient other(
      loop, net::RmsClient::Config{{"127.0.0.1", daemon.port()}, "other"});
  ScriptApp otherApp;
  other.connect(otherApp);
  otherApp.bind(other);
  ASSERT_TRUE(pumpUntil(loop, [&] { return otherApp.viewsCount >= 1; }));
  // All 8 nodes are held for the next 600 s: the newcomer's np view has a
  // zero-availability segment over the hog's window ([8 0 8]).
  const std::string& firstViews = otherApp.trace.back();
  const std::string npPart = firstViews.substr(0, firstViews.find(" p="));
  EXPECT_NE(npPart.find(" 0 "), std::string::npos) << firstViews;

  // Abrupt death: destroy the client without a GOODBYE. The daemon maps
  // the EOF to disconnect(), the nodes come back, and the survivor gets a
  // fresh view push showing full availability again.
  hog.reset();
  ASSERT_TRUE(pumpUntil(loop, [&] {
    return otherApp.viewsCount >= 2 &&
           otherApp.trace.back().substr(0, 13) == "views np=[8 ]";
  }));
}

// --- raw-socket tests: framing on the daemon's read path -------------------

struct RawConnection {
  net::Fd fd;

  explicit RawConnection(std::uint16_t port) {
    std::string error;
    fd = net::connectTo({"127.0.0.1", port}, error);
    EXPECT_TRUE(fd.valid()) << error;
  }

  void sendAll(std::span<const std::uint8_t> bytes, std::size_t chunk) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const std::size_t n = std::min(chunk, bytes.size() - sent);
      pollfd p{fd.get(), POLLOUT, 0};
      ASSERT_GT(::poll(&p, 1, 1000), 0);
      const ssize_t written = ::send(fd.get(), bytes.data() + sent, n, 0);
      ASSERT_GT(written, 0);
      sent += static_cast<std::size_t>(written);
      // A tiny pause defeats kernel coalescing often enough to exercise
      // the daemon's partial-read reassembly.
      ::usleep(500);
    }
  }

  /// Reads until one frame (or EOF/timeout). Returns false on EOF.
  bool readFrame(net::FrameView& frame, std::vector<std::uint8_t>& storage,
                 net::FrameBuffer& buffer) {
    while (true) {
      if (buffer.next(frame) == net::FrameBuffer::Next::kFrame) return true;
      pollfd p{fd.get(), POLLIN, 0};
      if (::poll(&p, 1, 5000) <= 0) return false;
      std::uint8_t chunk[4096];
      const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      storage.assign(chunk, chunk + n);
      buffer.append({storage.data(), static_cast<std::size_t>(n)});
    }
  }
};

TEST(NetLoopback, DaemonReassemblesDribbledFrames) {
  DaemonFixture daemon(quickConfig(), 16);
  RawConnection raw(daemon.port());

  std::vector<std::uint8_t> hello;
  encode(hello, net::HelloMsg{"dribbler"});
  raw.sendAll(hello, 1);  // one byte at a time

  net::FrameBuffer buffer;
  std::vector<std::uint8_t> storage;
  net::FrameView frame;
  ASSERT_TRUE(raw.readFrame(frame, storage, buffer));
  ASSERT_EQ(frame.type, net::MsgType::kWelcome);
  net::WelcomeMsg welcome;
  ASSERT_TRUE(decode(frame.payload, welcome));
  EXPECT_TRUE(welcome.app.valid());

  // A request split into two arbitrary chunks still acks.
  net::RequestMsg request;
  request.cookie = 77;
  request.spec.nodes = 2;
  request.spec.duration = sec(30);
  std::vector<std::uint8_t> bytes;
  encode(bytes, request);
  raw.sendAll(bytes, bytes.size() / 2 + 1);

  bool acked = false;
  while (raw.readFrame(frame, storage, buffer)) {
    if (frame.type == net::MsgType::kRequestAck) {
      net::RequestAckMsg ack;
      ASSERT_TRUE(decode(frame.payload, ack));
      EXPECT_EQ(ack.cookie, 77u);
      EXPECT_TRUE(ack.id.valid());
      acked = true;
      break;
    }
  }
  EXPECT_TRUE(acked);
}

TEST(NetLoopback, ProtocolErrorsDropTheConnection) {
  DaemonFixture daemon(quickConfig(), 16);
  RawConnection raw(daemon.port());

  const std::uint8_t garbage[] = {0xde, 0xad, 0xbe, 0xef,
                                  0x00, 0x00, 0x00, 0x00};
  raw.sendAll({garbage, sizeof(garbage)}, sizeof(garbage));

  // The daemon closes on the bad magic: expect EOF, not a reply.
  net::FrameBuffer buffer;
  std::vector<std::uint8_t> storage;
  net::FrameView frame;
  EXPECT_FALSE(raw.readFrame(frame, storage, buffer));
}

TEST(NetLoopback, ManyClientsInterleaveCleanly) {
  DaemonFixture daemon(quickConfig(), 64);
  net::IoExecutor loop;

  constexpr int kClients = 6;
  std::vector<std::unique_ptr<net::RmsClient>> clients;
  std::vector<std::unique_ptr<ScriptApp>> apps;
  for (int i = 0; i < kClients; ++i) {
    apps.push_back(std::make_unique<ScriptApp>());
    clients.push_back(std::make_unique<net::RmsClient>(
        loop, net::RmsClient::Config{{"127.0.0.1", daemon.port()},
                                     "client" + std::to_string(i)}));
    ScriptApp& app = *apps.back();
    app.onFirstViews = [&app, i] {
      RequestSpec spec;
      spec.nodes = 1 + i;
      spec.duration = msec(200);
      app.submit(spec);
    };
    app.onEndedHook = [&app](int) { app.leave(); };
    clients.back()->connect(app);
    app.bind(*clients.back());
  }

  ASSERT_TRUE(pumpUntil(loop, [&] {
    for (const auto& app : apps) {
      if (!app->left) return false;
    }
    return true;
  }, sec(20)));

  for (const auto& app : apps) {
    EXPECT_EQ(app->startedCount, 1);
    EXPECT_FALSE(app->killed);
  }
}

}  // namespace
}  // namespace coorm::nettest
