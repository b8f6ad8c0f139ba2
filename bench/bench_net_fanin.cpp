// BM_DaemonFanIn: per-pass view fan-out cost through a live daemon on the
// c100k serving path — the epoll loop, per-session write coalescing and
// VIEWS_DELTA pushes.
//
// Arg: subscribers. A driver app holds 64 long-horizon
// background allocations (staggered 10 h expiries — every pushed view
// carries a realistic many-segment availability profile) plus one
// short-horizon churn slot it turns over once per iteration; each turn
// commits a pass whose views the daemon fans out to every subscriber
// session. The churn's diff window ([now, now+1h)) excludes the 10 h
// background breakpoints — the delta encoder's steady-state case: long
// jobs dominate the profile, per-pass change is local. One iteration
// completes when the slowest subscriber has applied the push — so
// real_time is the commit-to-applied fan-out latency, and
// wire_bytes_per_pass (measured across the whole process) is what the
// delta encoding shrinks (BENCH_scheduler.json label `pr9-c100k` records
// it against whole-view pushes).
//
// CI gates on views_delta_sent / frames_coalesced via tools/bench_report.py
//   --check-only --require-nonzero views_delta_sent
//   --require-nonzero frames_coalesced
// so the delta path and the coalescer can never silently disengage.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "coorm/common/check.hpp"
#include "coorm/common/metrics.hpp"
#include "coorm/net/client.hpp"
#include "coorm/net/daemon.hpp"
#include "coorm/net/io_executor.hpp"
#include "coorm/net/socket.hpp"
#include "coorm/rms/server.hpp"

namespace coorm::net {
namespace {

/// The daemon half on its own thread (as in production).
class DaemonThread {
 public:
  DaemonThread() {
    thread_ = std::thread([this] {
      IoExecutor executor;
      Server::Config config;
      config.reschedInterval = msec(10);
      Server server(executor, Machine::single(4096), config);
      Daemon daemon(executor, server,
                    Daemon::Config{Endpoint{"127.0.0.1", 0}});
      port_.store(daemon.port());
      while (!stop_.load()) executor.runOne(msec(2));
      daemon.close();
    });
    while (port_.load() == 0) std::this_thread::yield();
  }
  ~DaemonThread() {
    stop_.store(true);
    thread_.join();
  }
  [[nodiscard]] std::uint16_t port() const { return port_.load(); }

 private:
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint16_t> port_{0};
};

struct Subscriber final : AppEndpoint {
  void onViews(const View&, const View&) override { ++views; }
  long views = 0;
};

void BM_DaemonFanIn(benchmark::State& state) {
  const int subscribers = static_cast<int>(state.range(0));
  raiseFdLimit();

  DaemonThread daemon;
  IoExecutor loop;
  std::vector<std::unique_ptr<Subscriber>> endpoints;
  std::vector<std::unique_ptr<RmsClient>> clients;
  for (int i = 0; i < subscribers; ++i) {
    endpoints.push_back(std::make_unique<Subscriber>());
    clients.push_back(std::make_unique<RmsClient>(
        loop, RmsClient::Config{Endpoint{"127.0.0.1", daemon.port()},
                                "sub" + std::to_string(i)}));
    clients.back()->connect(*endpoints.back());
  }

  AppEndpoint sink;
  RmsClient driver(
      loop, RmsClient::Config{Endpoint{"127.0.0.1", daemon.port()}, "drv"});
  driver.connect(sink);
  // 64 long-horizon background allocations: their staggered 10 h expiries
  // give every pushed view a many-segment availability profile that the
  // per-iteration churn never touches (so delta pushes stay local).
  RequestSpec background;
  background.nodes = 1;
  background.duration = hours(10);
  for (int i = 0; i < 64; ++i) {
    background.duration = background.duration + msec(i);
    COORM_CHECK(driver.request(background).valid());
  }
  // The churn slot: a short-horizon allocation turned over each iteration.
  // Its diff window ends at its 1 h expiry — before every background
  // breakpoint — so a delta push ships a handful of segments where a full
  // push re-ships the whole profile.
  RequestSpec spec;
  spec.nodes = 1;
  spec.duration = hours(1);
  RequestId churn = driver.request(spec);
  COORM_CHECK(churn.valid());

  const auto slowest = [&] {
    long least = endpoints[0]->views;
    for (const auto& endpoint : endpoints) {
      if (endpoint->views < least) least = endpoint->views;
    }
    return least;
  };
  const auto pumpUntil = [&](long target) {
    while (slowest() < target) loop.runOne(msec(1));
  };
  pumpUntil(1);  // every session is attached and synced

  const metrics::Snapshot before = metrics::snapshot();
  long target = slowest();
  for (auto _ : state) {
    // Turn the churn slot over: one new short grant, one release — the
    // pass that commits them changes every subscriber's view only within
    // the 1 h churn horizon; the 64-segment background tail is untouched.
    const RequestId id = driver.request(spec);
    COORM_CHECK(id.valid());
    driver.done(churn);
    churn = id;
    ++target;
    pumpUntil(target);
  }
  const metrics::Snapshot after = metrics::snapshot();

  const auto delta = [&](metrics::Event event) {
    return static_cast<double>(after[event] - before[event]);
  };
  const double iterations = static_cast<double>(state.iterations());
  state.counters["wire_bytes_per_pass"] =
      benchmark::Counter(delta(metrics::Event::kWireBytesOut) / iterations);
  state.counters["frames_coalesced"] =
      benchmark::Counter(delta(metrics::Event::kFramesCoalesced));
  state.counters["epoll_wakeups"] =
      benchmark::Counter(delta(metrics::Event::kEpollWakeups));
  state.counters["views_delta_sent"] =
      benchmark::Counter(delta(metrics::Event::kViewsDeltaSent));
  state.counters["views_delta_bytes_saved"] =
      benchmark::Counter(delta(metrics::Event::kViewsDeltaBytesSaved));
  COORM_CHECK(after[metrics::Event::kViewsResync] ==
              before[metrics::Event::kViewsResync]);

  for (auto& client : clients) client->disconnect();
  driver.disconnect();
}
BENCHMARK(BM_DaemonFanIn)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace coorm::net

BENCHMARK_MAIN();
