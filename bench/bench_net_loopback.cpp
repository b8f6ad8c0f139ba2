// BM_LoopbackDaemon: end-to-end requests/s through a live coorm_rmsd-style
// daemon over loopback TCP — epoll loop, framing, session multiplexing and
// the Server's scheduling passes included. One iteration is a full
// request() round trip (REQUEST frame, REQ_ACK back) followed by a done();
// the reported requests/s is the wire-facing counterpart of the
// in-process BM_ServerPipeline numbers (the paper's prototype served
// ~500 requests/s on 2009-era hardware, §5).
//
// Args: {apps}. Each app is its own TCP connection; requests rotate over
// the connections so the daemon multiplexes live sessions.
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
#include "coorm/rms/server.hpp"

namespace coorm::net {
namespace {

/// The daemon half, on its own thread (as in production).
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

void BM_LoopbackDaemon(benchmark::State& state) {
  const int apps = static_cast<int>(state.range(0));

  DaemonThread daemon;
  IoExecutor loop;
  AppEndpoint sink;  // default no-op endpoint: the bench drives the links
  std::vector<std::unique_ptr<RmsClient>> clients;
  for (int i = 0; i < apps; ++i) {
    clients.push_back(std::make_unique<RmsClient>(
        loop, RmsClient::Config{Endpoint{"127.0.0.1", daemon.port()},
                                "bench" + std::to_string(i)}));
    clients.back()->connect(sink);
  }

  RequestSpec spec;
  spec.nodes = 1;
  spec.duration = hours(1);
  const metrics::Snapshot before = metrics::snapshot();
  std::size_t turn = 0;
  for (auto _ : state) {
    RmsClient& client = *clients[turn];
    turn = (turn + 1) % clients.size();
    const RequestId id = client.request(spec);  // blocking round trip
    COORM_CHECK(id.valid());
    client.done(id);
    loop.runOne(0);  // drain deliveries without blocking
  }
  state.counters["requests/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  // Every REQUEST round trip lands a daemon-side RTT histogram sample
  // (the /metrics percentile source); CI gates this stays nonzero.
  const metrics::Snapshot after = metrics::snapshot();
  state.counters["request_rtt_samples"] = static_cast<double>(
      after[metrics::Histo::kRequestRttUs].count -
      before[metrics::Histo::kRequestRttUs].count);

  for (auto& client : clients) client->disconnect();
}
BENCHMARK(BM_LoopbackDaemon)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace coorm::net

BENCHMARK_MAIN();
