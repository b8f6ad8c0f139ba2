// Shared harness for the network suites: scripted protocol actors whose
// behaviour is transport-independent, plus the machinery to run the same
// scripted scenario once against an in-process Server (discrete-event
// Engine — the deterministic reference) and once against a coorm_rmsd-style
// daemon over loopback TCP, recording *normalized* per-app event traces
// that must come out identical (the paper derived its simulator from the
// prototype by replacing remote calls with direct calls; this harness pins
// that the two remain behaviourally interchangeable).
//
// Normalization: every downstream event an application observes becomes a
// line that contains no transport-dependent data — request ids map to
// per-app submission ordinals, views record each profile's canonical
// segment-value sequence (its shape; absolute breakpoint times live on the
// server's clock, whose epoch a remote client does not share), and node
// grants record counts, not id values.
#pragma once

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coorm/net/client.hpp"
#include "coorm/net/daemon.hpp"
#include "coorm/net/io_executor.hpp"
#include "coorm/net/poll_executor.hpp"
#include "coorm/rms/server.hpp"
#include "coorm/sim/engine.hpp"

namespace coorm::nettest {

/// A scripted protocol actor: records a normalized trace of everything the
/// RMS tells it, and reacts through assignable hooks (the "script"). The
/// same object drives an in-process Session or a net::RmsClient.
class ScriptApp : public AppEndpoint {
 public:
  explicit ScriptApp(std::vector<ClusterId> clusters = {ClusterId{0}})
      : clusters_(std::move(clusters)) {}

  void bind(AppLink& link) { link_ = &link; }

  // --- script-side actions -------------------------------------------------

  /// Submits and returns the per-app ordinal of the new request.
  int submit(const RequestSpec& spec) {
    const RequestId id = link_->request(spec);
    submitted.push_back(id);
    granted.emplace_back();
    return static_cast<int>(submitted.size()) - 1;
  }

  void finish(int ordinal, std::vector<NodeId> released = {}) {
    link_->done(submitted[static_cast<std::size_t>(ordinal)],
                std::move(released));
  }

  void leave() {
    link_->disconnect();
    left = true;
  }

  // --- observed state ------------------------------------------------------

  std::vector<std::string> trace;
  std::vector<RequestId> submitted;              ///< by ordinal
  std::vector<std::vector<NodeId>> granted;      ///< by ordinal
  int viewsCount = 0;
  int startedCount = 0;
  bool killed = false;
  bool left = false;

  // --- the script ----------------------------------------------------------

  std::function<void()> onFirstViews;
  std::function<void(int)> onStartedHook;  ///< by ordinal
  std::function<void(int)> onExpiredHook;  ///< default: finish(ordinal)
  std::function<void(int)> onEndedHook;
  /// Every push, un-normalized — the delta-vs-full bit-identity test
  /// records the raw View pairs the client applied.
  std::function<void(const View&, const View&)> onViewsRaw;

  // --- AppEndpoint ---------------------------------------------------------

  void onViews(const View& nonPreemptive, const View& preemptive) override {
    if (onViewsRaw) onViewsRaw(nonPreemptive, preemptive);
    const auto shape = [this](const View& view) {
      std::string text;
      for (const ClusterId cid : clusters_) {
        text += "[";
        for (const StepFunction::Segment& seg : view.cap(cid).segments()) {
          text += std::to_string(seg.value) + " ";
        }
        text += "]";
      }
      return text;
    };
    std::string line =
        "views np=" + shape(nonPreemptive) + " p=" + shape(preemptive);
    // Record state *changes*: wall-clock ms jitter (e.g. a done() arriving
    // 1 ms after the expiry instead of in the same instant) shifts profile
    // breakpoints, which the server's exact change detection re-pushes but
    // the value-shape normalization above already hides. Collapsing
    // shape-identical consecutive pushes keeps the trace transport-
    // independent without losing any state transition.
    ++viewsCount;
    if (line != lastViews_) {
      lastViews_ = line;
      trace.push_back(std::move(line));
    }
    if (viewsCount == 1 && onFirstViews) onFirstViews();
  }

  void onStarted(RequestId id, const std::vector<NodeId>& nodeIds) override {
    const int o = ordinal(id);
    trace.push_back("started #" + std::to_string(o) +
                    " nodes=" + std::to_string(nodeIds.size()));
    if (o >= 0) granted[static_cast<std::size_t>(o)] = nodeIds;
    ++startedCount;
    if (onStartedHook) onStartedHook(o);
  }

  void onExpired(RequestId id) override {
    const int o = ordinal(id);
    trace.push_back("expired #" + std::to_string(o));
    if (onExpiredHook) {
      onExpiredHook(o);
    } else if (o >= 0) {
      finish(o);
    }
  }

  void onEnded(RequestId id) override {
    const int o = ordinal(id);
    trace.push_back("ended #" + std::to_string(o));
    if (onEndedHook) onEndedHook(o);
  }

  void onKilled() override {
    trace.push_back("killed");
    killed = true;
  }

 private:
  [[nodiscard]] int ordinal(RequestId id) const {
    for (std::size_t i = 0; i < submitted.size(); ++i) {
      if (submitted[i] == id) return static_cast<int>(i);
    }
    return -1;
  }

  std::vector<ClusterId> clusters_;
  AppLink* link_ = nullptr;
  std::string lastViews_;
};

/// How a scenario's actors reach the RMS; the one seam the two runs differ
/// in.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual AppLink& add(AppEndpoint& endpoint, const std::string& name) = 0;
};

class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(Server& server) : server_(server) {}
  AppLink& add(AppEndpoint& endpoint, const std::string&) override {
    return *server_.connect(endpoint);
  }

 private:
  Server& server_;
};

class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(net::IoExecutor& executor, std::uint16_t port)
      : executor_(executor), port_(port) {}

  AppLink& add(AppEndpoint& endpoint, const std::string& name) override {
    auto client = std::make_unique<net::RmsClient>(
        executor_,
        net::RmsClient::Config{net::Endpoint{"127.0.0.1", port_}, name});
    client->connect(endpoint);
    clients_.push_back(std::move(client));
    return *clients_.back();
  }

 private:
  net::IoExecutor& executor_;
  std::uint16_t port_;
  std::vector<std::unique_ptr<net::RmsClient>> clients_;
};

/// One externally-driven scenario step: when `ready` first holds (checked
/// between dispatched events), `action` runs. Steps fire in order.
struct Step {
  std::function<bool()> ready;
  std::function<void()> action;
};

/// A scripted scenario, described once and run on either transport.
struct Scenario {
  std::vector<Step> steps;
  std::function<bool()> finished;
};

/// Runs a scenario on the discrete-event engine. Returns false if the
/// event queue drained (or `maxVirtual` passed) before every step fired
/// and `finished` held; afterwards the queue is drained completely (the
/// settle phase — remaining view pushes etc.).
inline bool runInProcess(Engine& engine, Scenario& scenario,
                         Time maxVirtual = minutes(10)) {
  std::size_t next = 0;
  while (engine.now() <= maxVirtual) {
    if (next < scenario.steps.size() && scenario.steps[next].ready()) {
      scenario.steps[next].action();
      ++next;
      continue;
    }
    if (next >= scenario.steps.size() && scenario.finished()) break;
    if (!engine.step()) return false;  // drained without finishing
  }
  engine.run();  // settle
  return next >= scenario.steps.size() && scenario.finished();
}

/// Runs a scenario against a daemon over loopback TCP, pumping the client
/// loop. `settle` keeps pumping after `finished` so trailing pushes land.
inline bool runLoopback(net::IoExecutor& executor, Scenario& scenario,
                        Time settle = msec(600), Time timeout = sec(30)) {
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds(timeout);
  std::size_t next = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (next < scenario.steps.size() && scenario.steps[next].ready()) {
      scenario.steps[next].action();
      ++next;
      continue;
    }
    if (next >= scenario.steps.size() && scenario.finished()) break;
    executor.runOne(msec(5));
  }
  if (next < scenario.steps.size() || !scenario.finished()) return false;
  const auto settleEnd =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(settle);
  while (std::chrono::steady_clock::now() < settleEnd) {
    executor.runOne(msec(5));
  }
  return true;
}

/// A coorm_rmsd-shaped daemon on its own thread: IoExecutor (poll or
/// epoll backend) + Server + net::Daemon on an ephemeral loopback port,
/// torn down on destruction. Test-side code talks to it through TCP only.
class DaemonFixture {
 public:
  /// `mutate` (optional) edits the daemon config before the listener comes
  /// up — backend differential tests switch deltaViews here.
  DaemonFixture(Server::Config config, NodeCount nodes,
                IoBackend backend = IoBackend::kPoll,
                std::function<void(net::Daemon::Config&)> mutate = {}) {
    thread_ = std::thread([this, config, nodes, backend, mutate] {
      auto executor = net::makeIoExecutor(backend);
      Server server(*executor, Machine::single(nodes), config);
      net::Daemon::Config daemonConfig{net::Endpoint{"127.0.0.1", 0}};
      if (mutate) mutate(daemonConfig);
      net::Daemon daemon(*executor, server, daemonConfig);
      port_.store(daemon.port());
      while (!stop_.load()) executor->runOne(msec(5));
      daemon.close();
    });
    while (port_.load() == 0) std::this_thread::yield();
  }

  ~DaemonFixture() {
    stop_.store(true);
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return port_.load(); }

 private:
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint16_t> port_{0};
};

/// The chaos harness: a real coorm_rmsd in a fork+exec'd child process,
/// SIGKILLable mid-run and restartable on the same journal — so a kill
/// exercises the exact crash-recovery path an operator's daemon runs
/// (scan, replay, clock jump, RESUME re-attach). fork+exec (rather than
/// running the daemon in-process post-fork) keeps the child safe even
/// when the test parent has threads, and the listen port is reserved once
/// up front (bind + close; SO_REUSEADDR) so clients redial the same
/// endpoint across restarts.
class ChildDaemon {
 public:
  /// `binary` is the coorm_rmsd executable (tests get it injected via the
  /// build); `extraArgs` ride after --listen/--journal.
  ChildDaemon(std::string binary, std::string journalPath,
              std::vector<std::string> extraArgs)
      : binary_(std::move(binary)),
        journalPath_(std::move(journalPath)),
        extraArgs_(std::move(extraArgs)) {
    std::string error;
    const net::Fd probe = net::listenOn(net::Endpoint{"127.0.0.1", 0}, error);
    port_ = net::boundPort(probe.get());
  }

  ~ChildDaemon() { kill(); }

  ChildDaemon(const ChildDaemon&) = delete;
  ChildDaemon& operator=(const ChildDaemon&) = delete;

  void start() {
    if (pid_ > 0) return;
    std::vector<std::string> args = {
        binary_, "--listen", "127.0.0.1:" + std::to_string(port_),
        "--journal", journalPath_};
    args.insert(args.end(), extraArgs_.begin(), extraArgs_.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      // Child: keep stderr (recovery refusals are diagnosable in test
      // logs) but drop the banner chatter on stdout.
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::execv(binary_.c_str(), argv.data());
      _exit(127);  // exec failed; the test sees connection refusals
    }
  }

  /// SIGKILL, then reap: no shutdown path runs — exactly what a crash
  /// looks like to the journal and to connected clients.
  void kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  void restart() {
    kill();
    start();
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool running() const { return pid_ > 0; }

 private:
  std::string binary_;
  std::string journalPath_;
  std::vector<std::string> extraArgs_;
  std::uint16_t port_ = 0;
  pid_t pid_ = -1;
};

}  // namespace coorm::nettest
