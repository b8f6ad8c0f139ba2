// coorm_rmsd: the CooRMv2 RMS as a network daemon.
//
// Runs the exact same `Server` the simulator exercises — incremental
// passes and all — on a real-time epoll loop, serving the wire
// protocol (net/wire.hpp) over TCP. Applications connect with
// net::RmsClient (or anything that speaks the frames); `coorm_loadgen` is
// the bundled load generator.
//
//   coorm_rmsd --listen 127.0.0.1:7788 --nodes 256 --resched 0.1
//
// Stops cleanly on SIGINT/SIGTERM (drops every connection, which the RMS
// observes as disconnects).
#include <algorithm>
#include <csignal>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cli_options.hpp"
#include "coorm/common/log.hpp"
#include "coorm/common/metrics.hpp"
#include "coorm/common/trace.hpp"
#include "coorm/net/client.hpp"
#include "coorm/net/daemon.hpp"
#include "coorm/net/io_executor.hpp"
#include "coorm/net/metrics_http.hpp"
#include "coorm/net/socket.hpp"
#include "coorm/rms/journal.hpp"
#include "coorm/rms/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void onSignal(int) { g_stop = 1; }

/// Renders a stats snapshot as sorted `key value` lines. Zero-valued
/// counters and empty histograms are suppressed unless `all`; histograms
/// expand to _count/_sum/_p50/_p90/_p99/_p999 keys.
std::vector<std::pair<std::string, std::string>> statsLines(
    const coorm::metrics::Snapshot& stats, bool all) {
  using namespace coorm;
  std::vector<std::pair<std::string, std::string>> lines;
  for (std::size_t i = 0; i < metrics::kEventCount; ++i) {
    if (stats.events[i] == 0 && !all) continue;
    lines.emplace_back(metrics::name(static_cast<metrics::Event>(i)),
                       std::to_string(stats.events[i]));
  }
  for (std::size_t i = 0; i < metrics::kGaugeCount; ++i) {
    if (stats.gauges[i] == 0 && !all) continue;
    lines.emplace_back(metrics::name(static_cast<metrics::Gauge>(i)),
                       std::to_string(stats.gauges[i]));
  }
  for (std::size_t i = 0; i < metrics::kHistoCount; ++i) {
    const metrics::HistogramData& h = stats.histos[i];
    if (h.count == 0 && !all) continue;
    const std::string base{metrics::name(static_cast<metrics::Histo>(i))};
    lines.emplace_back(base + "_count", std::to_string(h.count));
    lines.emplace_back(base + "_sum", std::to_string(h.sum));
    lines.emplace_back(base + "_p50", std::to_string(h.quantile(0.50)));
    lines.emplace_back(base + "_p90", std::to_string(h.quantile(0.90)));
    lines.emplace_back(base + "_p99", std::to_string(h.quantile(0.99)));
    lines.emplace_back(base + "_p999", std::to_string(h.quantile(0.999)));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace coorm;

  const cli::ParseResult parsed = cli::parseArgs(argc, argv);
  if (parsed.status == cli::ParseStatus::kHelp) {
    cli::printUsage(std::cout);
    return 0;
  }
  if (!parsed.ok()) {
    std::cerr << "coorm_rmsd: " << parsed.error << "\n";
    cli::printUsage(std::cerr);
    return 2;
  }
  const cli::Options& options = parsed.options;

  // Admin query mode: dial a running daemon, print its counters, exit.
  if (options.statsQuery) {
    if (!options.connect) {
      std::cerr << "coorm_rmsd: --stats needs --connect ADDR:PORT\n";
      return 2;
    }
    try {
      net::IoExecutor executor;
      net::RmsClient client(
          executor, net::RmsClient::Config{*options.connect, "statsq"});
      client.dial();
      const auto stats = client.stats();
      client.disconnect();
      if (!stats) {
        std::cerr << "coorm_rmsd: stats query to "
                  << net::toString(*options.connect) << " failed\n";
        return 1;
      }
      for (const auto& [key, text] : statsLines(*stats, options.statsAll)) {
        std::cout << key << " " << text << "\n";
      }
    } catch (const std::exception& error) {
      std::cerr << error.what() << "\n";
      return 1;
    }
    return 0;
  }

  if (!options.listen) {
    std::cerr << "coorm_rmsd: --listen ADDR:PORT is required\n";
    return 2;
  }

  Server::Config config;
  config.reschedInterval = options.reschedInterval;
  config.strictEquiPartition = options.strictEquiPartition;
  config.slowPass = options.slowPassMs;
  // The slow-pass breakdown logs at kWarn; make it visible even though
  // the default level is off.
  if (options.slowPassMs > 0 && logLevel() > LogLevel::kWarn) {
    setLogLevel(LogLevel::kWarn);
  }
  if (!options.traceOut.empty()) trace::enable();

  // C100k posture: lift RLIMIT_NOFILE to its hard cap before the listener
  // exists, so accept() never starts failing mid-ramp.
  net::raiseFdLimit();
  net::IoExecutor executor;
  // Declared before the Server so the journal outlives every Server write.
  std::unique_ptr<rms::Journal> journal;
  Server server(executor, Machine::single(options.nodes), config);

  // Crash safety: replay the journal into the fresh server (refusing
  // corrupt-at-rest files), jump the loop clock to where the dead process
  // left off, then attach the journal for new writes. Clients hold session
  // tokens that survive the restart, so RESUME re-attaches them.
  if (!options.journalPath.empty()) {
    const rms::ScanResult scan = rms::Journal::scan(options.journalPath);
    if (scan.refused) {
      std::cerr << "coorm_rmsd: refusing journal " << options.journalPath
                << ": " << scan.diagnostic << "\n";
      return 1;
    }
    Time lastTime = kNever;
    std::string error;
    if (!server.restoreFromJournal(scan.records, &lastTime, &error)) {
      std::cerr << "coorm_rmsd: journal replay failed: " << error << "\n";
      return 1;
    }
    if (lastTime != kNever) executor.advanceTo(lastTime);
    journal =
        std::make_unique<rms::Journal>(options.journalPath, scan.validBytes);
    server.attachJournal(journal.get());
    std::cout << "coorm_rmsd: journal " << options.journalPath << ": "
              << scan.records.size() << " records replayed"
              << (scan.truncatedTail ? " (torn tail truncated)" : "")
              << std::endl;
  }

  try {
    net::Daemon::Config daemonConfig{*options.listen};
    daemonConfig.idleDeadline = options.idleDeadline;
    daemonConfig.resumeGrace = options.resumeGrace;
    net::Daemon daemon(executor, server, daemonConfig);
    net::MetricsHttpServer metricsHttp(executor);
    if (options.metricsListen) {
      std::string error;
      if (!metricsHttp.start(*options.metricsListen, error)) {
        std::cerr << "coorm_rmsd: --metrics-listen: " << error << "\n";
        return 1;
      }
      std::cout << "coorm_rmsd: metrics at http://"
                << options.metricsListen->host << ":" << metricsHttp.port()
                << "/metrics" << std::endl;
    }
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::cout << "coorm_rmsd: serving " << options.nodes << " nodes on "
              << options.listen->host << ":" << daemon.port() << std::endl;

    while (g_stop == 0) executor.runOne(msec(200));

    std::cout << "coorm_rmsd: shutting down (" << daemon.connectionCount()
              << " connections, " << daemon.framesIn() << " frames in, "
              << daemon.framesOut() << " out, " << server.passCount()
              << " passes)" << std::endl;
    daemon.close();
    metricsHttp.stop();
  } catch (const std::exception& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }
  if (!options.traceOut.empty()) {
    std::string error;
    if (!trace::writeChromeTrace(options.traceOut, &error)) {
      std::cerr << "coorm_rmsd: --trace-out: " << error << "\n";
      return 1;
    }
    std::cout << "coorm_rmsd: trace written to " << options.traceOut
              << std::endl;
  }
  return 0;
}
