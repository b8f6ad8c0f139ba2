// Command-line option parsing shared by the coorm tools (coorm_sim,
// coorm_rmsd, coorm_loadgen).
//
// Kept separate from the drivers so tests can exercise argument handling
// without spawning a process: parseArgs() never exits and never touches
// global state; it reports --help and errors through ParseResult instead.
// One Options struct covers the union of the tools' flags; each driver
// reads the fields it cares about (and rejects what it must have, e.g.
// coorm_loadgen requires --connect).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "coorm/common/runtime_options.hpp"
#include "coorm/common/time.hpp"
#include "coorm/net/socket.hpp"
#include "coorm/rms/machine.hpp"

namespace coorm::cli {

/// Everything the coorm tools can be told on the command line.
struct Options {
  NodeCount nodes = 128;
  std::uint64_t seed = 1;
  std::optional<double> amrPeakGiB;
  int amrSteps = 200;
  double overcommit = 1.0;
  Time announce = 0;
  bool amrStatic = false;
  std::vector<Time> psaTasks;
  int syntheticJobs = 0;
  std::string swfPath;
  /// The shared runtime-tuning knobs (resched interval, strict
  /// equi-partitioning), parsed once here and projected into
  /// Server::Config by the drivers (--strict, --resched).
  RuntimeOptions runtime;
  Time until = hours(24);
  bool showTimeline = false;
  bool showTrace = false;
  /// coorm_rmsd: address to bind ("addr:port", ":port" or bare port; port
  /// 0 picks an ephemeral port). Unset unless --listen was given.
  std::optional<net::Endpoint> listen;
  /// coorm_loadgen: daemon address to dial. Unset unless --connect was
  /// given.
  std::optional<net::Endpoint> connect;
  /// coorm_rmsd --stats: dial `connect`, send a STATS admin query, print
  /// the daemon's counters, and exit (instead of running a daemon).
  bool statsQuery = false;
  /// coorm_rmsd: write-ahead journal path. On startup the daemon replays
  /// it (rebuilding sessions/requests/allocations) before accepting
  /// connections; empty = no crash safety.
  std::string journalPath;
  /// coorm_rmsd: drop peers silent for this long (0 = never). Half the
  /// deadline triggers a PING first.
  Time idleDeadline = 0;
  /// coorm_rmsd: how long a vanished client's session stays resumable
  /// before the reaper disconnects it.
  Time resumeGrace = sec(30);
  /// coorm_loadgen: concurrent AppLink sessions to hold open (ramped up
  /// in batches so the daemon's accept loop is never the bottleneck).
  int connections = 1;
  /// coorm_loadgen: REQUEST round-trip latency probes to run once the
  /// ramp is complete (0 = skip the latency report).
  int probes = 0;
  /// All tools: dump pass-phase / I/O spans as Chrome trace-event JSON
  /// to this file on exit (chrome://tracing, Perfetto). Empty = tracing
  /// stays disabled (and costs one predicted branch per span site).
  std::string traceOut;
  /// coorm_sim / coorm_rmsd: log a one-line phase breakdown for every
  /// scheduling pass slower than this (0 = never).
  Time slowPassMs = 0;
  /// coorm_rmsd: serve Prometheus text exposition at
  /// http://ADDR:PORT/metrics on the daemon's event loop. Unset = no
  /// scrape endpoint.
  std::optional<net::Endpoint> metricsListen;
  /// coorm_rmsd --stats: print zero-valued counters and empty histograms
  /// too (default suppresses them).
  bool statsAll = false;
};

enum class ParseStatus {
  kOk,    ///< options is valid, run the simulation
  kHelp,  ///< --help was given; print usage and exit 0
  kError  ///< bad input; `error` explains, print usage and exit non-zero
};

struct ParseResult {
  ParseStatus status = ParseStatus::kError;
  Options options;
  std::string error;

  [[nodiscard]] bool ok() const { return status == ParseStatus::kOk; }
};

/// Parses argv (argv[0] is skipped as the program name). Pure: no I/O.
[[nodiscard]] ParseResult parseArgs(int argc, const char* const* argv);

/// Writes the usage/option summary to `out`.
void printUsage(std::ostream& out);

}  // namespace coorm::cli
