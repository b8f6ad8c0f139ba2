#include "cli_options.hpp"

#include <cstdlib>
#include <ostream>

namespace coorm::cli {

void printUsage(std::ostream& out) {
  out << "usage: coorm_sim|coorm_rmsd|coorm_loadgen [options]\n"
         "  --nodes N          cluster size (default 128)\n"
         "  --seed S           random seed (default 1)\n"
         "  --amr GIB          add an evolving AMR app with a working-set\n"
         "                     peak of GIB GiB\n"
         "  --amr-steps N      AMR steps (default 200)\n"
         "  --amr-static       force the AMR to use its whole pre-allocation\n"
         "  --overcommit F     pre-allocation = F x equivalent static\n"
         "  --announce SECS    announced updates (default 0 = spontaneous)\n"
         "  --psa SECS         add a malleable PSA with SECS-long tasks\n"
         "                     (repeatable)\n"
         "  --jobs N           add N synthetic rigid jobs\n"
         "  --swf FILE         replay a rigid SWF trace\n"
         "  --strict           strict equi-partitioning (no filling)\n"
         "  --until SECS       horizon when no AMR is present (default 86400)\n"
         "  --timeline         render an ASCII allocation timeline\n"
         "  --trace            dump the protocol trace\n"
         "  --listen ADDR:PORT coorm_rmsd: bind address (\":0\" = ephemeral\n"
         "                     port on 127.0.0.1)\n"
         "  --connect ADDR:PORT\n"
         "                     coorm_loadgen: daemon address to dial\n"
         "  --resched SECS     re-scheduling interval (default 1.0)\n"
         "  --stats            coorm_rmsd: query a running daemon's metrics\n"
         "                     via --connect and print them, then exit\n"
         "  --journal FILE     coorm_rmsd: write-ahead journal; replayed on\n"
         "                     startup to recover sessions after a crash\n"
         "  --idle-deadline SECS\n"
         "                     coorm_rmsd: drop peers silent for SECS\n"
         "                     (PINGed at SECS/2; default 0 = never)\n"
         "  --resume-grace SECS\n"
         "                     coorm_rmsd: window a vanished client may\n"
         "                     RESUME its session in (default 30)\n"
         "  --connections N    coorm_loadgen: concurrent sessions to hold\n"
         "                     open (default 1)\n"
         "  --probe M          coorm_loadgen: REQUEST round-trip latency\n"
         "                     probes after the ramp (default 0 = none)\n"
         "  --trace-out FILE   write pass-phase/I/O spans as Chrome\n"
         "                     trace-event JSON on exit (chrome://tracing)\n"
         "  --slow-pass-ms N   log a one-line phase breakdown for passes\n"
         "                     slower than N ms (default 0 = never)\n"
         "  --metrics-listen ADDR:PORT\n"
         "                     coorm_rmsd: serve Prometheus text format at\n"
         "                     http://ADDR:PORT/metrics\n"
         "  --stats-all        with --stats: print zero-valued counters and\n"
         "                     empty histograms too\n"
         "  --help             this text\n";
}

ParseResult parseArgs(int argc, const char* const* argv) {
  ParseResult result;
  Options& options = result.options;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      result.status = ParseStatus::kHelp;
      return result;
    } else if (arg == "--nodes" && (v = value(i))) {
      options.nodes = std::atoll(v);
    } else if (arg == "--seed" && (v = value(i))) {
      options.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--amr" && (v = value(i))) {
      options.amrPeakGiB = std::atof(v);
    } else if (arg == "--amr-steps" && (v = value(i))) {
      options.amrSteps = std::atoi(v);
    } else if (arg == "--amr-static") {
      options.amrStatic = true;
    } else if (arg == "--overcommit" && (v = value(i))) {
      options.overcommit = std::atof(v);
    } else if (arg == "--announce" && (v = value(i))) {
      options.announce = secF(std::atof(v));
    } else if (arg == "--psa" && (v = value(i))) {
      options.psaTasks.push_back(secF(std::atof(v)));
    } else if (arg == "--jobs" && (v = value(i))) {
      options.syntheticJobs = std::atoi(v);
    } else if (arg == "--swf" && (v = value(i))) {
      options.swfPath = v;
    } else if (arg == "--strict") {
      options.strictEquiPartition = true;
    } else if (arg == "--until" && (v = value(i))) {
      options.until = secF(std::atof(v));
    } else if (arg == "--timeline") {
      options.showTimeline = true;
    } else if (arg == "--trace") {
      options.showTrace = true;
    } else if (arg == "--listen" && (v = value(i))) {
      options.listen = net::parseEndpoint(v);
      if (!options.listen) {
        result.error = std::string("bad --listen endpoint: ") + v;
        return result;
      }
    } else if (arg == "--connect" && (v = value(i))) {
      options.connect = net::parseEndpoint(v);
      if (!options.connect) {
        result.error = std::string("bad --connect endpoint: ") + v;
        return result;
      }
    } else if (arg == "--resched" && (v = value(i))) {
      options.reschedInterval = secF(std::atof(v));
    } else if (arg == "--stats") {
      options.statsQuery = true;
    } else if (arg == "--journal" && (v = value(i))) {
      options.journalPath = v;
    } else if (arg == "--idle-deadline" && (v = value(i))) {
      options.idleDeadline = secF(std::atof(v));
    } else if (arg == "--resume-grace" && (v = value(i))) {
      options.resumeGrace = secF(std::atof(v));
    } else if (arg == "--connections" && (v = value(i))) {
      options.connections = std::atoi(v);
    } else if (arg == "--probe" && (v = value(i))) {
      options.probes = std::atoi(v);
    } else if (arg == "--trace-out" && (v = value(i))) {
      options.traceOut = v;
    } else if (arg == "--slow-pass-ms" && (v = value(i))) {
      options.slowPassMs = std::atoll(v);
    } else if (arg == "--metrics-listen" && (v = value(i))) {
      options.metricsListen = net::parseEndpoint(v);
      if (!options.metricsListen) {
        result.error = std::string("bad --metrics-listen endpoint: ") + v;
        return result;
      }
    } else if (arg == "--stats-all") {
      options.statsAll = true;
    } else {
      result.error = "unknown or incomplete option: " + arg;
      return result;
    }
  }
  if (options.nodes <= 0 || options.amrSteps <= 0 ||
      options.overcommit <= 0.0 || options.reschedInterval <= 0 ||
      options.idleDeadline < 0 || options.resumeGrace < 0 ||
      options.connections <= 0 || options.probes < 0 ||
      options.slowPassMs < 0) {
    result.error = "invalid numeric option";
    return result;
  }
  result.status = ParseStatus::kOk;
  return result;
}

}  // namespace coorm::cli
