// coorm_sim — command-line driver for the CooRMv2 simulator.
//
// Builds a scenario from command-line options (evolving AMR applications,
// malleable PSAs, synthetic rigid workloads or SWF traces), runs it, and
// reports allocations, utilization, and optionally an ASCII allocation
// timeline and the full protocol trace.
//
// Examples:
//   coorm_sim --nodes 256 --amr 200 --psa 600 --timeline
//   coorm_sim --nodes 128 --jobs 50 --psa 60 --until 86400
//   coorm_sim --swf trace.swf --nodes 512
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli_options.hpp"
#include "coorm/amr/static_analysis.hpp"
#include "coorm/amr/working_set.hpp"
#include "coorm/common/log.hpp"
#include "coorm/common/trace.hpp"
#include "coorm/exp/scenario.hpp"
#include "coorm/exp/table.hpp"
#include "coorm/workload/player.hpp"

using namespace coorm;

int main(int argc, char** argv) {
  const cli::ParseResult parsed = cli::parseArgs(argc, argv);
  if (parsed.status == cli::ParseStatus::kHelp) {
    cli::printUsage(std::cout);
    return 0;
  }
  if (!parsed.ok()) {
    std::cerr << parsed.error << "\n\n";
    cli::printUsage(std::cerr);
    return 2;
  }
  const cli::Options& options = parsed.options;

  ScenarioConfig config;
  config.nodes = options.nodes;
  config.server.reschedInterval = options.reschedInterval;
  config.server.strictEquiPartition = options.strictEquiPartition;
  config.server.slowPass = options.slowPassMs;
  if (options.slowPassMs > 0 && logLevel() > LogLevel::kWarn) {
    setLogLevel(LogLevel::kWarn);
  }
  if (!options.traceOut.empty()) trace::enable();
  config.recordTrace = options.showTrace;
  Scenario sc(config);
  Rng rng(options.seed);

  // Evolving AMR application.
  AmrApp* amr = nullptr;
  if (options.amrPeakGiB) {
    WorkingSetParams wsParams;
    wsParams.steps = options.amrSteps;
    const WorkingSetModel wsModel(wsParams);
    Rng child = rng.fork();
    const auto sizes =
        wsModel.generateSizesMiB(child, *options.amrPeakGiB * 1024.0);
    const SpeedupModel model;
    const StaticAnalysis analysis(model, sizes);
    const NodeCount neq = analysis.equivalentStatic(0.75).value_or(
        options.nodes / 2);

    AmrApp::Config amrCfg;
    amrCfg.cluster = sc.cluster();
    amrCfg.sizesMiB = sizes;
    amrCfg.preallocNodes = std::clamp<NodeCount>(
        static_cast<NodeCount>(options.overcommit *
                               static_cast<double>(neq)),
        1, options.nodes);
    amrCfg.walltime = hours(24 * 7);
    amrCfg.mode =
        options.amrStatic ? AmrApp::Mode::kStatic : AmrApp::Mode::kDynamic;
    amrCfg.announceInterval = options.announce;
    amr = &sc.addAmr(amrCfg, "amr");
    std::cout << "amr: peak " << *options.amrPeakGiB << " GiB, n_eq ~ "
              << neq << ", pre-allocation " << amrCfg.preallocNodes
              << " nodes\n";
  }

  // Malleable PSAs.
  std::vector<PsaApp*> psas;
  for (std::size_t i = 0; i < options.psaTasks.size(); ++i) {
    PsaApp::Config psaCfg;
    psaCfg.cluster = sc.cluster();
    psaCfg.taskDuration = options.psaTasks[i];
    psaCfg.rngSeed = options.seed * 100 + i;
    psas.push_back(&sc.addPsa(psaCfg, "psa" + std::to_string(i + 1)));
  }

  // Rigid workload: SWF trace or synthetic.
  std::unique_ptr<WorkloadPlayer> player;
  if (!options.swfPath.empty()) {
    std::ifstream in(options.swfPath);
    if (!in) {
      std::cerr << "cannot open " << options.swfPath << '\n';
      return 2;
    }
    std::string error;
    const auto workload = Workload::parseSwf(in, &error);
    if (!workload) {
      std::cerr << "SWF parse error: " << error << '\n';
      return 2;
    }
    std::cout << "trace: " << workload->size() << " jobs\n";
    player = std::make_unique<WorkloadPlayer>(sc.engine(), sc.server(),
                                              sc.cluster(), *workload);
  } else if (options.syntheticJobs > 0) {
    SyntheticWorkloadParams params;
    params.jobs = options.syntheticJobs;
    params.maxProcessors = std::max<NodeCount>(options.nodes / 2, 1);
    Rng child = rng.fork();
    const Workload workload = generateWorkload(params, child);
    std::cout << "synthetic workload: " << workload.size() << " jobs\n";
    player = std::make_unique<WorkloadPlayer>(sc.engine(), sc.server(),
                                              sc.cluster(), workload);
  }

  // Run.
  Time end;
  if (amr != nullptr) {
    end = sc.runUntilFinished(*amr, hours(24 * 30));
  } else {
    end = sc.runFor(options.until);
  }

  // Report.
  std::cout << "\n=== results (t = " << toSeconds(end) << " s) ===\n";
  TablePrinter table({"application", "allocated(node·s)", "notes"});
  if (amr != nullptr) {
    table.addRow({"amr",
                  TablePrinter::num(
                      sc.metrics().allocatedNodeSeconds(amr->appId()), 0),
                  (amr->finished() ? "finished, " : "running, ") +
                      std::to_string(amr->stepsCompleted()) + " steps"});
  }
  for (PsaApp* psa : psas) {
    table.addRow({psa->name(),
                  TablePrinter::num(
                      sc.metrics().allocatedNodeSeconds(psa->appId()), 0),
                  std::to_string(psa->tasksCompleted()) + " tasks, " +
                      std::to_string(psa->tasksKilled()) + " killed"});
  }
  table.print(std::cout);

  if (player != nullptr) {
    const WorkloadStats stats = player->stats(options.nodes);
    std::cout << "rigid jobs: " << stats.completed << '/' << stats.submitted
              << " completed, mean wait "
              << TablePrinter::num(stats.meanWaitSeconds, 0)
              << " s, mean bounded slowdown "
              << TablePrinter::num(stats.meanBoundedSlowdown, 2) << '\n';
  }

  double waste = 0.0;
  for (PsaApp* psa : psas) waste += psa->wasteNodeSeconds();
  const double capacity =
      static_cast<double>(options.nodes) * toSeconds(end);
  if (capacity > 0) {
    std::cout << "used resources: "
              << TablePrinter::num((sc.metrics().totalAllocatedNodeSeconds() -
                                    waste) /
                                       capacity * 100.0,
                                   1)
              << " % (waste " << TablePrinter::num(waste, 0) << " node·s)\n";
  }

  if (options.showTimeline) {
    std::cout << "\n=== allocation timeline ===\n";
    sc.timeline().render(std::cout, 0, end, options.nodes);
  }
  if (options.showTrace) {
    std::cout << "\n=== protocol trace ===\n";
    sc.trace().dump(std::cout);
  }
  if (!options.traceOut.empty()) {
    std::string error;
    if (!trace::writeChromeTrace(options.traceOut, &error)) {
      std::cerr << "coorm_sim: --trace-out: " << error << '\n';
      return 1;
    }
    std::cout << "trace written to " << options.traceOut << '\n';
  }
  return 0;
}
