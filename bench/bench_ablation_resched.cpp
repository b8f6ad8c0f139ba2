// Ablation: re-scheduling interval (§3.2 / §5.1.3).
//
// The paper sets the interval to 1 s "to obtain a very reactive system".
// We sweep it and measure the AMR end time and the PSA waste on the Fig. 9
// setup at overcommit 1. An update grant waits for the pass that places
// it; once placed, it starts on the release that frees its nodes (the
// predecessor's DONE, the filler's shrink), not at the pass after that.
#include <iostream>

#include "bench_util.hpp"
#include "coorm/exp/scenario.hpp"
#include "coorm/exp/table.hpp"

using namespace coorm;

namespace {

struct Outcome {
  bool finished = false;
  double endTimeSeconds = 0.0;
  double wasteNodeSeconds = 0.0;
};

Outcome runWithInterval(Time interval, std::uint64_t seed,
                        const EvalParams& eval) {
  const SpeedupModel model(paperSpeedupParams());
  Rng rng(seed);
  WorkingSetParams wsParams;
  wsParams.steps = eval.steps;
  const WorkingSetModel wsModel(wsParams);
  const std::vector<double> sizes =
      wsModel.generateSizesMiB(rng, eval.smaxMiB);
  const StaticAnalysis analysis(model, sizes);
  const NodeCount neq =
      analysis.equivalentStatic(eval.targetEfficiency).value_or(100);

  ScenarioConfig cfg;
  cfg.nodes = std::max<NodeCount>(1400, neq);
  if (coorm::bench::quick()) cfg.nodes = std::max<NodeCount>(500, neq);
  cfg.server.reschedInterval = interval;
  cfg.server.violationGrace = std::max(sec(5), 4 * interval);
  Scenario sc(cfg);

  AmrApp::Config amr;
  amr.cluster = sc.cluster();
  amr.model = model;
  amr.sizesMiB = sizes;
  amr.preallocNodes = neq;
  // Large intervals add up to ~2 intervals of grant latency per step.
  amr.walltime = satAdd(secF(3.0 * analysis.staticDuration(neq) + 7200.0),
                        4 * interval * static_cast<Time>(eval.steps));
  AmrApp& nea = sc.addAmr(amr);

  PsaApp::Config psaCfg;
  psaCfg.cluster = sc.cluster();
  psaCfg.taskDuration = eval.psa1TaskDuration;
  PsaApp& psa = sc.addPsa(psaCfg);

  sc.runUntilFinished(nea, satAdd(amr.walltime, amr.walltime));
  return {nea.finished(), toSeconds(nea.endTime()), psa.wasteNodeSeconds()};
}

}  // namespace

int main() {
  std::cout << "=== Ablation: re-scheduling interval ===\n";
  std::cout << coorm::bench::scaleLabel() << "\n\n";
  const EvalParams eval = coorm::bench::evalParams();
  const int seeds = coorm::bench::seedCount();

  TablePrinter table({"interval(s)", "median-AMR-end(s)",
                      "median-PSA-waste(node·s)"});
  for (const Time interval : {msec(100), sec(1), sec(5), sec(30)}) {
    std::vector<double> ends;
    std::vector<double> waste;
    bool allFinished = true;
    for (int s = 0; s < seeds; ++s) {
      const Outcome outcome =
          runWithInterval(interval, 7000 + static_cast<std::uint64_t>(s),
                          eval);
      allFinished = allFinished && outcome.finished;
      ends.push_back(outcome.endTimeSeconds);
      waste.push_back(outcome.wasteNodeSeconds);
    }
    table.addRow({TablePrinter::num(toSeconds(interval), 1),
                  allFinished ? TablePrinter::num(median(ends), 0)
                              : std::string("did-not-finish"),
                  TablePrinter::num(median(waste), 0)});
  }
  table.print(std::cout);
  std::cout << "\nLarger intervals delay update grants (longer AMR runs); "
               "1 s matches the paper's \"very reactive\" setting.\n";
  return 0;
}
