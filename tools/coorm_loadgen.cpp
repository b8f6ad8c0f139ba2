// coorm_loadgen: drives the scripted application behaviours of
// exp/scenario (rigid jobs, malleable PSAs, evolving AMR apps) against a
// live coorm_rmsd daemon over TCP — the same actor classes the simulator
// runs, attached to net::RmsClient links instead of in-process Sessions.
//
//   coorm_rmsd   --listen 127.0.0.1:7788 --nodes 128 --resched 0.1 &
//   coorm_loadgen --connect 127.0.0.1:7788 --jobs 32 --psa 1 --until 30
//
// Rigid jobs submit one non-preemptible request each (sizes/durations
// drawn from --seed) and disconnect when done; PSAs fill leftover capacity
// preemptibly for the whole run; --amr adds one evolving AMR application
// whose working set keeps the views changing. Reports wall-clock
// requests/s at exit.
//
// C100k mode: --connections N additionally ramps up N view-subscriber
// sessions (HELLO, then hold the session and apply every view push) in
// batches, which is what the epoll serving path is sized for; --probe M
// then measures M REQUEST round trips under that load and reports the RTT
// distribution, and the daemon's delta/coalescing counters are queried
// over STATS for the wire-savings report:
//
//   coorm_loadgen --connect 127.0.0.1:7788 --psa 1
//       --connections 10000 --probe 200 --until 30     (one command line)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <iostream>
#include <memory>
#include <vector>

#include "cli_options.hpp"
#include "coorm/amr/static_analysis.hpp"
#include "coorm/amr/working_set.hpp"
#include "coorm/apps/amr_app.hpp"
#include "coorm/apps/psa.hpp"
#include "coorm/apps/rigid.hpp"
#include "coorm/common/rng.hpp"
#include "coorm/common/trace.hpp"
#include "coorm/net/client.hpp"
#include "coorm/net/io_executor.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void onSignal(int) { g_stop = 1; }

/// A session that only receives: it holds its AppLink open and counts the
/// view pushes it applies. Ten thousand of these are the C100k workload.
struct Subscriber final : coorm::AppEndpoint {
  std::uint64_t views = 0;
  void onViews(const coorm::View&, const coorm::View&) override { ++views; }
};

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
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
    std::cerr << "coorm_loadgen: " << parsed.error << "\n";
    cli::printUsage(std::cerr);
    return 2;
  }
  const cli::Options& options = parsed.options;
  if (!options.connect) {
    std::cerr << "coorm_loadgen: --connect ADDR:PORT is required\n";
    return 2;
  }
  if (options.syntheticJobs <= 0 && options.psaTasks.empty() &&
      !options.amrPeakGiB && options.connections <= 1) {
    std::cerr << "coorm_loadgen: nothing to drive (use --jobs, --psa, "
                 "--amr and/or --connections)\n";
    return 2;
  }

  // Thousands of client sockets need headroom above the default soft
  // RLIMIT_NOFILE (often 1024).
  net::raiseFdLimit();
  if (!options.traceOut.empty()) trace::enable();
  net::IoExecutor executor;
  Rng rng(options.seed);

  struct Actor {
    std::unique_ptr<net::RmsClient> client;
    std::unique_ptr<Application> app;
    RigidApp* rigid = nullptr;  ///< non-null for rigid jobs
  };
  std::vector<Actor> actors;

  const auto addActor = [&](std::unique_ptr<Application> app,
                            const std::string& name) -> Actor& {
    Actor actor;
    actor.client = std::make_unique<net::RmsClient>(
        executor, net::RmsClient::Config{*options.connect, name});
    actor.client->connect(*app);
    app->attach(*actor.client);
    actor.app = std::move(app);
    actors.push_back(std::move(actor));
    return actors.back();
  };

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::vector<std::unique_ptr<Subscriber>> subscribers;
  std::vector<std::unique_ptr<net::RmsClient>> subscriberClients;

  try {
    for (int j = 0; j < options.syntheticJobs; ++j) {
      RigidApp::Config config;
      config.nodes = rng.uniformInt(1, 8);
      config.duration = secF(rng.uniformReal(1.0, 5.0));
      const std::string name = "job" + std::to_string(j);
      auto app = std::make_unique<RigidApp>(executor, name, config);
      RigidApp* rigid = app.get();
      addActor(std::move(app), name).rigid = rigid;
    }
    for (std::size_t p = 0; p < options.psaTasks.size(); ++p) {
      PsaApp::Config config;
      config.taskDuration = options.psaTasks[p];
      config.rngSeed = options.seed + p;
      const std::string name = "psa" + std::to_string(p);
      addActor(std::make_unique<PsaApp>(executor, name, config), name);
    }
    if (options.amrPeakGiB) {
      // Same construction as coorm_sim: the evolving working set makes the
      // AMR renegotiate its allocation, which keeps the pushed views
      // changing — the traffic the delta encoding is measured against.
      WorkingSetParams wsParams;
      wsParams.steps = options.amrSteps;
      const WorkingSetModel wsModel(wsParams);
      Rng child = rng.fork();
      const auto sizes =
          wsModel.generateSizesMiB(child, *options.amrPeakGiB * 1024.0);
      const SpeedupModel model;
      const StaticAnalysis analysis(model, sizes);
      const NodeCount neq =
          analysis.equivalentStatic(0.75).value_or(options.nodes / 2);
      AmrApp::Config amrCfg;
      amrCfg.cluster = ClusterId{0};
      amrCfg.sizesMiB = sizes;
      amrCfg.preallocNodes = std::clamp<NodeCount>(
          static_cast<NodeCount>(options.overcommit *
                                 static_cast<double>(neq)),
          1, options.nodes);
      amrCfg.mode =
          options.amrStatic ? AmrApp::Mode::kStatic : AmrApp::Mode::kDynamic;
      amrCfg.announceInterval = options.announce;
      addActor(std::make_unique<AmrApp>(executor, "amr", amrCfg), "amr");
    }

    // The C100k ramp. Batched so the report shows progress and the loop
    // gets to drain queued view pushes between batches — the daemon's
    // outbound buffers must not grow while the ramp is still dialling.
    if (options.connections > 1) {
      const auto rampStart = std::chrono::steady_clock::now();
      constexpr int kBatch = 512;
      subscribers.reserve(static_cast<std::size_t>(options.connections));
      subscriberClients.reserve(static_cast<std::size_t>(options.connections));
      for (int c = 0; c < options.connections && g_stop == 0; ++c) {
        auto sub = std::make_unique<Subscriber>();
        auto client = std::make_unique<net::RmsClient>(
            executor, net::RmsClient::Config{*options.connect,
                                             "sub" + std::to_string(c)});
        client->connect(*sub);
        subscribers.push_back(std::move(sub));
        subscriberClients.push_back(std::move(client));
        if ((c + 1) % kBatch == 0) {
          executor.runOne(0);
          std::cout << "coorm_loadgen: ramped " << (c + 1) << "/"
                    << options.connections << " connections" << std::endl;
        }
      }
      const double rampSeconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        rampStart)
              .count();
      std::cout << "coorm_loadgen: connections=" << subscriberClients.size()
                << " ramp_s=" << rampSeconds << std::endl;
    }
  } catch (const std::exception& error) {
    std::cerr << "coorm_loadgen: " << error.what() << "\n";
    return 1;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds(options.until);
  while (g_stop == 0 && std::chrono::steady_clock::now() < deadline) {
    // Rigid jobs run to completion; PSAs, AMRs mid-run and held-open
    // subscriber sessions never finish on their own, so those runs last
    // until the deadline (that is the point of a load generator).
    bool allRigidDone = options.psaTasks.empty() && !options.amrPeakGiB &&
                        subscriberClients.empty();
    for (const Actor& actor : actors) {
      if (actor.rigid != nullptr && !actor.rigid->finished() &&
          !actor.app->wasKilled()) {
        allRigidDone = false;
        break;
      }
    }
    if (allRigidDone) break;
    executor.runOne(msec(50));
  }

  // Latency probes: REQUEST round trips on a fresh session while the
  // subscriber load is still attached. Between probes the loop runs once
  // so the held sessions keep draining their pushes.
  if (options.probes > 0 && g_stop == 0) {
    try {
      Subscriber probeEndpoint;
      net::RmsClient probe(
          executor, net::RmsClient::Config{*options.connect, "probe"});
      probe.connect(probeEndpoint);
      RequestSpec spec;
      spec.cluster = ClusterId{0};
      spec.nodes = 1;
      spec.duration = sec(60);
      std::vector<double> rttMs;
      rttMs.reserve(static_cast<std::size_t>(options.probes));
      for (int p = 0; p < options.probes && g_stop == 0; ++p) {
        const auto t0 = std::chrono::steady_clock::now();
        const RequestId id = probe.request(spec);
        rttMs.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
        if (id.valid()) probe.done(id);
        executor.runOne(0);
      }
      probe.disconnect();
      std::sort(rttMs.begin(), rttMs.end());
      double sum = 0;
      for (const double v : rttMs) sum += v;
      std::cout << "coorm_loadgen: probe rtt_ms n=" << rttMs.size()
                << " min=" << (rttMs.empty() ? 0.0 : rttMs.front())
                << " mean=" << (rttMs.empty() ? 0.0 : sum / rttMs.size())
                << " p50=" << percentile(rttMs, 0.5)
                << " p99=" << percentile(rttMs, 0.99)
                << " max=" << (rttMs.empty() ? 0.0 : rttMs.back())
                << std::endl;
    } catch (const std::exception& error) {
      std::cerr << "coorm_loadgen: probe failed: " << error.what() << "\n";
    }
  }

  // The daemon's own counters close the wire-savings loop: how many
  // pushes went out as deltas, how many bytes that saved, how many frames
  // each coalesced write batched.
  if (g_stop == 0) {
    try {
      net::RmsClient statsClient(
          executor, net::RmsClient::Config{*options.connect, "statsq"});
      statsClient.dial();
      if (const auto s = statsClient.stats()) {
        std::cout << "coorm_loadgen: daemon schedule_passes="
                  << (*s)[metrics::Event::kSchedulePasses]
                  << " wire_bytes_out=" << (*s)[metrics::Event::kWireBytesOut]
                  << " views_delta_sent="
                  << (*s)[metrics::Event::kViewsDeltaSent]
                  << " views_delta_bytes_saved="
                  << (*s)[metrics::Event::kViewsDeltaBytesSaved]
                  << " views_resync=" << (*s)[metrics::Event::kViewsResync]
                  << " frames_coalesced="
                  << (*s)[metrics::Event::kFramesCoalesced]
                  << " epoll_wakeups=" << (*s)[metrics::Event::kEpollWakeups]
                  << std::endl;
      }
      statsClient.disconnect();
    } catch (const std::exception&) {
      // A daemon that went away mid-run already showed up as kills above.
    }
  }

  std::uint64_t requests = 0;
  int finished = 0;
  int killed = 0;
  for (Actor& actor : actors) {
    requests += actor.client->requestsSent();
    finished += actor.rigid != nullptr && actor.rigid->finished() ? 1 : 0;
    killed += actor.app->wasKilled() ? 1 : 0;
    actor.client->disconnect();
  }
  std::uint64_t viewsApplied = 0;
  for (std::size_t i = 0; i < subscriberClients.size(); ++i) {
    viewsApplied += subscribers[i]->views;
    subscriberClients[i]->disconnect();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::cout << "coorm_loadgen: " << actors.size() << " apps, " << finished
            << " rigid jobs finished, " << killed << " killed, " << requests
            << " requests in " << seconds << " s ("
            << (seconds > 0 ? static_cast<double>(requests) / seconds : 0.0)
            << " requests/s)";
  if (!subscriberClients.empty()) {
    std::cout << ", " << subscriberClients.size() << " subscribers applied "
              << viewsApplied << " view pushes";
  }
  std::cout << std::endl;
  if (!options.traceOut.empty()) {
    std::string error;
    if (!trace::writeChromeTrace(options.traceOut, &error)) {
      std::cerr << "coorm_loadgen: --trace-out: " << error << "\n";
      return 1;
    }
    std::cout << "coorm_loadgen: trace written to " << options.traceOut
              << std::endl;
  }
  return 0;
}
