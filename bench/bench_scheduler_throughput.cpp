// Scheduler throughput (§3.2).
//
// The paper's Python+C++ prototype handled ~500 requests/second on one
// core of a 2009-era CPU, with linear complexity in the number of
// requests. We measure the pure C++ scheduler (Algorithm 4) over synthetic
// request populations of varying size, reporting requests/second and
// verifying the roughly-linear scaling.
//
// Scenario families:
//  - BM_SchedulePass: the historical mix (pre-allocation + NP chain +
//    one preemptible per application) on a single 4096-node cluster;
//  - BM_ScheduleLargeScale: 256–4096 applications, capacity scaled with
//    the population so the machine stays contended but not degenerate;
//  - BM_ScheduleDeepChains: long alternating NEXT/COALLOC constraint
//    chains, stressing fit()'s constraint propagation;
//  - BM_ScheduleMultiCluster: applications spread over 8 clusters;
//  - BM_EqSchedule: Algorithm 3 in isolation (half the applications hold
//    started preemptible allocations, half have pending ones);
//  - BM_ServerPipeline: the full Server + Engine stack — every pass's
//    prune, capture, schedule, write-back, views and commit — under a
//    message-heavy multi-app protocol load (arg: apps);
//  - BM_ScheduleIncremental / BM_SchedulePopulation: steady-state
//    incremental passes over lease and pre-allocation populations, the
//    latter shaped like servebench `population`.
//
// `tools/bench_report.py` turns `--benchmark_format=json` output from this
// binary into the committed BENCH_scheduler.json trajectory.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "coorm/common/metrics.hpp"
#include "coorm/common/rng.hpp"
#include "coorm/rms/scheduler.hpp"
#include "coorm/rms/server.hpp"
#include "coorm/sim/engine.hpp"

namespace coorm {
namespace {

struct PopulationParams {
  int napps = 4;
  int chain = 2;            ///< NP requests chained after the first one
  int nclusters = 1;
  NodeCount nodesPerCluster = 4096;
  bool mixCoAlloc = false;  ///< alternate NEXT/COALLOC along the chain
  bool startedPreemptibles = false;  ///< every other app holds nodes already
  std::uint64_t seed = 99;
};

struct Population {
  Machine machine;
  std::vector<std::unique_ptr<Request>> owned;
  std::vector<std::unique_ptr<RequestSet>> sets;
  std::vector<AppSchedule> apps;
  std::size_t requestCount = 0;

  // A mix mirroring the evaluation: each application has a pre-allocation,
  // a couple of chained NP requests inside it, and a preemptible request.
  explicit Population(const PopulationParams& params) {
    Rng rng(params.seed);
    std::int64_t nextId = 0;
    for (int c = 0; c < params.nclusters; ++c) {
      machine.clusters.push_back({ClusterId{c}, params.nodesPerCluster});
    }
    apps.reserve(static_cast<std::size_t>(params.napps));
    for (int a = 0; a < params.napps; ++a) {
      const ClusterId cid{a % params.nclusters};
      sets.push_back(std::make_unique<RequestSet>());
      RequestSet* pa = sets.back().get();
      sets.push_back(std::make_unique<RequestSet>());
      RequestSet* np = sets.back().get();
      sets.push_back(std::make_unique<RequestSet>());
      RequestSet* p = sets.back().get();

      auto add = [&](RequestSet* set, NodeCount nodes, Time duration,
                     RequestType type, Relation how,
                     Request* parent) -> Request* {
        auto r = std::make_unique<Request>();
        r->id = RequestId{nextId++};
        r->cluster = cid;
        r->nodes = nodes;
        r->duration = duration;
        r->type = type;
        r->relatedHow = how;
        r->relatedTo = parent;
        set->add(r.get());
        owned.push_back(std::move(r));
        ++requestCount;
        return owned.back().get();
      };

      Request* prealloc = add(pa, rng.uniformInt(4, 64),
                              sec(rng.uniformInt(600, 7200)),
                              RequestType::kPreAllocation, Relation::kFree,
                              nullptr);
      Request* inner =
          add(np, rng.uniformInt(1, prealloc->nodes),
              sec(rng.uniformInt(300, 3600)), RequestType::kNonPreemptible,
              Relation::kCoAlloc, prealloc);
      for (int k = 0; k < params.chain; ++k) {
        const Relation how = (params.mixCoAlloc && k % 2 == 1)
                                 ? Relation::kCoAlloc
                                 : Relation::kNext;
        inner = add(np, rng.uniformInt(1, prealloc->nodes),
                    sec(rng.uniformInt(300, 3600)),
                    RequestType::kNonPreemptible, how, inner);
      }
      Request* preemptible =
          add(p, rng.uniformInt(1, 32), kTimeInf, RequestType::kPreemptible,
              Relation::kFree, nullptr);
      if (params.startedPreemptibles && a % 2 == 0) {
        preemptible->startedAt = 0;
        for (NodeCount n = 0; n < preemptible->nodes; ++n) {
          preemptible->nodeIds.push_back(
              NodeId{cid, static_cast<std::int32_t>(a * 64 + n)});
        }
      }

      AppSchedule app;
      app.app = AppId{a};
      app.preAllocations = pa;
      app.nonPreemptible = np;
      app.preemptible = p;
      apps.push_back(std::move(app));
    }
  }
};

void runSchedulePass(benchmark::State& state, const PopulationParams& params) {
  Population population(params);
  Scheduler scheduler(population.machine);
  Time now = 0;
  for (auto _ : state) {
    scheduler.schedule(population.apps, now);
    now += sec(1);
    benchmark::DoNotOptimize(population.apps.front().preemptiveView);
  }
  state.counters["requests"] =
      static_cast<double>(population.requestCount);
  state.counters["requests/s"] = benchmark::Counter(
      static_cast<double>(population.requestCount),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_SchedulePass(benchmark::State& state) {
  PopulationParams params;
  params.napps = static_cast<int>(state.range(0));
  params.chain = static_cast<int>(state.range(1));
  runSchedulePass(state, params);
}

BENCHMARK(BM_SchedulePass)
    ->Args({4, 2})
    ->Args({16, 2})
    ->Args({64, 2})
    ->Args({16, 8})
    ->Args({64, 8})
    ->Args({128, 8})
    ->Unit(benchmark::kMicrosecond);

void BM_ScheduleLargeScale(benchmark::State& state) {
  PopulationParams params;
  params.napps = static_cast<int>(state.range(0));
  params.chain = 8;
  params.nodesPerCluster = 16 * params.napps;  // contended but not degenerate
  params.startedPreemptibles = true;
  runSchedulePass(state, params);
}

BENCHMARK(BM_ScheduleLargeScale)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_ScheduleDeepChains(benchmark::State& state) {
  PopulationParams params;
  params.napps = static_cast<int>(state.range(0));
  params.chain = static_cast<int>(state.range(1));
  params.mixCoAlloc = true;
  params.nodesPerCluster = 8192;
  runSchedulePass(state, params);
}

BENCHMARK(BM_ScheduleDeepChains)
    ->Args({64, 32})
    ->Args({256, 32})
    ->Args({256, 64})
    ->Unit(benchmark::kMillisecond);

// Arg: napps, spread over 8 clusters (per-cluster Step 2 sweeps).
void BM_ScheduleMultiCluster(benchmark::State& state) {
  PopulationParams params;
  params.napps = static_cast<int>(state.range(0));
  params.chain = 4;
  params.nclusters = 8;
  params.nodesPerCluster = 4 * params.napps;
  params.startedPreemptibles = true;
  runSchedulePass(state, params);
}

BENCHMARK(BM_ScheduleMultiCluster)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Arg: napps. Algorithm 3 in isolation on a single cluster.
void BM_EqSchedule(benchmark::State& state) {
  PopulationParams params;
  params.napps = static_cast<int>(state.range(0));
  params.chain = 0;
  params.nodesPerCluster = 8 * params.napps;
  params.startedPreemptibles = true;
  Population population(params);
  Scheduler scheduler(population.machine);
  const View vp = scheduler.machineView();
  for (auto _ : state) {
    Scheduler::eqSchedule(population.apps, vp, 0, /*strict=*/false);
    benchmark::DoNotOptimize(population.apps.front().preemptiveView);
  }
}

BENCHMARK(BM_EqSchedule)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// A scripted application for the server benchmark: submits bursts of
/// non-preemptible and preemptible requests on a half-second grid (so
/// messages regularly share an instant with the per-second scheduling
/// pass), answers expiries, and retires older requests.
class PipelineBenchApp : public AppEndpoint {
 public:
  PipelineBenchApp(Engine& engine, std::uint64_t seed)
      : engine_(engine), rng_(seed) {}

  void attach(Server& server) {
    session_ = server.connect(*this);
    scheduleAction();
  }

  void onExpired(RequestId id) override {
    ++messages_;
    session_->done(id);
  }

  [[nodiscard]] std::uint64_t messages() const { return messages_; }

 private:
  void scheduleAction() {
    engine_.after(msec(500) * rng_.uniformInt(1, 4), [this] {
      const int burst = static_cast<int>(rng_.uniformInt(1, 3));
      for (int i = 0; i < burst; ++i) {
        RequestSpec spec;
        spec.cluster = ClusterId{0};
        spec.nodes = rng_.uniformInt(1, 8);
        if (rng_.uniformInt(0, 2) == 0) {
          spec.type = RequestType::kPreemptible;
          spec.duration = sec(rng_.uniformInt(5, 40));
        } else {
          spec.type = RequestType::kNonPreemptible;
          spec.duration = sec(rng_.uniformInt(5, 30));
        }
        pending_.push_back(session_->request(spec));
        ++messages_;
      }
      if (pending_.size() > 6) {
        session_->done(pending_.front());
        pending_.erase(pending_.begin());
        ++messages_;
      }
      scheduleAction();
    });
  }

  Engine& engine_;
  Rng rng_;
  Session* session_ = nullptr;
  std::vector<RequestId> pending_;
  std::uint64_t messages_ = 0;
};

// Arg: apps. One iteration simulates two minutes of message-heavy
// protocol traffic through the whole Engine + Server stack, each pass
// running inline in its timer event; `passes` records how many passes ran.
void BM_ServerPipeline(benchmark::State& state) {
  const int napps = static_cast<int>(state.range(0));
  const metrics::Snapshot before = metrics::snapshot();
  std::uint64_t messages = 0;
  std::uint64_t passes = 0;
  for (auto _ : state) {
    Engine engine;
    Server::Config config;
    config.reschedInterval = sec(1);
    Server server(engine, Machine::single(8 * napps), config);
    std::vector<std::unique_ptr<PipelineBenchApp>> apps;
    Rng rng(42);
    for (int i = 0; i < napps; ++i) {
      apps.push_back(std::make_unique<PipelineBenchApp>(
          engine, rng.fork().engine()()));
      apps.back()->attach(server);
    }
    // Explicit drive loop (equivalent to runUntil for the measured work):
    // nextEventAt() bounds the horizon check without popping, the shape a
    // driver interleaving external input with dispatch uses.
    const Time horizon = minutes(2);
    while (engine.nextEventAt() <= horizon) engine.step();
    for (const auto& app : apps) messages += app->messages();
    passes += server.passCount();
  }
  state.counters["messages/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
  state.counters["passes"] = static_cast<double>(passes);
  // Write-back fast path (snapshot.cpp): passes whose results all match
  // their capture-time seeds skip the scattered live-request walk. The
  // clean share pins that the fast path actually engages under protocol
  // load (counters are process-global, hence the delta).
  const auto delta = metrics::snapshot();
  state.counters["writeback_clean"] = static_cast<double>(
      delta[metrics::Event::kWriteBackAppsClean] -
      before[metrics::Event::kWriteBackAppsClean]);
  state.counters["writeback_dirty"] = static_cast<double>(
      delta[metrics::Event::kWriteBackAppsDirty] -
      before[metrics::Event::kWriteBackAppsDirty]);
  // Every pass through the stack must land in the pass-latency histogram
  // (the percentile source for --stats and /metrics); CI gates this stays
  // nonzero so the observability layer cannot silently detach.
  state.counters["pass_latency_samples"] = static_cast<double>(
      delta[metrics::Histo::kPassLatencyUs].count -
      before[metrics::Histo::kPassLatencyUs].count);
}

BENCHMARK(BM_ServerPipeline)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Args: {napps, churnPct, incremental}. Steady-state lease population:
// every application holds one started preemptible lease on one of 16
// congested 64-node clusters (sum of wants far above capacity, so the
// Step 2 equipartition works every breakpoint), with finite staggered
// durations spreading ~napps/16 breakpoints per cluster. Each iteration
// churns `churnPct`% of the applications (a small lease extension — a
// local breakpoint move — plus the epoch bump the server does) and runs
// one recapture + schedulePass + writeBack round at a fixed `now`.
//
// incremental=0 is the full-recompute reference; the /1 variant divided
// into it is the O(changed) pass-latency claim (ISSUE 8 gates on >= 5x at
// 10000 apps / 1% churn). The pass_apps_clean / step2_ranges_reused
// counters (process-global deltas over the measured loop) pin that the
// steady state really is served from the cache — CI fails the bench job
// if either stays at zero.
void BM_ScheduleIncremental(benchmark::State& state) {
  const int napps = static_cast<int>(state.range(0));
  const int churnPct = static_cast<int>(state.range(1));
  const bool incremental = state.range(2) != 0;
  constexpr int kClusters = 16;
  constexpr NodeCount kNodesPerCluster = 64;
  const Time kNow = sec(60);

  Population population([] {
    PopulationParams params;
    params.napps = 0;  // built below: leases only, no PA/NP mix
    return params;
  }());
  population.machine.clusters.clear();
  for (int c = 0; c < kClusters; ++c) {
    population.machine.clusters.push_back({ClusterId{c}, kNodesPerCluster});
  }
  Rng rng(2026);
  std::int64_t nextId = 0;
  for (int a = 0; a < napps; ++a) {
    population.sets.push_back(std::make_unique<RequestSet>());
    RequestSet* pa = population.sets.back().get();
    population.sets.push_back(std::make_unique<RequestSet>());
    RequestSet* np = population.sets.back().get();
    population.sets.push_back(std::make_unique<RequestSet>());
    RequestSet* pre = population.sets.back().get();
    auto r = std::make_unique<Request>();
    r->id = RequestId{nextId++};
    r->cluster = ClusterId{a % kClusters};
    r->nodes = rng.uniformInt(4, 12);
    // Every 5th lease is open-ended: a congestion floor whose wants alone
    // exceed the cluster everywhere. The rest end staggered, spreading real
    // Step 2 breakpoints. The idle share (capacity over the active
    // partitions) is therefore not zero: it steps at every lease end, and
    // a churned lease end moves it for every application absent from that
    // cluster — as in servebench `population`, where the idle share moves
    // on every pass (BM_SchedulePopulation below).
    r->duration = a % 5 == 0 ? kTimeInf : sec(600 + 11 * (a % 797));
    r->type = RequestType::kPreemptible;
    r->startedAt = 0;
    r->nodeIds.push_back(
        NodeId{r->cluster, static_cast<std::int32_t>(a / kClusters)});
    pre->add(r.get());
    population.owned.push_back(std::move(r));
    ++population.requestCount;
    AppSchedule app;
    app.app = AppId{a};
    app.preAllocations = pa;
    app.nonPreemptible = np;
    app.preemptible = pre;
    app.epoch = 1;
    population.apps.push_back(std::move(app));
  }

  Scheduler scheduler(population.machine,
                      Scheduler::Config{.incremental = incremental});
  RequestSetSnapshot snapshot;

  const auto pass = [&] {
    snapshot.recapture(population.apps);
    scheduler.schedulePass(snapshot, kNow);
    snapshot.writeBack();
  };
  pass();  // cold pass primes the cache outside the measured loop

  Rng churnRng(7);
  const metrics::Snapshot before = metrics::snapshot();
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& app : population.apps) {
      if (churnRng.uniformInt(0, 99) >= churnPct) continue;
      Request* lease = *app.preemptible->begin();
      if (lease->duration == kTimeInf) continue;  // the congestion floor holds
      // Local lease extension: the breakpoint moves, the diff window
      // around it stays narrow.
      lease->duration += sec(churnRng.uniformInt(30, 120));
      if (lease->duration > sec(12000)) lease->duration = sec(600);
      ++app.epoch;
    }
    state.ResumeTiming();
    pass();
  }
  const metrics::Snapshot after = metrics::snapshot();
  state.counters["apps"] = static_cast<double>(napps);
  if (incremental) {
    state.counters["pass_apps_clean"] = static_cast<double>(
        after[metrics::Event::kPassAppsClean] -
        before[metrics::Event::kPassAppsClean]);
    state.counters["pass_apps_dirty"] = static_cast<double>(
        after[metrics::Event::kPassAppsDirty] -
        before[metrics::Event::kPassAppsDirty]);
    state.counters["step2_ranges_reused"] = static_cast<double>(
        after[metrics::Event::kStep2RangesReused] -
        before[metrics::Event::kStep2RangesReused]);
  }
}

BENCHMARK(BM_ScheduleIncremental)
    ->Args({1000, 1, 0})
    ->Args({1000, 1, 1})
    ->Args({10000, 0, 1})
    ->Args({10000, 1, 0})
    ->Args({10000, 1, 1})
    ->Args({10000, 10, 1})
    ->Unit(benchmark::kMillisecond);

// Args: {napps}. The servebench `population` shape in-process, on one
// 1024-node cluster. Every clean application holds a started
// pre-allocation with a started non-preemptible request inside, all with
// distinct multi-hour ends, so each view carries ~napps breakpoints. Each
// iteration one rigid application's pre-allocation alternately starts and
// ends (the free profile moves, so every non-preemptive view is
// re-derived) and one malleable lease changes size (the idle share that
// every absent application receives moves). Then one recapture +
// schedulePass + writeBack round runs and the published views are stashed
// the way Server::runPass does (swapped into per-app slots).
void BM_SchedulePopulation(benchmark::State& state) {
  const int napps = static_cast<int>(state.range(0));
  const ClusterId c0{0};
  const Time kNow = sec(60);
  Population population([] {
    PopulationParams params;
    params.napps = 0;  // built below
    return params;
  }());
  population.machine.clusters.clear();
  population.machine.clusters.push_back({c0, 1024});
  std::int64_t nextId = 0;
  std::int32_t nextNode = 0;
  const auto addApp = [&]() -> AppSchedule& {
    AppSchedule app;
    app.app = AppId{static_cast<std::int32_t>(population.apps.size())};
    for (RequestSet** set :
         {&app.preAllocations, &app.nonPreemptible, &app.preemptible}) {
      population.sets.push_back(std::make_unique<RequestSet>());
      *set = population.sets.back().get();
    }
    app.epoch = 1;
    population.apps.push_back(app);
    return population.apps.back();
  };
  const auto newStarted = [&](NodeCount nodes, Time duration,
                              RequestType type) -> Request* {
    auto r = std::make_unique<Request>();
    r->id = RequestId{nextId++};
    r->cluster = c0;
    r->nodes = nodes;
    r->duration = duration;
    r->type = type;
    r->startedAt = 0;
    for (NodeCount n = 0; n < nodes; ++n) {
      r->nodeIds.push_back(NodeId{c0, nextNode++});
    }
    population.owned.push_back(std::move(r));
    ++population.requestCount;
    return population.owned.back().get();
  };
  population.apps.reserve(static_cast<std::size_t>(napps) + 2);
  for (int a = 0; a < napps; ++a) {
    AppSchedule& app = addApp();
    Request* pa =
        newStarted(1, sec(3600 + 37 * a), RequestType::kPreAllocation);
    app.preAllocations->add(pa);
    Request* np =
        newStarted(1, sec(3000 + 37 * a), RequestType::kNonPreemptible);
    np->relatedHow = Relation::kCoAlloc;
    np->relatedTo = pa;
    app.nonPreemptible->add(np);
  }
  AppSchedule& rigid = addApp();
  Request* rigidPa = newStarted(16, sec(5000), RequestType::kPreAllocation);
  rigid.preAllocations->add(rigidPa);
  AppSchedule& malleable = addApp();
  Request* lease = newStarted(48, kTimeInf, RequestType::kPreemptible);
  malleable.preemptible->add(lease);

  Scheduler scheduler(population.machine);
  RequestSetSnapshot snapshot;
  std::vector<NonPreemptiveView> stashNp(population.apps.size());
  std::vector<View> stashP(population.apps.size());
  const auto pass = [&] {
    snapshot.recapture(population.apps);
    scheduler.schedulePass(snapshot, kNow);
    snapshot.writeBack();
    const std::span<AppSnapshot> apps = snapshot.apps();
    for (std::size_t i = 0; i < apps.size(); ++i) {
      if (apps[i].viewsReused) continue;
      std::swap(stashNp[i], apps[i].nonPreemptiveView);
      std::swap(stashP[i], apps[i].preemptiveView);
    }
  };
  pass();  // cold pass primes the cache outside the measured loop

  bool rigidStarted = true;
  const metrics::Snapshot before = metrics::snapshot();
  for (auto _ : state) {
    state.PauseTiming();
    if (rigidStarted) {
      rigid.preAllocations->removeIf([&](Request* r) { return r == rigidPa; });
    } else {
      rigid.preAllocations->add(rigidPa);
    }
    rigidStarted = !rigidStarted;
    ++rigid.epoch;
    lease->nodeIds.resize(lease->nodeIds.size() == 48 ? 40 : 48,
                          NodeId{c0, 0});
    ++malleable.epoch;
    state.ResumeTiming();
    pass();
  }
  // Per pass: how many segment blocks the pass recycled from the thread's
  // arena, how many it took from the heap, and how many non-preemptive
  // views it evaluated. The CI bench job requires the last two to be zero:
  // the cold pass above warms the pool, and the stash never reads a view.
  const metrics::Snapshot after = metrics::snapshot();
  state.counters["apps"] = static_cast<double>(napps);
  state.counters["arena_hits"] = benchmark::Counter(
      static_cast<double>(after[metrics::Event::kArenaHits] -
                          before[metrics::Event::kArenaHits]),
      benchmark::Counter::kAvgIterations);
  state.counters["arena_slow_path"] = benchmark::Counter(
      static_cast<double>(after[metrics::Event::kArenaSlowPath] -
                          before[metrics::Event::kArenaSlowPath]),
      benchmark::Counter::kAvgIterations);
  state.counters["np_views_materialized"] = benchmark::Counter(
      static_cast<double>(after[metrics::Event::kNpViewsMaterialized] -
                          before[metrics::Event::kNpViewsMaterialized]),
      benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_SchedulePopulation)
    ->Arg(250)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_ToView(benchmark::State& state) {
  PopulationParams params;
  params.napps = static_cast<int>(state.range(0));
  params.chain = 8;
  params.seed = 7;
  Population population(params);
  for (auto _ : state) {
    for (const AppSchedule& app : population.apps) {
      benchmark::DoNotOptimize(Scheduler::toView(*app.nonPreemptible));
    }
  }
}
BENCHMARK(BM_ToView)->Arg(16)->Arg(128)->Unit(benchmark::kMicrosecond);

void BM_Fit(benchmark::State& state) {
  PopulationParams params;
  params.napps = static_cast<int>(state.range(0));
  params.chain = 8;
  params.seed = 7;
  Population population(params);
  Scheduler scheduler(Machine::single(4096));
  const View machine = scheduler.machineView();
  for (auto _ : state) {
    for (const AppSchedule& app : population.apps) {
      benchmark::DoNotOptimize(
          Scheduler::fit(*app.nonPreemptible, machine, 0));
    }
  }
}
BENCHMARK(BM_Fit)->Arg(16)->Arg(128)->Unit(benchmark::kMicrosecond);

// Steady-state n-ary accumulate over `napps` per-application views. After
// a few warm-up rounds every segment block comes from the calling
// thread's arena free lists; `arena_slow_path` must stay at zero across
// the measured iterations (the CI bench job fails if it moves), which is
// the zero-heap-allocations-in-steady-state acceptance gate.
void BM_ViewAccumulate(benchmark::State& state) {
  PopulationParams params;
  params.napps = static_cast<int>(state.range(0));
  params.chain = 8;
  params.seed = 11;
  Population population(params);
  Scheduler scheduler(population.machine);
  // Schedule once: the per-application availability views it computes are
  // non-empty and breakpoint-rich, so the accumulate below runs a genuine
  // n-ary sweep (toView of a set with nothing started is the empty view,
  // which would short-circuit the whole call).
  scheduler.schedule(population.apps, 0);
  const View base = scheduler.machineView();
  std::vector<View> views;
  views.reserve(population.apps.size());
  for (const AppSchedule& app : population.apps) {
    views.push_back(app.nonPreemptiveView.materialize());
  }
  std::vector<const View*> ptrs;
  ptrs.reserve(views.size());
  for (const View& view : views) ptrs.push_back(&view);

  const auto accumulateOnce = [&] {
    View result = base;
    result.accumulate(std::span<const View* const>(ptrs), View::Op::kSubtract,
                      /*clampAtZero=*/true);
    benchmark::DoNotOptimize(result);
  };
  for (int i = 0; i < 4; ++i) accumulateOnce();  // prime the free lists
  const std::uint64_t slowBefore =
      metrics::value(metrics::Event::kArenaSlowPath);
  for (auto _ : state) accumulateOnce();
  state.counters["arena_slow_path"] = static_cast<double>(
      metrics::value(metrics::Event::kArenaSlowPath) - slowBefore);
}
BENCHMARK(BM_ViewAccumulate)
    ->Arg(16)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMicrosecond);

// Raw cost of one event increment: a single relaxed fetch_add, a few ns.
// Guards the "counters cost nothing measurable" claim — compare against
// BM_ScheduleLargeScale, whose inner pass executes a handful of these per
// application against milliseconds of scheduling work.
void BM_MetricsIncrement(benchmark::State& state) {
  for (auto _ : state) {
    metrics::increment(metrics::Event::kSweepSegmentsMerged);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsIncrement);

}  // namespace
}  // namespace coorm

namespace {

/// COORM_METRICS_OUT=FILE dumps the end-of-run counter totals as a flat
/// JSON object ("name": value), which `tools/bench_report.py --metrics`
/// folds into the committed trajectory and CI gates on.
void dumpMetricsIfRequested() {
  const char* path = std::getenv("COORM_METRICS_OUT");
  if (path == nullptr) return;
  std::ofstream out(path);
  const coorm::metrics::Snapshot snap = coorm::metrics::snapshot();
  out << "{\n";
  bool first = true;
  for (std::size_t i = 0; i < coorm::metrics::kEventCount; ++i) {
    out << (first ? "" : ",\n") << "  \""
        << coorm::metrics::name(static_cast<coorm::metrics::Event>(i))
        << "\": " << snap.events[i];
    first = false;
  }
  for (std::size_t i = 0; i < coorm::metrics::kGaugeCount; ++i) {
    out << (first ? "" : ",\n") << "  \""
        << coorm::metrics::name(static_cast<coorm::metrics::Gauge>(i))
        << "\": " << snap.gauges[i];
    first = false;
  }
  out << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dumpMetricsIfRequested();
  return 0;
}
