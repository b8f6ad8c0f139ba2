// Differential suite for the incremental scheduling pass.
//
// The incremental pass promises *bit-identical* output to the full
// recompute — every request attribute and the exact view representation
// (operator==, not sameAs) — over any churn rate:
//  - lease-clean applications (key unchanged, every request started) are
//    served from the pass-to-pass cache, and their views are published
//    like every other application's;
//  - eqSchedule Step 2 runs whole every pass, over cached occupations for
//    the clean applications and fresh ones for the rest;
//  - a population change silently degrades to a full re-derivation,
//    never to a wrong one.
// The suite pins all of that on randomized churn grids (population sizes
// × churn rates {0,1,10,100}%) driven through the real epoch machinery,
// and closes with a long-horizon server fuzz: the incremental server must
// trace-match the pristine full-recompute server exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "coorm/common/metrics.hpp"
#include "coorm/common/rng.hpp"
#include "coorm/rms/scheduler.hpp"
#include "coorm/rms/server.hpp"
#include "coorm/sim/engine.hpp"
#include "lease_chain.hpp"

namespace coorm {
namespace {

// ---------------------------------------------------------------------------
// Scheduler-level churn grid
// ---------------------------------------------------------------------------

struct Population {
  Machine machine;
  std::vector<std::unique_ptr<Request>> owned;
  std::vector<std::unique_ptr<RequestSet>> sets;
  std::vector<AppSchedule> apps;
  bool strict = false;
  std::int64_t nextId = 1;
  int nclusters = 1;
};

/// Deterministic randomized population. A slice of the applications is
/// "stable": every request started and holding node IDs — the steady-state
/// leases the incremental pass serves from its cache. The rest mixes
/// pending and started requests across all three sets.
/// `stablePct` of the applications (probabilistically) are all-started
/// lease holders; 100 gives a pure steady-state population whose passes
/// serve every application from the cache (a pending request anywhere
/// re-anchors at the pass's `now` and legitimately ripples every view).
Population makePopulation(std::uint64_t seed, int napps, int stablePct = 60) {
  Rng rng(seed);
  Population p;
  p.nclusters = static_cast<int>(rng.uniformInt(1, 6));
  for (int c = 0; c < p.nclusters; ++c) {
    p.machine.clusters.push_back({ClusterId{c}, rng.uniformInt(16, 96)});
  }

  const auto add = [&](RequestSet* set, ClusterId cid, NodeCount nodes,
                       Time duration, RequestType type) -> Request* {
    auto r = std::make_unique<Request>();
    r->id = RequestId{p.nextId++};
    r->cluster = cid;
    r->nodes = nodes;
    r->duration = duration;
    r->type = type;
    set->add(r.get());
    p.owned.push_back(std::move(r));
    return p.owned.back().get();
  };

  for (int a = 0; a < napps; ++a) {
    p.sets.push_back(std::make_unique<RequestSet>());
    RequestSet* pa = p.sets.back().get();
    p.sets.push_back(std::make_unique<RequestSet>());
    RequestSet* np = p.sets.back().get();
    p.sets.push_back(std::make_unique<RequestSet>());
    RequestSet* pre = p.sets.back().get();

    const ClusterId home{
        static_cast<std::int32_t>(rng.uniformInt(0, p.nclusters - 1))};
    const bool stable = rng.uniformInt(0, 99) < stablePct;

    if (stable) {
      // All-started preemptible leases: the app the steady state serves
      // from the cache.
      const int leases = static_cast<int>(rng.uniformInt(1, 3));
      for (int k = 0; k < leases; ++k) {
        Request* r =
            add(pre, home, rng.uniformInt(1, 10),
                rng.uniformInt(0, 2) == 0 ? kTimeInf
                                          : sec(rng.uniformInt(600, 7200)),
                RequestType::kPreemptible);
        r->startedAt = sec(rng.uniformInt(0, 20));
        const NodeCount held = rng.uniformInt(1, r->nodes);
        for (NodeCount n = 0; n < held; ++n) {
          r->nodeIds.push_back(
              NodeId{r->cluster, static_cast<std::int32_t>(a * 64 + n)});
        }
      }
    } else {
      if (rng.uniformInt(0, 1) == 0) {
        Request* prealloc =
            add(pa, home, rng.uniformInt(2, 16),
                sec(rng.uniformInt(600, 7200)), RequestType::kPreAllocation);
        if (rng.uniformInt(0, 2) == 0) {
          prealloc->startedAt = sec(rng.uniformInt(0, 30));
        }
        add(np, home, rng.uniformInt(1, 6), sec(rng.uniformInt(300, 3600)),
            RequestType::kNonPreemptible);
      }
      const int npre = static_cast<int>(rng.uniformInt(0, 3));
      for (int k = 0; k < npre; ++k) {
        // A drained cluster the machine does not manage keeps the sweep's
        // no-availability edge in the mix.
        const ClusterId cid =
            rng.uniformInt(0, 9) == 0 ? ClusterId{p.nclusters} : home;
        Request* r =
            add(pre, cid, rng.uniformInt(1, 12),
                rng.uniformInt(0, 3) == 0 ? kTimeInf
                                          : sec(rng.uniformInt(60, 1200)),
                RequestType::kPreemptible);
        if (rng.uniformInt(0, 1) == 0) {
          r->startedAt = sec(rng.uniformInt(0, 50));
          const NodeCount held = rng.uniformInt(1, r->nodes);
          for (NodeCount n = 0; n < held; ++n) {
            r->nodeIds.push_back(
                NodeId{r->cluster, static_cast<std::int32_t>(a * 64 + n)});
          }
        }
      }
    }

    AppSchedule app;
    app.app = AppId{a};
    app.preAllocations = pa;
    app.nonPreemptible = np;
    app.preemptible = pre;
    app.epoch = 1;
    p.apps.push_back(std::move(app));
  }
  p.strict = rng.uniformInt(0, 4) == 0;
  return p;
}

/// Applies one pass's churn: each application mutates with probability
/// `churnPct`/100, bumping its epoch. Driven by a per-pass seed so twin
/// populations (structurally identical) receive identical mutations.
void churn(Population& p, std::uint64_t passSeed, int churnPct, Time now) {
  Rng rng(passSeed);
  for (std::size_t a = 0; a < p.apps.size(); ++a) {
    if (rng.uniformInt(0, 99) >= churnPct) continue;
    AppSchedule& app = p.apps[a];
    RequestSet& pre = *app.preemptible;
    switch (rng.uniformInt(0, 3)) {
      case 0: {  // lease extension/shrink: move a request's duration
        if (pre.size() > 0) {
          Request* r = *(pre.begin() + rng.uniformInt(0, pre.size() - 1));
          r->duration = rng.uniformInt(0, 4) == 0
                            ? kTimeInf
                            : sec(rng.uniformInt(120, 9000));
        }
        break;
      }
      case 1: {  // new pending preemptible request (membership change)
        auto r = std::make_unique<Request>();
        r->id = RequestId{p.nextId++};
        r->cluster = ClusterId{
            static_cast<std::int32_t>(rng.uniformInt(0, p.nclusters - 1))};
        r->nodes = rng.uniformInt(1, 8);
        r->duration = sec(rng.uniformInt(60, 2400));
        r->type = RequestType::kPreemptible;
        pre.add(r.get());
        p.owned.push_back(std::move(r));
        break;
      }
      case 2: {  // start a pending preemptible request
        for (Request* r : pre) {
          if (r->started()) continue;
          r->startedAt = now;
          const NodeCount held = rng.uniformInt(1, r->nodes);
          for (NodeCount n = 0; n < held; ++n) {
            r->nodeIds.push_back(NodeId{
                r->cluster, static_cast<std::int32_t>(a * 64 + 32 + n)});
          }
          break;
        }
        break;
      }
      case 3: {  // resize a pending request
        for (Request* r : pre) {
          if (r->started()) continue;
          r->nodes = rng.uniformInt(1, 12);
          break;
        }
        break;
      }
    }
    ++app.epoch;
  }
}

/// One scheduler driven across passes the way the server does: epochs,
/// then Scheduler::schedule, which publishes every application's views
/// into its AppSchedule.
struct Runner {
  Population pop;
  Scheduler scheduler;

  Runner(std::uint64_t seed, int napps, bool incremental, int stablePct = 60)
      : pop(makePopulation(seed, napps, stablePct)),
        scheduler(pop.machine, Scheduler::Config{pop.strict, incremental}) {}

  void pass(Time now) { scheduler.schedule(pop.apps, now); }
};

/// Bit-level comparison: every request attribute and the exact view
/// representation must match (operator==, not sameAs). Non-preemptive
/// views are compared as their readers see them, materialized: the two
/// paths publish different operand pairs of the same value.
void expectIdentical(const Runner& a, const Runner& b,
                     const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.pop.owned.size(), b.pop.owned.size());
  for (std::size_t i = 0; i < a.pop.owned.size(); ++i) {
    const Request& ra = *a.pop.owned[i];
    const Request& rb = *b.pop.owned[i];
    ASSERT_EQ(ra.scheduledAt, rb.scheduledAt) << "request " << i;
    ASSERT_EQ(ra.nAlloc, rb.nAlloc) << "request " << i;
    ASSERT_EQ(ra.fixed, rb.fixed) << "request " << i;
    ASSERT_EQ(ra.earliestScheduleAt, rb.earliestScheduleAt) << "request " << i;
  }
  const std::span<const AppSchedule> appsA = a.pop.apps;
  const std::span<const AppSchedule> appsB = b.pop.apps;
  ASSERT_EQ(appsA.size(), appsB.size());
  for (std::size_t i = 0; i < appsA.size(); ++i) {
    const View npA = appsA[i].nonPreemptiveView.materialize();
    const View npB = appsB[i].nonPreemptiveView.materialize();
    ASSERT_EQ(npA, npB) << "app " << i << " np\n"
                        << npA.toString() << "\nvs\n"
                        << npB.toString();
    ASSERT_EQ(appsA[i].preemptiveView, appsB[i].preemptiveView)
        << "app " << i << " p\n"
        << appsA[i].preemptiveView.toString() << "\nvs\n"
        << appsB[i].preemptiveView.toString();
  }
}

void runGrid(std::uint64_t seed, int napps, int churnPct, int passes) {
  Runner full(seed, napps, /*incremental=*/false);
  Runner inc(seed, napps, /*incremental=*/true);
  for (int pass = 0; pass < passes; ++pass) {
    const Time now = sec(60 + pass * 30);
    churn(full.pop, seed * 1000 + static_cast<std::uint64_t>(pass), churnPct,
          now);
    churn(inc.pop, seed * 1000 + static_cast<std::uint64_t>(pass), churnPct,
          now);
    full.pass(now);
    inc.pass(now);
    expectIdentical(full, inc,
                    "seed=" + std::to_string(seed) +
                        " napps=" + std::to_string(napps) +
                        " churn=" + std::to_string(churnPct) +
                        "% pass=" + std::to_string(pass));
  }
}

TEST(SchedulerIncremental, ChurnGridBitIdentical) {
  for (const int napps : {1, 3, 17, 64}) {
    for (const int churnPct : {0, 1, 10, 100}) {
      runGrid(static_cast<std::uint64_t>(napps * 1000 + churnPct + 1), napps,
              churnPct, 6);
    }
  }
}

TEST(SchedulerIncremental, LargePopulationLowChurn) {
  // The headline configuration, scaled for a unit test: a large population
  // in near-steady state across several passes.
  runGrid(/*seed=*/43, /*napps=*/512, /*churnPct=*/1, 4);
}

TEST(SchedulerIncremental, SteadyStateServesFromCache) {
  // Pure lease population: every pass after the first serves the stable
  // applications from the cache.
  Runner inc(/*seed=*/7, /*napps=*/48, /*incremental=*/true,
             /*stablePct=*/100);
  inc.pass(sec(60));  // cold pass primes the cache
  const metrics::Snapshot before = metrics::snapshot();
  inc.pass(sec(90));  // no churn: pure steady state
  const metrics::Snapshot after = metrics::snapshot();
  EXPECT_GT(after[metrics::Event::kPassAppsClean],
            before[metrics::Event::kPassAppsClean]);
}

TEST(SchedulerIncremental, PopulationChangeFallsBackToFullPass) {
  const std::uint64_t seed = 23;
  Runner full(seed, 24, /*incremental=*/false);
  Runner inc(seed, 24, /*incremental=*/true);
  const auto dropApp = [](Population& p, std::size_t index) {
    p.apps.erase(p.apps.begin() + static_cast<long>(index));
  };
  for (int pass = 0; pass < 6; ++pass) {
    const Time now = sec(60 + pass * 30);
    if (pass == 2) {  // disconnect mid-steady-state
      dropApp(full.pop, 5);
      dropApp(inc.pop, 5);
    }
    if (pass == 4) {  // late joiner: fresh app appended to both twins
      for (Population* p : {&full.pop, &inc.pop}) {
        p->sets.push_back(std::make_unique<RequestSet>());
        RequestSet* pa = p->sets.back().get();
        p->sets.push_back(std::make_unique<RequestSet>());
        RequestSet* np = p->sets.back().get();
        p->sets.push_back(std::make_unique<RequestSet>());
        RequestSet* pre = p->sets.back().get();
        auto r = std::make_unique<Request>();
        r->id = RequestId{p->nextId++};
        r->cluster = ClusterId{0};
        r->nodes = 4;
        r->duration = sec(900);
        r->type = RequestType::kPreemptible;
        pre->add(r.get());
        p->owned.push_back(std::move(r));
        AppSchedule app;
        app.app = AppId{1000};
        app.preAllocations = pa;
        app.nonPreemptible = np;
        app.preemptible = pre;
        app.epoch = 1;
        p->apps.push_back(std::move(app));
      }
    }
    churn(full.pop, seed * 1000 + static_cast<std::uint64_t>(pass), 5, now);
    churn(inc.pop, seed * 1000 + static_cast<std::uint64_t>(pass), 5, now);
    full.pass(now);
    inc.pass(now);
    expectIdentical(full, inc, "pass=" + std::to_string(pass));
  }
}

TEST(SchedulerIncremental, FreeProfileChangingClustersStaysBitIdentical) {
  // A started pre-allocation on a cluster the machine does not manage
  // adds that cluster to the free profile every application sees, and
  // removing it takes the cluster away again. The clean application's
  // view then gains or loses an entry (a zero profile after the clamp),
  // which no per-cluster window shows. Incremental and full recompute
  // must agree, pass after pass.
  const ClusterId c0{0};
  const ClusterId drained{5};
  const auto build = [&](Runner& r) {
    Population& p = r.pop;
    p = Population{};
    p.machine.clusters.push_back({c0, 32});
    const auto addApp = [&](ClusterId cluster, NodeCount nodes) {
      for (int k = 0; k < 3; ++k) {
        p.sets.push_back(std::make_unique<RequestSet>());
      }
      AppSchedule app;
      app.app = AppId{static_cast<std::int32_t>(p.apps.size())};
      app.preAllocations = p.sets[p.sets.size() - 3].get();
      app.nonPreemptible = p.sets[p.sets.size() - 2].get();
      app.preemptible = p.sets[p.sets.size() - 1].get();
      app.epoch = 1;
      auto pa = std::make_unique<Request>();
      pa->id = RequestId{p.nextId++};
      pa->cluster = cluster;
      pa->nodes = nodes;
      pa->duration = sec(3600);
      pa->type = RequestType::kPreAllocation;
      pa->startedAt = 0;
      app.preAllocations->add(pa.get());
      p.owned.push_back(std::move(pa));
      p.apps.push_back(app);
    };
    addApp(drained, 3);  // toggled between passes
    addApp(c0, 4);       // clean from the second pass on
  };
  Runner full(/*seed=*/1, /*napps=*/0, /*incremental=*/false);
  Runner inc(/*seed=*/1, /*napps=*/0, /*incremental=*/true);
  build(full);
  build(inc);
  for (Runner* r : {&full, &inc}) {
    r->scheduler = Scheduler(r->pop.machine,
                             Scheduler::Config{.incremental = r == &inc});
  }
  std::vector<std::unique_ptr<Request>> parked(2);
  const auto toggle = [&](Runner& r, std::unique_ptr<Request>& slot) {
    RequestSet& set = *r.pop.apps[0].preAllocations;
    if (slot == nullptr) {
      Request* held = *set.begin();
      set.removeIf([&](Request* x) { return x == held; });
      for (auto& owned : r.pop.owned) {
        if (owned.get() == held) slot = std::move(owned);
      }
      std::erase(r.pop.owned, nullptr);
    } else {
      set.add(slot.get());
      r.pop.owned.push_back(std::move(slot));
    }
    ++r.pop.apps[0].epoch;
  };
  for (int pass = 0; pass < 6; ++pass) {
    if (pass >= 2) {
      toggle(full, parked[0]);
      toggle(inc, parked[1]);
    }
    full.pass(sec(60 + pass * 30));
    inc.pass(sec(60 + pass * 30));
    expectIdentical(full, inc, "pass=" + std::to_string(pass));
  }
}

// ---------------------------------------------------------------------------
// Publication by reference: a pass hands its views on by sharing the
// cache's segment blocks, never by copying them, and publishes each
// non-preemptive view as its operand pair without evaluating it.
// ---------------------------------------------------------------------------

TEST(SchedulerIncremental, PassPublishesViewsByReference) {
  // A `population`-style set-up on one cluster: clean applications each
  // hold a started pre-allocation with a started non-preemptible request
  // inside, all with distinct multi-hour ends, so the free profile and the
  // idle series have more than eight segments (a spilled, shareable
  // block). None of them has preemptible demand: on the cluster they are
  // all absent and receive the idle series. One rigid app's
  // pre-allocation end moves the free profile; one malleable lease's size
  // moves the idle share.
  constexpr int kClean = 20;
  const ClusterId c0{0};
  Population p;
  p.machine.clusters.push_back({c0, 1024});
  std::int32_t nextNode = 0;
  const auto addStarted = [&](RequestSet* set, NodeCount nodes,
                              Time duration, RequestType type,
                              Request* parent) -> Request* {
    auto r = std::make_unique<Request>();
    r->id = RequestId{p.nextId++};
    r->cluster = c0;
    r->nodes = nodes;
    r->duration = duration;
    r->type = type;
    if (parent != nullptr) {
      r->relatedHow = Relation::kCoAlloc;
      r->relatedTo = parent;
    }
    r->startedAt = 0;
    for (NodeCount n = 0; n < nodes; ++n) {
      r->nodeIds.push_back(NodeId{c0, nextNode++});
    }
    set->add(r.get());
    p.owned.push_back(std::move(r));
    return p.owned.back().get();
  };
  const auto addApp = [&] {
    AppSchedule app;
    app.app = AppId{static_cast<std::int32_t>(p.apps.size())};
    for (RequestSet** set :
         {&app.preAllocations, &app.nonPreemptible, &app.preemptible}) {
      p.sets.push_back(std::make_unique<RequestSet>());
      *set = p.sets.back().get();
    }
    app.epoch = 1;
    p.apps.push_back(app);
    return p.apps.size() - 1;
  };
  for (int a = 0; a < kClean; ++a) {
    const std::size_t i = addApp();
    Request* pa = addStarted(p.apps[i].preAllocations, 8,
                             sec(3600 + 600 * a), RequestType::kPreAllocation,
                             nullptr);
    addStarted(p.apps[i].nonPreemptible, 4, sec(1800 + 600 * a),
               RequestType::kNonPreemptible, pa);
  }
  const std::size_t rigid = addApp();
  Request* rigidPa = addStarted(p.apps[rigid].preAllocations, 16, sec(7000),
                                RequestType::kPreAllocation, nullptr);
  const std::size_t malleable = addApp();
  Request* lease = addStarted(p.apps[malleable].preemptible, 48, kTimeInf,
                              RequestType::kPreemptible, nullptr);

  Scheduler scheduler(p.machine);  // incremental
  std::vector<NonPreemptiveView> stashNp(p.apps.size());
  std::vector<View> stashP(p.apps.size());
  const auto pass = [&](Time now) { scheduler.schedule(p.apps, now); };
  const auto stash = [&] {  // as Server::runPass does
    const std::span<AppSchedule> apps = p.apps;
    for (std::size_t i = 0; i < apps.size(); ++i) {
      std::swap(stashNp[i], apps[i].nonPreemptiveView);
      std::swap(stashP[i], apps[i].preemptiveView);
    }
  };
  const auto moveIdleShare = [&] {
    if (lease->nodeIds.size() == 48) {
      lease->nodeIds.resize(40);
    } else {
      while (lease->nodeIds.size() < 48) {
        lease->nodeIds.push_back(NodeId{c0, nextNode++});
      }
    }
    ++p.apps[malleable].epoch;
  };
  const auto expectAbsentShareOneIdleBlock = [&] {
    const std::span<const AppSchedule> apps = p.apps;
    const StepFunction& idle = apps[0].preemptiveView.cap(c0);
    ASSERT_GT(idle.segmentCount(), SegmentStore::kInlineCapacity);
    for (std::size_t i = 0; i < apps.size(); ++i) {
      if (i == malleable) continue;  // the only app present on c0
      SCOPED_TRACE("app " + std::to_string(i));
      EXPECT_EQ(apps[i].preemptiveView.cap(c0).segments().data(),
                idle.segments().data());
    }
  };

  pass(sec(60));  // cold
  stash();
  pass(sec(70));  // warm, nothing moved
  stash();

  // The free profile and the idle share move: every app's views are
  // re-published, every absent app's preemptive view is one block, and
  // every clean app's non-preemptive view is its own occupation plus one
  // shared free-profile block (all of them precede the rigid app's
  // placement). None is evaluated.
  rigidPa->duration = sec(9000);
  ++p.apps[rigid].epoch;
  moveIdleShare();
  const std::uint64_t materializedBefore =
      metrics::value(metrics::Event::kNpViewsMaterialized);
  pass(sec(80));
  EXPECT_EQ(metrics::value(metrics::Event::kNpViewsMaterialized),
            materializedBefore);
  expectAbsentShareOneIdleBlock();
  const StepFunction& free0 = p.apps[0].nonPreemptiveView.freeProfile.cap(c0);
  ASSERT_GT(free0.segmentCount(), SegmentStore::kInlineCapacity);
  for (std::size_t i = 0; i < static_cast<std::size_t>(kClean); ++i) {
    SCOPED_TRACE("app " + std::to_string(i));
    const NonPreemptiveView& published = p.apps[i].nonPreemptiveView;
    EXPECT_EQ(published.freeProfile.cap(c0).segments().data(),
              free0.segments().data());
    EXPECT_NE(published.materialize(), stashNp[i].materialize());
  }
  stash();

  // Only the idle share moves: the clean apps' non-preemptive views are
  // re-published unchanged, operands equal to those the previous pass
  // published.
  moveIdleShare();
  pass(sec(90));
  expectAbsentShareOneIdleBlock();
  for (std::size_t i = 0; i < static_cast<std::size_t>(kClean); ++i) {
    SCOPED_TRACE("app " + std::to_string(i));
    EXPECT_EQ(p.apps[i].nonPreemptiveView, stashNp[i]);
  }
  stash();
}

TEST(SchedulerIncremental, BlocksDroppedOutsideAPassAreReusedByTheNext) {
  // Views that spill out of the inline buffer: 300 apps, each holding a
  // started 1-node pre-allocation of a distinct length, so the free
  // profile has ~300 segments. One app's pre-allocation toggles every
  // pass, which moves the free profile and re-publishes every view; one
  // app holds a preemptible lease. The caller keeps the lease holder's
  // views past the next pass, re-copying them every third pass as the
  // daemon's delta base does, so the last reference to those blocks drops
  // outside any pass. The next pass must reuse them: past warm-up no pass
  // takes a block from the heap, and the parked bytes do not grow.
  constexpr int kApps = 300;
  constexpr int kWarmUp = 200;
  constexpr int kMeasured = 2800;
  const ClusterId c0{0};
  Population p;
  p.machine.clusters.push_back({c0, 1024});
  std::int32_t nextNode = 0;
  const auto addApp = [&](RequestType type, NodeCount nodes,
                          Time duration) -> Request* {
    for (int k = 0; k < 3; ++k) {
      p.sets.push_back(std::make_unique<RequestSet>());
    }
    AppSchedule app;
    app.app = AppId{static_cast<std::int32_t>(p.apps.size())};
    app.preAllocations = p.sets[p.sets.size() - 3].get();
    app.nonPreemptible = p.sets[p.sets.size() - 2].get();
    app.preemptible = p.sets[p.sets.size() - 1].get();
    app.epoch = 1;
    auto r = std::make_unique<Request>();
    r->id = RequestId{p.nextId++};
    r->cluster = c0;
    r->nodes = nodes;
    r->duration = duration;
    r->type = type;
    r->startedAt = 0;
    for (NodeCount n = 0; n < nodes; ++n) {
      r->nodeIds.push_back(NodeId{c0, nextNode++});
    }
    (type == RequestType::kPreAllocation ? app.preAllocations
                                         : app.preemptible)
        ->add(r.get());
    p.owned.push_back(std::move(r));
    p.apps.push_back(app);
    return p.owned.back().get();
  };
  for (int a = 0; a < kApps; ++a) {
    addApp(RequestType::kPreAllocation, 1, sec(3600 + 37 * a));
  }
  const std::size_t toggled = p.apps.size();
  Request* toggledPa = addApp(RequestType::kPreAllocation, 16, sec(5000));
  const std::size_t leaseHolder = p.apps.size();
  addApp(RequestType::kPreemptible, 48, kTimeInf);

  Scheduler scheduler(p.machine);  // incremental
  NonPreemptiveView keptNp;
  View keptP;
  bool toggledStarted = true;
  const auto pass = [&](int k) {
    RequestSet& set = *p.apps[toggled].preAllocations;
    if (toggledStarted) {
      set.removeIf([&](Request* r) { return r == toggledPa; });
    } else {
      set.add(toggledPa);
    }
    toggledStarted = !toggledStarted;
    ++p.apps[toggled].epoch;
    scheduler.schedule(p.apps, sec(60 + k));
    if (k % 3 == 0) {  // drops the copy taken three passes ago
      keptNp = p.apps[leaseHolder].nonPreemptiveView;
      keptP = p.apps[leaseHolder].preemptiveView;
    }
  };
  for (int k = 0; k < kWarmUp; ++k) pass(k);
  ASSERT_GT(keptNp.freeProfile.cap(c0).segmentCount(),
            SegmentStore::kInlineCapacity);
  const std::uint64_t slowBefore =
      metrics::value(metrics::Event::kArenaSlowPath);
  const std::int64_t heldBefore =
      metrics::value(metrics::Gauge::kArenaBytesHeld);
  for (int k = kWarmUp; k < kWarmUp + kMeasured; ++k) pass(k);
  EXPECT_EQ(metrics::value(metrics::Event::kArenaSlowPath), slowBefore);
  EXPECT_LE(metrics::value(metrics::Gauge::kArenaBytesHeld), heldBefore);
}

// ---------------------------------------------------------------------------
// Long-horizon server fuzz: incremental vs pristine full recompute.
// Applications acquire preemptible leases, then mostly idle —
// long steady-state stretches the incremental server serves from its cache —
// interleaved with bursts of new requests and releases.
// ---------------------------------------------------------------------------

const ClusterId kC0{0};
const ClusterId kC1{1};

class LeaseApp : public AppEndpoint {
 public:
  LeaseApp(Engine& engine, std::uint64_t seed) : engine_(engine), rng_(seed) {}

  void attach(Server& server) {
    session_ = server.connect(*this);
    // Initial leases, then sparse activity: long quiet stretches are the
    // steady state the incremental server serves from its cache.
    const int leases = static_cast<int>(rng_.uniformInt(1, 3));
    for (int i = 0; i < leases; ++i) acquire();
    scheduleAction();
  }

  void onViews(const View& np, const View& p) override {
    pView_ = p;
    log("views np=" + np.toString() + " p=" + p.toString());
    enforce();
  }

  void onStarted(RequestId id, const std::vector<NodeId>& ids) override {
    held_[id] = ids;
    std::ostringstream os;
    os << "started " << toString(id) << " [";
    for (const NodeId& node : ids) os << toString(node) << ' ';
    os << ']';
    log(os.str());
  }

  void onExpired(RequestId id) override {
    log("expired " + toString(id));
    if (session_ != nullptr && !killed_) session_->done(id);
  }

  void onEnded(RequestId id) override {
    log("ended " + toString(id));
    held_.erase(id);
  }

  void onKilled() override {
    log("killed");
    killed_ = true;
  }

  [[nodiscard]] const std::vector<std::string>& events() const {
    return events_;
  }

 private:
  void log(const std::string& what) {
    events_.push_back("t=" + std::to_string(engine_.now()) + " " + what);
  }

  void acquire() {
    RequestSpec spec;
    spec.cluster = rng_.uniformInt(0, 3) == 0 ? kC1 : kC0;
    spec.nodes = rng_.uniformInt(1, 5);
    spec.duration =
        rng_.uniformInt(0, 1) ? kTimeInf : sec(rng_.uniformInt(120, 600));
    spec.type = RequestType::kPreemptible;
    const RequestId id = session_->request(spec);
    if (id.valid()) pending_.push_back(id);
  }

  void scheduleAction() {
    // 20–90 s gaps: many re-scheduling intervals pass untouched between
    // actions, so most passes see every application epoch-clean.
    engine_.after(sec(rng_.uniformInt(20, 90)), [this] {
      if (killed_) return;
      switch (rng_.uniformInt(0, 2)) {
        case 0:
          acquire();
          break;
        case 1: {
          if (!pending_.empty()) {
            const std::size_t index = static_cast<std::size_t>(
                rng_.uniformInt(0, std::ssize(pending_) - 1));
            const RequestId id = pending_[index];
            pending_.erase(pending_.begin() + static_cast<long>(index));
            const auto it = held_.find(id);
            log("done " + toString(id));
            session_->done(id, it != held_.end() ? it->second
                                                 : std::vector<NodeId>{});
            held_.erase(id);
          }
          break;
        }
        case 2:  // idle: extend the steady state
          break;
      }
      scheduleAction();
    });
  }

  void enforce() {
    for (const ClusterId cid : {kC0, kC1}) {
      const NodeCount allowed = pView_.at(cid, engine_.now());
      NodeCount heldP = 0;
      for (const auto& [id, ids] : held_) {
        heldP += std::count_if(
            ids.begin(), ids.end(),
            [&](const NodeId& node) { return node.cluster == cid; });
      }
      while (heldP > allowed) {
        RequestId victim{};
        for (const auto& [id, ids] : held_) {
          if (!ids.empty() && ids.front().cluster == cid) {
            victim = id;
            break;
          }
        }
        if (!victim.valid()) break;
        const auto ids = held_[victim];
        heldP -= std::ssize(ids);
        log("release " + toString(victim));
        session_->done(victim, ids);
        held_.erase(victim);
        std::erase(pending_, victim);
      }
    }
  }

  Engine& engine_;
  Rng rng_;
  Session* session_ = nullptr;
  View pView_;
  std::map<RequestId, std::vector<NodeId>> held_;
  std::vector<RequestId> pending_;
  std::vector<std::string> events_;
  bool killed_ = false;
};

struct ServerOutcome {
  std::vector<std::vector<std::string>> appLogs;
  std::vector<std::string> trace;
  NodeCount freeC0 = 0;
  NodeCount freeC1 = 0;
  std::uint64_t passes = 0;
  std::uint64_t appsClean = 0;  ///< pass_apps_clean over the run
  int chainTransitions = 0;
};

/// `chainTransitions` > 0 adds a malleable filler whose NEXT lease chain
/// (tests/lease_chain.hpp) competes with the lease holders on cluster 0;
/// its log is the last entry of ServerOutcome::appLogs.
ServerOutcome runServerScenario(std::uint64_t seed, bool incremental,
                                Time horizon = minutes(20),
                                int chainTransitions = 0) {
  const metrics::Snapshot before = metrics::snapshot();
  Engine engine;
  Machine machine;
  machine.clusters.push_back({kC0, 16});
  machine.clusters.push_back({kC1, 8});
  Server::Config config;
  config.reschedInterval = sec(1);
  config.incremental = incremental;
  Server server(engine, machine, config);
  Trace trace;
  server.setTrace(&trace);

  Rng rng(seed);
  std::vector<std::unique_ptr<LeaseApp>> apps;
  for (int i = 0; i < 4; ++i) {
    apps.push_back(
        std::make_unique<LeaseApp>(engine, rng.fork().engine()()));
    apps.back()->attach(server);
  }
  std::unique_ptr<testing_support::LeaseChainApp> chain;
  if (chainTransitions > 0) {
    testing_support::LeaseChainApp::Config chainConfig;
    chainConfig.maxNodes = 12;
    chainConfig.transitions = chainTransitions;
    chainConfig.seed = rng.fork().engine()();
    chain = std::make_unique<testing_support::LeaseChainApp>(engine,
                                                             chainConfig);
    chain->attach(server);
  }
  engine.runUntil(horizon);

  ServerOutcome outcome;
  for (const auto& app : apps) outcome.appLogs.push_back(app->events());
  if (chain != nullptr) {
    outcome.appLogs.push_back(chain->events());
    outcome.chainTransitions = chain->transitions();
  }
  for (const Trace::Entry& entry : trace.entries()) {
    outcome.trace.push_back("t=" + std::to_string(entry.at) + " " +
                            entry.actor + ": " + entry.what);
  }
  outcome.freeC0 = server.pool().freeCount(kC0);
  outcome.freeC1 = server.pool().freeCount(kC1);
  outcome.passes = server.passCount();
  outcome.appsClean = metrics::snapshot()[metrics::Event::kPassAppsClean] -
                      before[metrics::Event::kPassAppsClean];
  return outcome;
}

TEST(SchedulerIncremental, ServerLongHorizonMatchesPristineSerialServer) {
  std::uint64_t totalClean = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const ServerOutcome pristine =
        runServerScenario(seed, /*incremental=*/false);
    const ServerOutcome inc = runServerScenario(seed, /*incremental=*/true);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ASSERT_EQ(pristine.appLogs.size(), inc.appLogs.size());
    for (std::size_t i = 0; i < pristine.appLogs.size(); ++i) {
      EXPECT_EQ(pristine.appLogs[i], inc.appLogs[i]) << "app " << i;
    }
    EXPECT_EQ(pristine.freeC0, inc.freeC0);
    EXPECT_EQ(pristine.freeC1, inc.freeC1);
    EXPECT_EQ(pristine.passes, inc.passes);
    EXPECT_EQ(pristine.trace, inc.trace);
    totalClean += inc.appsClean;
  }
  // The horizon must actually exercise the steady state: applications
  // served from the cache.
  EXPECT_GT(totalClean, 0u);
}

TEST(SchedulerIncremental, LeaseChainMatchesPristineSerialServer) {
  // The lease holders plus a filler making 1,000 NEXT transitions: every
  // pass start reclaims the chain's ended leases (a membership change for
  // the filler, an epoch-clean pass for the quiet holders) and both
  // servers must still agree request for request.
  constexpr int kTransitions = 1000;
  for (std::uint64_t seed = 4; seed <= 5; ++seed) {
    const ServerOutcome pristine = runServerScenario(
        seed, /*incremental=*/false, minutes(25), kTransitions);
    EXPECT_GE(pristine.chainTransitions, kTransitions) << "seed=" << seed;
    const ServerOutcome inc = runServerScenario(seed, /*incremental=*/true,
                                                minutes(25), kTransitions);
    SCOPED_TRACE("chain seed=" + std::to_string(seed));
    ASSERT_EQ(pristine.appLogs.size(), inc.appLogs.size());
    for (std::size_t i = 0; i < pristine.appLogs.size(); ++i) {
      EXPECT_EQ(pristine.appLogs[i], inc.appLogs[i]) << "app " << i;
    }
    EXPECT_EQ(pristine.freeC0, inc.freeC0);
    EXPECT_EQ(pristine.freeC1, inc.freeC1);
    EXPECT_EQ(pristine.passes, inc.passes);
    EXPECT_EQ(pristine.trace, inc.trace);
  }
}

}  // namespace
}  // namespace coorm
