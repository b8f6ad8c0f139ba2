// Differential property suite: the scheduling pass against a reference.
//
// `Scheduler::schedule` batches its view algebra (N-ary sweeps, per-cluster
// Step 2 rows, occupation-view reuse, pair-published non-preemptive views)
// and must still reproduce a reference pass built from plain binary view
// algebra *bit for bit*: every request attribute and every view entry,
// compared with operator== (not just semantic sameAs). The suite pins that
// on randomized multi-cluster populations (cluster counts 1–8, varying app
// counts, NEXT/COALLOC chains, started and pending requests), in filling
// and strict mode, and pass after pass with requests starting in between.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "coorm/common/metrics.hpp"
#include "coorm/common/rng.hpp"
#include "coorm/rms/scheduler.hpp"

namespace coorm {
namespace {

struct Population {
  Machine machine;
  std::vector<std::unique_ptr<Request>> owned;
  std::vector<std::unique_ptr<RequestSet>> sets;
  std::vector<AppSchedule> apps;
  bool strict = false;
  Time now = 0;
};

/// Deterministic randomized population: same seed, same population —
/// that is what makes the differential comparison meaningful.
Population makePopulation(std::uint64_t seed) {
  Rng rng(seed);
  Population p;
  const int nclusters = static_cast<int>(rng.uniformInt(1, 8));
  const int napps = static_cast<int>(rng.uniformInt(1, 10));
  for (int c = 0; c < nclusters; ++c) {
    p.machine.clusters.push_back(
        {ClusterId{c}, rng.uniformInt(8, 64)});
  }

  std::int64_t nextId = 1;
  const auto add = [&](RequestSet* set, ClusterId cid, NodeCount nodes,
                       Time duration, RequestType type, Relation how,
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

    const ClusterId home{static_cast<std::int32_t>(
        rng.uniformInt(0, nclusters - 1))};

    Request* prealloc = nullptr;
    if (rng.uniformInt(0, 2) != 0) {
      prealloc = add(pa, home, rng.uniformInt(2, 16),
                     sec(rng.uniformInt(600, 7200)),
                     RequestType::kPreAllocation, Relation::kFree, nullptr);
      if (rng.uniformInt(0, 3) == 0) {
        prealloc->startedAt = sec(rng.uniformInt(0, 30));
      }
    }

    // NP chain inside (or independent of) the pre-allocation, mixing NEXT
    // and COALLOC constraints.
    Request* inner = nullptr;
    const int chain = static_cast<int>(rng.uniformInt(0, 4));
    for (int k = 0; k < chain; ++k) {
      Relation how = Relation::kFree;
      Request* parent = nullptr;
      if (k == 0 && prealloc != nullptr) {
        how = Relation::kCoAlloc;
        parent = prealloc;
      } else if (inner != nullptr) {
        how = rng.uniformInt(0, 1) == 0 ? Relation::kNext : Relation::kCoAlloc;
        parent = inner;
      }
      inner = add(np, home, rng.uniformInt(1, 8),
                  sec(rng.uniformInt(300, 3600)),
                  RequestType::kNonPreemptible, how, parent);
    }

    // Preemptible requests: FREE or chained, some already started and
    // holding node IDs. Occasionally one sits on a cluster the machine
    // does not manage (a drained cluster): its occupation has no matching
    // availability profile, the edge the per-cluster sweep must keep
    // handling.
    Request* prevPre = nullptr;
    const int npre = static_cast<int>(rng.uniformInt(0, 3));
    for (int k = 0; k < npre; ++k) {
      ClusterId cid = home;
      if (rng.uniformInt(0, 5) == 0) {
        cid = ClusterId{static_cast<std::int32_t>(
            rng.uniformInt(0, nclusters - 1))};
      }
      const bool drained = rng.uniformInt(0, 9) == 0;
      if (drained) cid = ClusterId{nclusters};
      Request* r = add(pre, cid, rng.uniformInt(1, 12),
                       rng.uniformInt(0, 3) == 0
                           ? kTimeInf
                           : sec(rng.uniformInt(60, 1200)),
                       RequestType::kPreemptible, Relation::kFree, nullptr);
      if (prevPre != nullptr && rng.uniformInt(0, 2) == 0) {
        r->relatedHow =
            rng.uniformInt(0, 1) == 0 ? Relation::kNext : Relation::kCoAlloc;
        r->relatedTo = prevPre;
      } else if (rng.uniformInt(0, 1) == 0) {
        r->startedAt = sec(rng.uniformInt(0, 50));
        const NodeCount held = rng.uniformInt(1, r->nodes);
        for (NodeCount n = 0; n < held; ++n) {
          r->nodeIds.push_back(NodeId{
              r->cluster, static_cast<std::int32_t>(a * 100 + n)});
        }
      }
      prevPre = r;
    }

    AppSchedule app;
    app.app = AppId{a};
    app.preAllocations = pa;
    app.nonPreemptible = np;
    app.preemptible = pre;
    p.apps.push_back(std::move(app));
  }
  p.strict = rng.uniformInt(0, 3) == 0;
  p.now = sec(rng.uniformInt(0, 100));
  return p;
}

/// Bit-level comparison of two populations built from the same seed after
/// scheduling: every request attribute and the exact view representation
/// (operator==, not sameAs — entries must match cluster for cluster).
/// Non-preemptive views are compared materialized, as a reader sees them.
void expectIdentical(const Population& a, const Population& b,
                     const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.owned.size(), b.owned.size());
  for (std::size_t i = 0; i < a.owned.size(); ++i) {
    const Request& ra = *a.owned[i];
    const Request& rb = *b.owned[i];
    EXPECT_EQ(ra.scheduledAt, rb.scheduledAt) << "request " << i;
    EXPECT_EQ(ra.nAlloc, rb.nAlloc) << "request " << i;
    EXPECT_EQ(ra.fixed, rb.fixed) << "request " << i;
    EXPECT_EQ(ra.earliestScheduleAt, rb.earliestScheduleAt)
        << "request " << i;
  }
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    const View npA = a.apps[i].nonPreemptiveView.materialize();
    const View npB = b.apps[i].nonPreemptiveView.materialize();
    EXPECT_EQ(npA, npB) << "app " << i << "\n"
                        << npA.toString() << "\nvs\n"
                        << npB.toString();
    EXPECT_EQ(a.apps[i].preemptiveView, b.apps[i].preemptiveView)
        << "app " << i << "\n"
        << a.apps[i].preemptiveView.toString() << "\nvs\n"
        << b.apps[i].preemptiveView.toString();
  }
}

/// The pre-refactor scheduling pass (Algorithm 4 as of PR 2), rebuilt from
/// the public building blocks with plain binary view algebra: no N-ary
/// batching, no occupation-view reuse. The refactored pass must reproduce
/// it bit for bit. Each non-preemptive view is stored
/// evaluated, as the pair (view, nothing), whose value is the view itself.
void referenceSchedule(const Machine& machine, std::span<AppSchedule> apps,
                       Time now, bool strict) {
  const Scheduler plain(machine);
  View vnp = plain.machineView();
  View vp = plain.machineView();
  for (AppSchedule& app : apps) {
    vnp -= Scheduler::toView(*app.preAllocations);
  }

  std::vector<View> npOcc;
  std::vector<View> npFitted;
  for (AppSchedule& app : apps) {
    const View ownStartedPa = Scheduler::toView(*app.preAllocations);
    View npView = ownStartedPa + vnp;
    npView.clampMin(0);

    const View occPa = Scheduler::fit(*app.preAllocations, npView, now);
    app.nonPreemptiveView = {std::move(npView), View{}};

    npOcc.push_back(Scheduler::toView(*app.nonPreemptible));
    View npAvailable = ownStartedPa + occPa - npOcc.back();
    npAvailable.clampMin(0);
    npFitted.push_back(Scheduler::fit(*app.nonPreemptible, npAvailable, now));

    vnp -= occPa;
  }

  for (const View& occ : npOcc) vp -= occ;
  for (const View& occ : npFitted) vp -= occ;
  vp.clampMin(0);
  Scheduler::eqSchedule(apps, vp, now, strict);
}

TEST(SchedulerParallel, ScheduleMatchesPreRefactorSerialReference) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) seeds.push_back(seed);
  for (std::uint64_t seed = 100; seed <= 120; ++seed) seeds.push_back(seed);
  for (const std::uint64_t seed : seeds) {
    for (const bool strict : {false, true}) {
      Population reference = makePopulation(seed);
      reference.strict = strict;
      referenceSchedule(reference.machine, reference.apps, reference.now,
                        strict);
      Population refactored = makePopulation(seed);
      Scheduler scheduler(refactored.machine, Scheduler::Config{strict});
      scheduler.schedule(refactored.apps, refactored.now);
      expectIdentical(reference, refactored,
                      "seed=" + std::to_string(seed) +
                          " strict=" + std::to_string(strict));
    }
  }
}

/// Between two passes, starts the first unstarted request of one
/// seed-chosen application the way the server would (at `now`, with node
/// IDs for a preemptible one), bumping its mutation epoch; the other
/// applications keep theirs, so the incremental pass serves them from its
/// cache once all their requests have started.
void startOneRequest(Population& p, std::uint64_t seed, int pass, Time now) {
  Rng rng(seed * 131 + static_cast<std::uint64_t>(pass));
  AppSchedule& app = p.apps[static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(p.apps.size()) - 1))];
  for (RequestSet* set :
       {app.preAllocations, app.nonPreemptible, app.preemptible}) {
    for (Request* r : *set) {
      if (r->started() || isInf(r->scheduledAt)) continue;
      r->startedAt = now;
      if (r->type == RequestType::kPreemptible) {
        for (NodeCount n = 0; n < std::max<NodeCount>(r->nAlloc, 1); ++n) {
          r->nodeIds.push_back(
              NodeId{r->cluster, static_cast<std::int32_t>(1000 + n)});
        }
      }
      ++app.epoch;
      return;
    }
  }
}

TEST(SchedulerParallel, MaterializedViewsMatchReferenceAtEveryPass) {
  // The incremental scheduler publishes non-preemptive views as operand
  // pairs, which Scheduler::schedule() hands on unevaluated; pass after
  // pass, with requests starting in between (so applications turn
  // lease-clean while the free profile ahead of them moves), their
  // materialized values must equal the pre-refactor reference's views,
  // bit for bit.
  const std::uint64_t cleanBefore =
      metrics::value(metrics::Event::kPassAppsClean);
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Population reference = makePopulation(seed);
    Population tested = makePopulation(seed);
    for (AppSchedule& app : tested.apps) app.epoch = 1;
    Scheduler scheduler(tested.machine, Scheduler::Config{tested.strict});
    for (int pass = 0; pass < 8; ++pass) {
      const Time now = reference.now + sec(30 * pass);
      if (pass > 0) {
        startOneRequest(reference, seed, pass, now);
        startOneRequest(tested, seed, pass, now);
      }
      referenceSchedule(reference.machine, reference.apps, now,
                        reference.strict);
      scheduler.schedule(tested.apps, now);
      expectIdentical(reference, tested,
                      "seed=" + std::to_string(seed) +
                          " pass=" + std::to_string(pass));
    }
  }
  EXPECT_GT(metrics::value(metrics::Event::kPassAppsClean), cleanBefore);
}

TEST(SchedulerParallel, EmptyAppListIsANoop) {
  std::vector<AppSchedule> apps;
  Scheduler::eqSchedule(apps, View{}, 0, false);
  Scheduler scheduler(Machine::single(16));
  scheduler.schedule(apps, 0);
}

}  // namespace
}  // namespace coorm
