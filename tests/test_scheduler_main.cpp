// Algorithm 4: the main scheduling algorithm, exercised directly on request
// sets (no server, no simulator).
#include <gtest/gtest.h>

#include <memory>

#include "coorm/rms/scheduler.hpp"

namespace coorm {
namespace {

const ClusterId kC{0};

struct AppFixture {
  RequestSet pa, np, p;
  std::vector<std::unique_ptr<Request>> owned;

  Request* add(RequestSet& set, std::int64_t id, NodeCount nodes,
               Time duration, RequestType type,
               Relation how = Relation::kFree, Request* parent = nullptr) {
    auto r = std::make_unique<Request>();
    r->id = RequestId{id};
    r->cluster = kC;
    r->nodes = nodes;
    r->duration = duration;
    r->type = type;
    r->relatedHow = how;
    r->relatedTo = parent;
    set.add(r.get());
    owned.push_back(std::move(r));
    return owned.back().get();
  }

  AppSchedule schedule(AppId id) {
    AppSchedule s;
    s.app = id;
    s.preAllocations = &pa;
    s.nonPreemptible = &np;
    s.preemptible = &p;
    return s;
  }
};

TEST(MainSchedule, EmptySystem) {
  Scheduler scheduler(Machine::single(10));
  std::vector<AppSchedule> apps;
  scheduler.schedule(apps, 0);  // must not crash
}

TEST(MainSchedule, SingleAppSeesWholeMachineInNonPreemptiveView) {
  Scheduler scheduler(Machine::single(10));
  AppFixture app;
  std::vector<AppSchedule> apps{app.schedule(AppId{0})};
  scheduler.schedule(apps, 0);
  EXPECT_EQ(apps[0].nonPreemptiveView.materialize().at(kC, 0), 10);
  EXPECT_EQ(apps[0].preemptiveView.at(kC, 0), 10);
}

TEST(MainSchedule, PreallocationAndInnerNpScheduledTogether) {
  Scheduler scheduler(Machine::single(10));
  AppFixture app;
  Request* pa = app.add(app.pa, 1, 8, sec(100), RequestType::kPreAllocation);
  Request* np = app.add(app.np, 2, 4, sec(100), RequestType::kNonPreemptible,
                        Relation::kCoAlloc, pa);
  std::vector<AppSchedule> apps{app.schedule(AppId{0})};
  scheduler.schedule(apps, 0);
  EXPECT_EQ(pa->scheduledAt, 0);
  EXPECT_EQ(np->scheduledAt, 0);
  EXPECT_EQ(np->nAlloc, 4);
}

TEST(MainSchedule, PreallocatedButUnusedIsPreemptivelyVisible) {
  // The CooRMv2 key property: pre-allocated-but-unallocated resources can
  // be filled preemptibly by another application.
  Scheduler scheduler(Machine::single(10));
  AppFixture evolving;
  Request* pa =
      evolving.add(evolving.pa, 1, 8, sec(100), RequestType::kPreAllocation);
  pa->startedAt = 0;
  Request* np = evolving.add(evolving.np, 2, 3, sec(100),
                             RequestType::kNonPreemptible, Relation::kCoAlloc,
                             pa);
  np->startedAt = 0;
  np->nodeIds = {NodeId{kC, 0}, NodeId{kC, 1}, NodeId{kC, 2}};

  AppFixture malleable;
  std::vector<AppSchedule> apps{evolving.schedule(AppId{0}),
                                malleable.schedule(AppId{1})};
  scheduler.schedule(apps, 0);

  // Non-preemptively, the second app sees only the 2 non-preallocated
  // nodes.
  EXPECT_EQ(apps[1].nonPreemptiveView.materialize().at(kC, 0), 2);
  // Preemptively it sees everything the NP allocation leaves free: 7.
  EXPECT_EQ(apps[1].preemptiveView.at(kC, 0), 7);
}

TEST(MainSchedule, SecondPreallocationQueuesBehindFirst) {
  Scheduler scheduler(Machine::single(10));
  AppFixture first;
  first.add(first.pa, 1, 8, sec(100), RequestType::kPreAllocation);
  AppFixture second;
  Request* pa2 =
      second.add(second.pa, 2, 8, sec(50), RequestType::kPreAllocation);
  std::vector<AppSchedule> apps{first.schedule(AppId{0}),
                                second.schedule(AppId{1})};
  scheduler.schedule(apps, 0);
  EXPECT_EQ(pa2->scheduledAt, sec(100));  // "one after the other" (§4)
}

TEST(MainSchedule, NonPreemptibleViewExcludesOthersPreallocations) {
  Scheduler scheduler(Machine::single(10));
  AppFixture first;
  Request* pa =
      first.add(first.pa, 1, 6, sec(100), RequestType::kPreAllocation);
  pa->startedAt = 0;
  AppFixture second;
  std::vector<AppSchedule> apps{first.schedule(AppId{0}),
                                second.schedule(AppId{1})};
  scheduler.schedule(apps, 0);
  EXPECT_EQ(apps[1].nonPreemptiveView.materialize().at(kC, 0), 4);
  EXPECT_EQ(apps[1].nonPreemptiveView.materialize().at(kC, sec(100)), 10);
  // The owner still sees its own pre-allocation as usable.
  EXPECT_EQ(apps[0].nonPreemptiveView.materialize().at(kC, 0), 10);
}

TEST(MainSchedule, StartedNpReducesPreemptiveCapacity) {
  Scheduler scheduler(Machine::single(10));
  AppFixture app;
  Request* np =
      app.add(app.np, 1, 4, sec(100), RequestType::kNonPreemptible);
  np->startedAt = 0;
  np->nodeIds = {NodeId{kC, 0}, NodeId{kC, 1}, NodeId{kC, 2}, NodeId{kC, 3}};
  AppFixture other;
  std::vector<AppSchedule> apps{app.schedule(AppId{0}),
                                other.schedule(AppId{1})};
  scheduler.schedule(apps, 0);
  EXPECT_EQ(apps[1].preemptiveView.at(kC, 0), 6);
  EXPECT_EQ(apps[1].preemptiveView.at(kC, sec(100)), 10);
}

TEST(MainSchedule, FutureNpGrowthYanksPreemptibleAtTheRightTime) {
  // An evolving app's started NP request has a fixed NEXT successor that
  // grows at t=60: preemptive capacity must drop exactly then.
  Scheduler scheduler(Machine::single(10));
  AppFixture app;
  Request* np = app.add(app.np, 1, 2, sec(60), RequestType::kNonPreemptible);
  np->startedAt = 0;
  np->nodeIds = {NodeId{kC, 0}, NodeId{kC, 1}};
  app.add(app.np, 2, 7, sec(60), RequestType::kNonPreemptible,
          Relation::kNext, np);
  AppFixture psa;
  std::vector<AppSchedule> apps{app.schedule(AppId{0}),
                                psa.schedule(AppId{1})};
  scheduler.schedule(apps, 0);
  EXPECT_EQ(apps[1].preemptiveView.at(kC, 0), 8);
  EXPECT_EQ(apps[1].preemptiveView.at(kC, sec(60)), 3);
  EXPECT_EQ(apps[1].preemptiveView.at(kC, sec(120)), 10);
}

TEST(MainSchedule, ConnectionOrderIsPriorityOrder) {
  Scheduler scheduler(Machine::single(10));
  AppFixture a;
  Request* ra = a.add(a.pa, 1, 10, sec(10), RequestType::kPreAllocation);
  AppFixture b;
  Request* rb = b.add(b.pa, 2, 10, sec(10), RequestType::kPreAllocation);
  std::vector<AppSchedule> apps{a.schedule(AppId{0}), b.schedule(AppId{1})};
  scheduler.schedule(apps, sec(5));
  EXPECT_EQ(ra->scheduledAt, sec(5));
  EXPECT_EQ(rb->scheduledAt, sec(15));
}

TEST(MainSchedule, MachineViewHasAllClusters) {
  Machine machine;
  machine.clusters.push_back({ClusterId{0}, 4});
  machine.clusters.push_back({ClusterId{1}, 6});
  Scheduler scheduler(machine);
  const View v = scheduler.machineView();
  EXPECT_EQ(v.at(ClusterId{0}, 0), 4);
  EXPECT_EQ(v.at(ClusterId{1}, 0), 6);
}

}  // namespace
}  // namespace coorm
