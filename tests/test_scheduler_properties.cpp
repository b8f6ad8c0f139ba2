// Property tests on the whole scheduling algorithm over random request
// populations:
//  - pre-allocations never oversubscribe the machine (CBF invariant);
//  - non-preemptible occupation never exceeds the machine, and stays
//    inside the application's own pre-allocations;
//  - nothing non-fixed is scheduled before `now`;
//  - scheduling is deterministic and idempotent.
#include <gtest/gtest.h>

#include <memory>

#include "coorm/common/rng.hpp"
#include "coorm/rms/scheduler.hpp"

namespace coorm {
namespace {

const ClusterId kC{0};
constexpr NodeCount kMachineNodes = 256;

struct Population {
  std::vector<std::unique_ptr<Request>> owned;
  std::vector<std::unique_ptr<RequestSet>> sets;
  std::vector<AppSchedule> apps;

  Request* add(RequestSet* set, std::int64_t id, NodeCount nodes,
               Time duration, RequestType type, Relation how,
               Request* parent) {
    auto r = std::make_unique<Request>();
    r->id = RequestId{id};
    r->cluster = kC;
    r->nodes = nodes;
    r->duration = duration;
    r->type = type;
    r->relatedHow = how;
    r->relatedTo = parent;
    set->add(r.get());
    owned.push_back(std::move(r));
    return owned.back().get();
  }
};

/// Random population: per app one PA, a chain of NP requests co-allocated
/// inside it, and possibly a preemptible request.
Population randomPopulation(Rng& rng, int napps) {
  Population population;
  std::int64_t nextId = 0;
  population.apps.reserve(static_cast<std::size_t>(napps));
  for (int a = 0; a < napps; ++a) {
    for (int k = 0; k < 3; ++k) {
      population.sets.push_back(std::make_unique<RequestSet>());
    }
    RequestSet* pa = population.sets[population.sets.size() - 3].get();
    RequestSet* np = population.sets[population.sets.size() - 2].get();
    RequestSet* p = population.sets[population.sets.size() - 1].get();

    const NodeCount peak = rng.uniformInt(2, 96);
    Request* prealloc =
        population.add(pa, nextId++, peak, sec(rng.uniformInt(100, 5000)),
                       RequestType::kPreAllocation, Relation::kFree, nullptr);
    Request* inner = population.add(
        np, nextId++, rng.uniformInt(1, peak),
        sec(rng.uniformInt(50, 1000)), RequestType::kNonPreemptible,
        Relation::kCoAlloc, prealloc);
    const int chain = static_cast<int>(rng.uniformInt(0, 3));
    for (int c = 0; c < chain; ++c) {
      inner = population.add(np, nextId++, rng.uniformInt(1, peak),
                             sec(rng.uniformInt(50, 1000)),
                             RequestType::kNonPreemptible, Relation::kNext,
                             inner);
    }
    if (rng.uniformInt(0, 1) == 1) {
      population.add(p, nextId++, rng.uniformInt(1, 64),
                     rng.uniformInt(0, 1) ? kTimeInf
                                          : sec(rng.uniformInt(100, 2000)),
                     RequestType::kPreemptible, Relation::kFree, nullptr);
    }

    AppSchedule app;
    app.app = AppId{a};
    app.preAllocations = pa;
    app.nonPreemptible = np;
    app.preemptible = p;
    population.apps.push_back(std::move(app));
  }
  return population;
}

StepFunction occupationOf(const RequestSet& set) {
  StepFunction total;
  for (const Request* r : set) {
    if (isInf(r->scheduledAt) || r->nAlloc <= 0 || r->duration <= 0) continue;
    total += StepFunction::pulse(r->scheduledAt, r->duration, r->nAlloc);
  }
  return total;
}

std::vector<Time> sampleTimes(Rng& rng, Time now) {
  std::vector<Time> times{now, satAdd(now, 1)};
  for (int i = 0; i < 24; ++i) {
    times.push_back(satAdd(now, sec(rng.uniformInt(0, 8000))));
  }
  return times;
}

class SchedulerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerProperty, PreallocationsNeverOversubscribe) {
  Rng rng(GetParam());
  Population population = randomPopulation(rng, 8);
  Scheduler scheduler(Machine::single(kMachineNodes));
  const Time now = sec(rng.uniformInt(0, 100));
  scheduler.schedule(population.apps, now);

  StepFunction total;
  for (const AppSchedule& app : population.apps) {
    total += occupationOf(*app.preAllocations);
  }
  for (const Time t : sampleTimes(rng, now)) {
    EXPECT_LE(total.at(t), kMachineNodes) << "t=" << t;
  }
}

TEST_P(SchedulerProperty, NonPreemptibleStaysInsideOwnPreallocation) {
  Rng rng(GetParam() ^ 0xbeef);
  Population population = randomPopulation(rng, 8);
  Scheduler scheduler(Machine::single(kMachineNodes));
  const Time now = 0;
  scheduler.schedule(population.apps, now);

  for (const AppSchedule& app : population.apps) {
    const StepFunction pa = occupationOf(*app.preAllocations);
    const StepFunction np = occupationOf(*app.nonPreemptible);
    for (const Time t : sampleTimes(rng, now)) {
      EXPECT_LE(np.at(t), pa.at(t))
          << toString(app.app) << " t=" << t;
    }
  }
}

TEST_P(SchedulerProperty, NothingScheduledBeforeNow) {
  Rng rng(GetParam() ^ 0x1234);
  Population population = randomPopulation(rng, 6);
  Scheduler scheduler(Machine::single(kMachineNodes));
  const Time now = sec(rng.uniformInt(1, 500));
  scheduler.schedule(population.apps, now);
  for (const auto& request : population.owned) {
    EXPECT_GE(request->scheduledAt, now) << request->describe();
  }
}

TEST_P(SchedulerProperty, DeterministicAndIdempotent) {
  Rng rngA(GetParam() ^ 0x7777);
  Rng rngB(GetParam() ^ 0x7777);
  Population a = randomPopulation(rngA, 6);
  Population b = randomPopulation(rngB, 6);
  Scheduler scheduler(Machine::single(kMachineNodes));
  scheduler.schedule(a.apps, sec(3));
  scheduler.schedule(b.apps, sec(3));
  ASSERT_EQ(a.owned.size(), b.owned.size());
  for (std::size_t i = 0; i < a.owned.size(); ++i) {
    EXPECT_EQ(a.owned[i]->scheduledAt, b.owned[i]->scheduledAt);
    EXPECT_EQ(a.owned[i]->nAlloc, b.owned[i]->nAlloc);
  }
  // Re-running with unchanged state must not move anything.
  std::vector<Time> before;
  for (const auto& request : a.owned) before.push_back(request->scheduledAt);
  scheduler.schedule(a.apps, sec(3));
  for (std::size_t i = 0; i < a.owned.size(); ++i) {
    EXPECT_EQ(a.owned[i]->scheduledAt, before[i]);
  }
}

TEST_P(SchedulerProperty, ViewsAreNonNegativeAndBounded) {
  Rng rng(GetParam() ^ 0x4242);
  Population population = randomPopulation(rng, 8);
  Scheduler scheduler(Machine::single(kMachineNodes));
  scheduler.schedule(population.apps, 0);
  for (const AppSchedule& app : population.apps) {
    const View npView = app.nonPreemptiveView.materialize();
    for (const Time t : sampleTimes(rng, 0)) {
      const NodeCount np = npView.at(kC, t);
      const NodeCount p = app.preemptiveView.at(kC, t);
      EXPECT_GE(np, 0);
      EXPECT_LE(np, kMachineNodes);
      EXPECT_GE(p, 0);
      EXPECT_LE(p, kMachineNodes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace coorm
