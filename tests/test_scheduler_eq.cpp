// Algorithm 3 (eqSchedule): equi-partitioning of preemptible resources,
// with and without filling; fairDistribute; and equivalence of the
// sweep-based implementation with the seed's per-breakpoint reference.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coorm/common/rng.hpp"
#include "coorm/rms/scheduler.hpp"
#include "eq_reference.hpp"

namespace coorm {
namespace {

using testing_support::referenceEqSchedule;
using testing_support::roundRobinDistribute;

const ClusterId kC{0};

struct EqFixture {
  EqFixture() { apps.reserve(16); }  // addApp returns stable references

  std::vector<std::unique_ptr<RequestSet>> sets;
  std::vector<std::unique_ptr<Request>> owned;
  std::vector<AppSchedule> apps;
  RequestSet emptyPa;
  RequestSet emptyNp;

  AppSchedule& addApp() {
    sets.push_back(std::make_unique<RequestSet>());
    AppSchedule app;
    app.app = AppId{static_cast<std::int32_t>(apps.size())};
    app.preAllocations = &emptyPa;
    app.nonPreemptible = &emptyNp;
    app.preemptible = sets.back().get();
    apps.push_back(std::move(app));
    return apps.back();
  }

  Request* addStartedPreemptible(AppSchedule& app, NodeCount held,
                                 NodeCount wanted = -1) {
    auto r = std::make_unique<Request>();
    r->id = RequestId{static_cast<std::int64_t>(owned.size() + 1)};
    r->cluster = kC;
    r->nodes = wanted < 0 ? held : wanted;
    r->duration = kTimeInf;
    r->type = RequestType::kPreemptible;
    r->startedAt = 0;
    for (NodeCount i = 0; i < held; ++i) {
      r->nodeIds.push_back(NodeId{kC, static_cast<std::int32_t>(
                                           owned.size() * 1000 + i)});
    }
    app.preemptible->add(r.get());
    owned.push_back(std::move(r));
    return owned.back().get();
  }
};

View capacity(NodeCount n) {
  View v;
  v.setCap(kC, StepFunction::constant(n));
  return v;
}

TEST(EqSchedule, SingleAppSeesEverything) {
  EqFixture fx;
  AppSchedule& app = fx.addApp();
  Scheduler::eqSchedule(fx.apps, capacity(10), 0, /*strict=*/false);
  EXPECT_EQ(app.preemptiveView.at(kC, 0), 10);
}

TEST(EqSchedule, TwoIdleAppsSeeHalfEach) {
  EqFixture fx;
  fx.addApp();
  fx.addApp();
  Scheduler::eqSchedule(fx.apps, capacity(10), 0, false);
  // Both inactive: each sees the partition it would get if it became
  // active (n / (active + 1) = 10 / 1 = 10)... with no active apps each
  // sees the full free pool.
  EXPECT_EQ(fx.apps[0].preemptiveView.at(kC, 0), 10);
  EXPECT_EQ(fx.apps[1].preemptiveView.at(kC, 0), 10);
}

TEST(EqSchedule, CongestionSplitsEqually) {
  EqFixture fx;
  AppSchedule& a = fx.addApp();
  AppSchedule& b = fx.addApp();
  fx.addStartedPreemptible(a, 10);
  fx.addStartedPreemptible(b, 10);
  Scheduler::eqSchedule(fx.apps, capacity(10), 0, false);
  EXPECT_EQ(a.preemptiveView.at(kC, 0), 5);
  EXPECT_EQ(b.preemptiveView.at(kC, 0), 5);
}

TEST(EqSchedule, FillingLetsOneAppUseWhatTheOtherLeaves) {
  EqFixture fx;
  AppSchedule& a = fx.addApp();
  AppSchedule& b = fx.addApp();
  fx.addStartedPreemptible(a, 2);  // app a only uses 2 of its partition
  fx.addStartedPreemptible(b, 8);
  Scheduler::eqSchedule(fx.apps, capacity(10), 0, false);
  // Uncongested (2 + 8 = 10): b may keep what a leaves unused.
  EXPECT_EQ(b.preemptiveView.at(kC, 0), 8);
  // a's view never drops below its entitled partition (paper Alg. 3
  // line 25): it may grow back to 5 whenever it wants.
  EXPECT_EQ(a.preemptiveView.at(kC, 0), 5);
}

TEST(EqSchedule, StrictModeNeverFills) {
  EqFixture fx;
  AppSchedule& a = fx.addApp();
  AppSchedule& b = fx.addApp();
  fx.addStartedPreemptible(a, 2);
  fx.addStartedPreemptible(b, 5);
  Scheduler::eqSchedule(fx.apps, capacity(10), 0, /*strict=*/true);
  EXPECT_EQ(a.preemptiveView.at(kC, 0), 5);
  EXPECT_EQ(b.preemptiveView.at(kC, 0), 5);
}

TEST(EqSchedule, InactiveAppSeesItsWouldBePartition) {
  EqFixture fx;
  AppSchedule& active = fx.addApp();
  AppSchedule& idle = fx.addApp();
  fx.addStartedPreemptible(active, 10);
  Scheduler::eqSchedule(fx.apps, capacity(10), 0, false);
  // One active app, one idle: the idle one is told it could get
  // 10 / (1 + 1) = 5 if it joined.
  EXPECT_EQ(idle.preemptiveView.at(kC, 0), 5);
  EXPECT_EQ(active.preemptiveView.at(kC, 0), 10);
}

TEST(EqSchedule, TimeVaryingAvailability) {
  EqFixture fx;
  AppSchedule& a = fx.addApp();
  fx.addStartedPreemptible(a, 4);
  View avail = capacity(10);
  avail.capRef(kC) -= StepFunction::pulse(sec(100), kTimeInf, 7);
  Scheduler::eqSchedule(fx.apps, avail, 0, false);
  EXPECT_EQ(a.preemptiveView.at(kC, 0), 10);
  EXPECT_EQ(a.preemptiveView.at(kC, sec(100)), 3);
}

TEST(EqSchedule, NegativeAvailabilityTreatedAsZero) {
  EqFixture fx;
  AppSchedule& a = fx.addApp();
  View avail;
  avail.setCap(kC, StepFunction::constant(-5));
  Scheduler::eqSchedule(fx.apps, avail, 0, false);
  EXPECT_EQ(a.preemptiveView.at(kC, 0), 0);
}

TEST(EqSchedule, ThreeAppsCongested) {
  EqFixture fx;
  AppSchedule& a = fx.addApp();
  AppSchedule& b = fx.addApp();
  AppSchedule& c = fx.addApp();
  fx.addStartedPreemptible(a, 9);
  fx.addStartedPreemptible(b, 9);
  fx.addStartedPreemptible(c, 9);
  Scheduler::eqSchedule(fx.apps, capacity(9), 0, false);
  EXPECT_EQ(a.preemptiveView.at(kC, 0), 3);
  EXPECT_EQ(b.preemptiveView.at(kC, 0), 3);
  EXPECT_EQ(c.preemptiveView.at(kC, 0), 3);
}

TEST(EqSchedule, CongestedUnevenRequestsCapAtDemand) {
  EqFixture fx;
  AppSchedule& small = fx.addApp();
  AppSchedule& big = fx.addApp();
  fx.addStartedPreemptible(small, 2);
  fx.addStartedPreemptible(big, 20);
  Scheduler::eqSchedule(fx.apps, capacity(10), 0, false);
  // small is satisfied with 2; big gets the rest (8), and its view shows
  // at least that.
  EXPECT_GE(big.preemptiveView.at(kC, 0), 8);
  EXPECT_GE(small.preemptiveView.at(kC, 0), 2);
}

TEST(EqSchedule, SchedulesPendingRequestThatFits) {
  EqFixture fx;
  AppSchedule& a = fx.addApp();
  auto r = std::make_unique<Request>();
  r->id = RequestId{1};
  r->cluster = kC;
  r->nodes = 8;
  r->duration = kTimeInf;
  r->type = RequestType::kPreemptible;
  a.preemptible->add(r.get());
  Scheduler::eqSchedule(fx.apps, capacity(10), sec(1), false);
  EXPECT_EQ(r->scheduledAt, sec(1));
  EXPECT_EQ(r->nAlloc, 8);
}

// --- fairDistribute ---------------------------------------------------------

TEST(FairDistribute, MatchesRoundRobinReferenceOnRandomInputs) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const NodeCount capacity = rng.uniformInt(0, 80);
    std::vector<NodeCount> wants(
        static_cast<std::size_t>(rng.uniformInt(0, 8)));
    for (NodeCount& want : wants) want = rng.uniformInt(-2, 25);
    EXPECT_EQ(fairDistribute(capacity, wants),
              roundRobinDistribute(capacity, wants))
        << "seed=" << seed << " capacity=" << capacity;
  }
}

TEST(FairDistribute, WaterFillLevelWithRemainderToEarliestUnsatisfied) {
  EXPECT_EQ(fairDistribute(10, {2, 20}), (std::vector<NodeCount>{2, 8}));
  EXPECT_EQ(fairDistribute(9, {5, 5}), (std::vector<NodeCount>{5, 4}));
  EXPECT_EQ(fairDistribute(12, {1, 10, 10}),
            (std::vector<NodeCount>{1, 6, 5}));
  EXPECT_EQ(fairDistribute(0, {3, 3}), (std::vector<NodeCount>{0, 0}));
  EXPECT_EQ(fairDistribute(5, {}), (std::vector<NodeCount>{}));
}

TEST(FairDistribute, HugeCapacityWorstCaseIsInstant) {
  // One-node-at-a-time round-robin would need ~10^9 iterations here; the
  // water-fill level search pins the O(apps · log capacity) behaviour.
  const NodeCount big = 1'000'000'000;
  const auto gives = fairDistribute(big, {big, big, big});
  EXPECT_EQ(gives[0], 333'333'334);
  EXPECT_EQ(gives[1], 333'333'333);
  EXPECT_EQ(gives[2], 333'333'333);

  // Staircase demands: each round of the seed algorithm satisfied only a
  // few applications; the closed form must still match it bit for bit.
  std::vector<NodeCount> staircase(512);
  for (std::size_t i = 0; i < staircase.size(); ++i) {
    staircase[i] = static_cast<NodeCount>(i * 37 % 1024);
  }
  EXPECT_EQ(fairDistribute(100'000, staircase),
            roundRobinDistribute(100'000, staircase));
}

TEST(EqSchedule, OversizedFreePreemptibleRequestIsShrunk) {
  // Preemptible requests are not guaranteed (paper A.1): a FREE request
  // larger than what is available is granted whatever can be had — this is
  // exactly the race between a malleable and an evolving application the
  // appendix describes when motivating nAlloc.
  EqFixture fx;
  AppSchedule& a = fx.addApp();
  auto r = std::make_unique<Request>();
  r->id = RequestId{1};
  r->cluster = kC;
  r->nodes = 50;
  r->duration = kTimeInf;
  r->type = RequestType::kPreemptible;
  a.preemptible->add(r.get());
  Scheduler::eqSchedule(fx.apps, capacity(10), sec(1), false);
  EXPECT_EQ(r->scheduledAt, sec(1));
  EXPECT_EQ(r->nAlloc, 10);
}

// --- equivalence with the seed implementation -------------------------------
//
// The sweep-based production implementation must produce views equal to
// the seed's (tests/eq_reference.hpp) and bit-identical request state.

// A randomized population: clusters with time-varying (sometimes negative)
// availability, applications mixing started and pending preemptible
// requests, some chained with NEXT/COALLOC constraints.
struct RandomScenario {
  EqFixture fx;
  View avail;
  Time now = 0;
  bool strict = false;
};

std::unique_ptr<RandomScenario> makeScenario(std::uint64_t seed) {
  Rng rng(seed);
  auto s = std::make_unique<RandomScenario>();
  const int napps = static_cast<int>(rng.uniformInt(1, 6));
  const int nclusters = static_cast<int>(rng.uniformInt(1, 3));

  for (int a = 0; a < napps; ++a) {
    AppSchedule& app = s->fx.addApp();
    const int nreq = static_cast<int>(rng.uniformInt(0, 3));
    Request* prev = nullptr;
    for (int k = 0; k < nreq; ++k) {
      auto r = std::make_unique<Request>();
      r->id = RequestId{static_cast<std::int64_t>(s->fx.owned.size() + 1)};
      r->cluster = ClusterId{static_cast<std::int32_t>(
          rng.uniformInt(0, nclusters - 1))};
      r->nodes = rng.uniformInt(1, 12);
      r->duration = rng.uniformInt(0, 3) == 0 ? kTimeInf
                                              : sec(rng.uniformInt(10, 500));
      r->type = RequestType::kPreemptible;
      if (prev != nullptr && rng.uniformInt(0, 2) == 0) {
        r->relatedHow =
            rng.uniformInt(0, 1) == 0 ? Relation::kNext : Relation::kCoAlloc;
        r->relatedTo = prev;
      } else if (rng.uniformInt(0, 1) == 0) {
        r->startedAt = sec(rng.uniformInt(0, 50));
        const NodeCount held = rng.uniformInt(0, r->nodes);
        for (NodeCount n = 0; n < held; ++n) {
          r->nodeIds.push_back(NodeId{
              r->cluster,
              static_cast<std::int32_t>(s->fx.owned.size() * 100 + n)});
        }
      }
      prev = r.get();
      app.preemptible->add(r.get());
      s->fx.owned.push_back(std::move(r));
    }
  }

  for (int c = 0; c < nclusters; ++c) {
    StepFunction cap = StepFunction::constant(rng.uniformInt(4, 30));
    const int dips = static_cast<int>(rng.uniformInt(0, 3));
    for (int d = 0; d < dips; ++d) {
      // Dips may exceed the base capacity, producing negative stretches.
      cap -= StepFunction::pulse(
          sec(rng.uniformInt(0, 300)),
          rng.uniformInt(0, 3) == 0 ? kTimeInf : sec(rng.uniformInt(20, 200)),
          rng.uniformInt(1, 20));
    }
    s->avail.setCap(ClusterId{c}, std::move(cap));
  }
  s->now = sec(rng.uniformInt(0, 80));
  s->strict = rng.uniformInt(0, 1) == 1;
  return s;
}

TEST(EqScheduleEquivalence, SweepMatchesSeedReferenceOnRandomScenarios) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    auto real = makeScenario(seed);
    auto ref = makeScenario(seed);

    Scheduler::eqSchedule(real->fx.apps, real->avail, real->now,
                          real->strict);
    referenceEqSchedule(ref->fx.apps, ref->avail, ref->now, ref->strict);

    ASSERT_EQ(real->fx.apps.size(), ref->fx.apps.size());
    for (std::size_t i = 0; i < real->fx.apps.size(); ++i) {
      EXPECT_TRUE(real->fx.apps[i].preemptiveView.sameAs(
          ref->fx.apps[i].preemptiveView))
          << "seed=" << seed << " app=" << i << "\n"
          << real->fx.apps[i].preemptiveView.toString() << "\nvs\n"
          << ref->fx.apps[i].preemptiveView.toString();
    }
    ASSERT_EQ(real->fx.owned.size(), ref->fx.owned.size());
    for (std::size_t i = 0; i < real->fx.owned.size(); ++i) {
      EXPECT_EQ(real->fx.owned[i]->scheduledAt, ref->fx.owned[i]->scheduledAt)
          << "seed=" << seed << " request=" << i;
      EXPECT_EQ(real->fx.owned[i]->nAlloc, ref->fx.owned[i]->nAlloc)
          << "seed=" << seed << " request=" << i;
      EXPECT_EQ(real->fx.owned[i]->fixed, ref->fx.owned[i]->fixed)
          << "seed=" << seed << " request=" << i;
    }
  }
}

}  // namespace
}  // namespace coorm
