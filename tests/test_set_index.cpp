// SetIndex, the scheduler's navigation of the live request sets, and the
// pass's per-application index cache. The index must mirror the live
// RequestSet navigation contract exactly — same roots, same children, same
// order — while making every lookup O(1), including on 64/128-deep
// constraint chains. The pass keeps an application's index while its key
// (set identities, membership versions, mutation epoch) holds, and counts
// the application clean (pass_apps_clean) only when the key is unchanged,
// every request has started and the cache is warm.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "coorm/common/metrics.hpp"
#include "coorm/common/rng.hpp"
#include "coorm/rms/scheduler.hpp"
#include "coorm/rms/server.hpp"
#include "coorm/sim/engine.hpp"

namespace coorm {
namespace {

struct Fixture {
  std::vector<std::unique_ptr<Request>> owned;
  RequestSet pa, np, p;

  Request* add(RequestSet& set, RequestType type, Relation how,
               Request* parent, ClusterId cluster = ClusterId{0},
               NodeCount nodes = 4) {
    auto r = std::make_unique<Request>();
    r->id = RequestId{static_cast<std::int64_t>(owned.size() + 1)};
    r->cluster = cluster;
    r->nodes = nodes;
    r->duration = sec(100);
    r->type = type;
    r->relatedHow = how;
    r->relatedTo = parent;
    set.add(r.get());
    owned.push_back(std::move(r));
    return owned.back().get();
  }

  /// A started request holding all its nodes.
  Request* addStarted(RequestSet& set, RequestType type,
                      NodeCount nodes = 4) {
    Request* r = add(set, type, Relation::kFree, nullptr, ClusterId{0}, nodes);
    r->startedAt = 0;
    const auto base = static_cast<std::int32_t>(owned.size() * 64);
    for (NodeCount n = 0; n < nodes; ++n) {
      r->nodeIds.push_back(
          NodeId{ClusterId{0}, base + static_cast<std::int32_t>(n)});
    }
    return r;
  }

  [[nodiscard]] AppSchedule schedule(AppId app, std::uint64_t epoch) {
    AppSchedule s;
    s.app = app;
    s.preAllocations = &pa;
    s.nonPreemptible = &np;
    s.preemptible = &p;
    s.epoch = epoch;
    return s;
  }
};

/// The index's roots/children must equal the live set's, in order.
void expectSameNavigation(const RequestSet& live) {
  SetIndex index;
  index.build(&live);
  ASSERT_EQ(index.size(), live.size());
  const std::vector<Request*> liveRoots = live.roots();
  ASSERT_EQ(liveRoots.size(), index.roots().size());
  for (std::size_t i = 0; i < liveRoots.size(); ++i) {
    EXPECT_EQ(liveRoots[i], &index.member(index.roots()[i])) << "root " << i;
  }
  for (std::uint32_t s = 0; s < index.size(); ++s) {
    EXPECT_EQ(&index.member(s), live[s]) << "slot " << s;
    const std::vector<Request*> liveChildren = live.children(*live[s]);
    const auto children = index.childrenOf(s);
    ASSERT_EQ(liveChildren.size(), children.size()) << "children of " << s;
    for (std::size_t k = 0; k < liveChildren.size(); ++k) {
      EXPECT_EQ(liveChildren[k], &index.member(children[k]))
          << "child " << k << " of slot " << s;
      EXPECT_EQ(index.parentSlot(children[k]), s);
    }
  }
}

TEST(SetIndex, RootsAndChildrenMatchLiveSet) {
  Fixture fx;
  Request* a = fx.add(fx.np, RequestType::kNonPreemptible, Relation::kFree,
                      nullptr);
  Request* b = fx.add(fx.np, RequestType::kNonPreemptible, Relation::kNext, a);
  fx.add(fx.np, RequestType::kNonPreemptible, Relation::kCoAlloc, a);
  fx.add(fx.np, RequestType::kNonPreemptible, Relation::kNext, b);
  fx.add(fx.np, RequestType::kNonPreemptible, Relation::kFree, nullptr);
  expectSameNavigation(fx.np);
}

TEST(SetIndex, CrossSetParentIsReachableButNotAChild) {
  Fixture fx;
  Request* prealloc = fx.add(fx.pa, RequestType::kPreAllocation,
                             Relation::kFree, nullptr);
  Request* inner = fx.add(fx.np, RequestType::kNonPreemptible,
                          Relation::kCoAlloc, prealloc);
  fx.add(fx.np, RequestType::kNonPreemptible, Relation::kNext, inner);

  // `inner` is constrained to a request outside its set: a root of the NP
  // set whose parent is still reachable, live, through relatedTo.
  SetIndex np;
  np.build(&fx.np);
  ASSERT_EQ(np.roots().size(), 1u);
  const std::uint32_t root = np.roots()[0];
  EXPECT_EQ(&np.member(root), inner);
  EXPECT_EQ(np.parentSlot(root), SetIndex::kNoSlot);
  EXPECT_EQ(np.member(root).relatedTo, prealloc);

  expectSameNavigation(fx.np);
  expectSameNavigation(fx.pa);
}

TEST(SetIndex, OutOfSetParentIsReadLiveAndNeverAChild) {
  // A parent that lives in no indexed set (here: the building-block fit
  // over one set): fit reads its schedule live, at the moment it places
  // the child, and the parent's own set never lists the child.
  Fixture fx;
  Request* outside = fx.add(fx.pa, RequestType::kPreAllocation,
                            Relation::kFree, nullptr);
  outside->scheduledAt = sec(42);
  outside->fixed = true;
  Request* child = fx.add(fx.np, RequestType::kNonPreemptible,
                          Relation::kNext, outside);

  SetIndex np;
  np.build(&fx.np);
  ASSERT_EQ(np.size(), 1u);
  ASSERT_EQ(np.roots().size(), 1u);
  EXPECT_EQ(np.parentSlot(0), SetIndex::kNoSlot);
  SetIndex pa;
  pa.build(&fx.pa);
  EXPECT_TRUE(pa.childrenOf(0).empty());

  View machine;
  machine.setCap(ClusterId{0}, StepFunction::constant(64));
  Scheduler::fit(fx.np, machine, 0);
  EXPECT_EQ(child->scheduledAt, sec(42) + outside->duration);
  outside->scheduledAt = sec(999);  // the next read sees the new value
  Scheduler::fit(fx.np, machine, 0);
  EXPECT_EQ(child->scheduledAt, sec(999) + outside->duration);
  EXPECT_EQ(outside->scheduledAt, sec(999));  // read, never written
}

TEST(SetIndex, DeepChainAdjacencyIsExact) {
  for (const int depth : {64, 128}) {
    Fixture fx;
    Request* prev = fx.add(fx.np, RequestType::kNonPreemptible,
                           Relation::kFree, nullptr);
    for (int i = 1; i < depth; ++i) {
      prev = fx.add(fx.np, RequestType::kNonPreemptible,
                    i % 2 == 0 ? Relation::kCoAlloc : Relation::kNext, prev);
    }
    SetIndex np;
    np.build(&fx.np);
    ASSERT_EQ(np.size(), static_cast<std::size_t>(depth));
    ASSERT_EQ(np.roots().size(), 1u);
    // Every non-tail member has exactly one child; the chain is walkable
    // end to end through the CSR index.
    std::uint32_t at = np.roots()[0];
    for (int i = 0; i + 1 < depth; ++i) {
      const auto children = np.childrenOf(at);
      ASSERT_EQ(children.size(), 1u) << "depth " << i;
      at = children[0];
    }
    EXPECT_TRUE(np.childrenOf(at).empty());
    expectSameNavigation(fx.np);
  }
}

TEST(SetIndex, RandomizedNavigationEquivalence) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Fixture fx;
    std::vector<Request*> all;
    const int n = static_cast<int>(rng.uniformInt(1, 40));
    for (int i = 0; i < n; ++i) {
      RequestSet& set = rng.uniformInt(0, 2) == 0
                            ? fx.pa
                            : (rng.uniformInt(0, 1) == 0 ? fx.np : fx.p);
      Relation how = Relation::kFree;
      Request* parent = nullptr;
      if (!all.empty() && rng.uniformInt(0, 2) != 0) {
        how = rng.uniformInt(0, 1) == 0 ? Relation::kNext : Relation::kCoAlloc;
        parent = all[static_cast<std::size_t>(
            rng.uniformInt(0, std::ssize(all) - 1))];
      }
      all.push_back(fx.add(set, RequestType::kNonPreemptible, how, parent));
    }
    expectSameNavigation(fx.pa);
    expectSameNavigation(fx.np);
    expectSameNavigation(fx.p);
  }
}

// --- the pass's index cache and clean classification ------------------------

struct PassCounts {
  std::uint64_t clean = 0;
  std::uint64_t dirty = 0;
};

/// Runs one incremental pass and returns its pass_apps_clean/dirty deltas.
PassCounts pass(const Scheduler& scheduler, std::span<AppSchedule> apps) {
  const std::uint64_t clean0 = metrics::value(metrics::Event::kPassAppsClean);
  const std::uint64_t dirty0 = metrics::value(metrics::Event::kPassAppsDirty);
  scheduler.schedule(apps, sec(10));
  return {metrics::value(metrics::Event::kPassAppsClean) - clean0,
          metrics::value(metrics::Event::kPassAppsDirty) - dirty0};
}

TEST(SetIndex, EpochSkipOnlyWhenCleanAndIdentical) {
  Fixture fx;
  Request* a = fx.addStarted(fx.np, RequestType::kNonPreemptible);
  fx.addStarted(fx.p, RequestType::kPreemptible);
  std::vector<AppSchedule> apps{fx.schedule(AppId{1}, 0)};
  const Scheduler scheduler(Machine::single(32));

  // Epoch 0 is the "unknown" sentinel: never clean.
  EXPECT_EQ(pass(scheduler, apps).clean, 0u);
  EXPECT_EQ(pass(scheduler, apps).clean, 0u);

  // A non-zero epoch seen twice in a row is clean from the second pass.
  apps[0].epoch = 5;
  EXPECT_EQ(pass(scheduler, apps).dirty, 1u);  // first sight: re-indexed
  EXPECT_EQ(pass(scheduler, apps).clean, 1u);
  EXPECT_EQ(pass(scheduler, apps).clean, 1u);

  // Any mutation comes with an epoch bump; the pass re-derives the app
  // and reads the new value.
  a->nodes = 9;
  apps[0].epoch = 6;
  EXPECT_EQ(pass(scheduler, apps).dirty, 1u);
  EXPECT_EQ(a->nAlloc, 9);

  // A different population in the same slot, same app id and epoch value:
  // the set identities in the key keep it dirty.
  Fixture other;
  other.addStarted(other.np, RequestType::kNonPreemptible);
  std::vector<AppSchedule> swapped{other.schedule(AppId{1}, 6)};
  const PassCounts moved = pass(scheduler, swapped);
  EXPECT_EQ(moved.dirty, 1u);
  EXPECT_EQ(moved.clean, 0u);

#ifdef NDEBUG
  // A membership change whose owner forgot the epoch bump is caught by the
  // sets' membership versions (debug builds assert instead): re-indexed,
  // never clean on a stale index.
  ASSERT_EQ(pass(scheduler, swapped).clean, 1u);
  Request* late = other.add(other.np, RequestType::kNonPreemptible,
                            Relation::kFree, nullptr);
  late->startedAt = 0;
  EXPECT_EQ(pass(scheduler, swapped).dirty, 1u);
  EXPECT_EQ(late->nAlloc, late->nodes);
#endif
}

TEST(SetIndex, ServerSkipsUntouchedAppsInSteadyState) {
  // Steady-state passes must serve applications whose requests nobody
  // touched since the previous pass from the incremental cache. One app
  // goes idle after an initial long request; another keeps the server
  // busy. Every pass after the idle app's start counts it clean.
  Engine engine;
  Server server(engine, Machine::single(32));
  AppEndpoint idleEndpoint;
  Session* idle = server.connect(idleEndpoint);
  RequestSpec longRunning;
  longRunning.nodes = 4;
  longRunning.duration = hours(10);
  longRunning.type = RequestType::kPreAllocation;
  idle->request(longRunning);
  engine.runUntil(sec(2));  // connect + schedule + start; then quiet

  AppEndpoint busyEndpoint;
  Session* busy = server.connect(busyEndpoint);
  engine.runUntil(sec(4));

  const std::uint64_t clean0 = metrics::value(metrics::Event::kPassAppsClean);
  const std::uint64_t dirty0 = metrics::value(metrics::Event::kPassAppsDirty);
  const std::uint64_t passesBefore = server.passCount();
  Time at = sec(4);
  for (int i = 0; i < 6; ++i) {
    RequestSpec spec;
    spec.nodes = 2;
    spec.duration = sec(1);
    spec.type = RequestType::kPreAllocation;  // expires server-side, quietly
    busy->request(spec);
    at = satAdd(at, sec(3));
    engine.runUntil(at);
  }
  const std::uint64_t passes = server.passCount() - passesBefore;

  ASSERT_GE(passes, 6u);
  // The idle app was clean in every one of those passes; the busy app was
  // re-derived (its requests mutate between passes).
  EXPECT_GE(metrics::value(metrics::Event::kPassAppsClean) - clean0, passes);
  EXPECT_GT(metrics::value(metrics::Event::kPassAppsDirty), dirty0);
}

TEST(SetIndex, AppAddedMidSteadyState) {
  // A connect() while everyone else is clean runs that one pass cold (the
  // population changed): both apps are re-derived. The next pass serves
  // the established app from the cache again.
  Fixture fx;
  fx.addStarted(fx.p, RequestType::kPreemptible);
  std::vector<AppSchedule> apps{fx.schedule(AppId{1}, 4)};
  const Scheduler scheduler(Machine::single(32));
  pass(scheduler, apps);
  ASSERT_EQ(pass(scheduler, apps).clean, 1u);

  Fixture late;
  late.add(late.p, RequestType::kPreemptible, Relation::kFree, nullptr);
  apps.push_back(late.schedule(AppId{2}, 1));

  const PassCounts joined = pass(scheduler, apps);
  EXPECT_EQ(joined.clean, 0u);  // cold: the population changed
  EXPECT_EQ(joined.dirty, 2u);
  const PassCounts after = pass(scheduler, apps);
  EXPECT_EQ(after.clean, 1u);  // app 1 again; the joiner is pending
  EXPECT_EQ(after.dirty, 1u);
}

TEST(SetIndex, AppPrunedWhileCleanShiftsWithoutStaleSkips) {
  // A disconnect compacts the app list; the slot that used to hold the
  // pruned app now sees a different population and must re-index — the
  // set identities in the key, not the epoch, prevent a stale index.
  Fixture fx1, fx2;
  fx1.addStarted(fx1.p, RequestType::kPreemptible, 4);
  Request* seven = fx2.addStarted(fx2.p, RequestType::kPreemptible, 7);
  std::vector<AppSchedule> apps{fx1.schedule(AppId{1}, 3),
                                fx2.schedule(AppId{2}, 3)};
  const Scheduler scheduler(Machine::single(32));
  pass(scheduler, apps);
  ASSERT_EQ(pass(scheduler, apps).clean, 2u);

  apps.erase(apps.begin());  // app 1 disconnects while clean
  seven->nAlloc = 0;
  const PassCounts shifted = pass(scheduler, apps);
  EXPECT_EQ(shifted.dirty, 1u);
  EXPECT_EQ(shifted.clean, 0u);
  EXPECT_EQ(seven->nAlloc, 7);  // re-derived from its own request
  // The new slot assignment re-arms the classification.
  EXPECT_EQ(pass(scheduler, apps).clean, 1u);
}

TEST(SetIndex, EpochZeroAlwaysWalksEvenAfterWrap) {
  // 0 is the "unknown" sentinel: a counter that wrapped to 0 must never be
  // handed to the scheduler as-is (Server::markDirty skips it), because a
  // 0 epoch re-indexes every pass and never counts the app clean.
  Fixture fx;
  fx.addStarted(fx.p, RequestType::kPreemptible);
  std::vector<AppSchedule> apps{fx.schedule(AppId{1}, ~std::uint64_t{0})};
  const Scheduler scheduler(Machine::single(32));
  pass(scheduler, apps);
  ASSERT_EQ(pass(scheduler, apps).clean, 1u);

  apps[0].epoch = 0;  // a naive ++ would hand out exactly this
  EXPECT_EQ(pass(scheduler, apps).clean, 0u);
  EXPECT_EQ(pass(scheduler, apps).clean, 0u);  // never clean again

  apps[0].epoch = 1;  // the guarded wrap target re-arms the classification
  EXPECT_EQ(pass(scheduler, apps).clean, 0u);
  EXPECT_EQ(pass(scheduler, apps).clean, 1u);
}

TEST(SetIndex, AllStartedTracksReindexing) {
  // The clean classification needs every request started, re-evaluated
  // whenever the key moves.
  Fixture fx;
  Request* lease = fx.addStarted(fx.p, RequestType::kPreemptible, 2);
  lease->nodes = 8;
  std::vector<AppSchedule> apps{fx.schedule(AppId{1}, 1)};
  const Scheduler scheduler(Machine::single(32));
  pass(scheduler, apps);
  EXPECT_EQ(pass(scheduler, apps).clean, 1u);

  lease->nodes = 12;  // attribute mutation: re-indexed, still all started
  apps[0].epoch = 2;
  EXPECT_EQ(pass(scheduler, apps).dirty, 1u);
  EXPECT_EQ(pass(scheduler, apps).clean, 1u);

  // A pending request anywhere keeps the app dirty, key unchanged or not.
  fx.add(fx.p, RequestType::kPreemptible, Relation::kFree, nullptr);
  apps[0].epoch = 3;
  EXPECT_EQ(pass(scheduler, apps).dirty, 1u);
  const PassCounts pending = pass(scheduler, apps);
  EXPECT_EQ(pending.dirty, 1u);
  EXPECT_EQ(pending.clean, 0u);
}

}  // namespace
}  // namespace coorm
