// Differential suite for the indexed scheduler building blocks.
//
// `toView`/`fit` navigate a SetIndex (CSR children, O(1) per edge) and
// must stay *bit-identical* to the original algorithms that walked the
// live RequestSet, re-scanning the whole set per children()/contains()
// lookup. Those implementations are kept here verbatim as references; the
// suite pins the indexed path against them on randomized sets and on deep
// 64/128-request constraint chains, and additionally pins — via FitStats —
// that a deep-chain fit costs *linear* work where the live walk cost
// quadratic.
//
// (eqSchedule semantics are pinned separately against the seed's
// per-breakpoint reference in test_scheduler_eq.cpp, and whole-pass
// composition against the binary-algebra reference in
// test_scheduler_reference.cpp — both run the same building blocks.)
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coorm/common/rng.hpp"
#include "coorm/rms/scheduler.hpp"

namespace coorm {
namespace {

// --- pre-refactor reference implementations --------------------------------

NodeCount refGrantAtStart(const View& view, const Request& r, Time at) {
  if (isInf(at)) return 0;
  return std::clamp<NodeCount>(view.at(r.cluster, at), 0, r.nodes);
}

void refAddOccupation(View& view, const Request& r) {
  if (isInf(r.scheduledAt) || r.nAlloc <= 0 || r.duration <= 0) return;
  view.capRef(r.cluster).addPulse(r.scheduledAt, r.duration, r.nAlloc);
}

/// Algorithm 1 as of PR 3: pointer walk over the live set.
View referenceToView(const RequestSet& set, const View* available = nullptr,
                     Time now = 0) {
  View out;
  for (Request* r : set) r->fixed = false;

  std::vector<Request*> queue;
  queue.reserve(set.size());
  for (Request* r : set) {
    if (r->started()) queue.push_back(r);
  }

  for (std::size_t head = 0; head < queue.size(); ++head) {
    Request* r = queue[head];
    if (r->fixed) continue;

    if (r->started()) {
      r->scheduledAt = r->startedAt;
    } else {
      const Request* parent = r->relatedTo;
      switch (r->relatedHow) {
        case Relation::kNext:
          r->scheduledAt = satAdd(parent->scheduledAt, parent->duration);
          break;
        case Relation::kCoAlloc:
          r->scheduledAt = parent->scheduledAt;
          break;
        case Relation::kFree:
          continue;
      }
    }

    if (r->started() && r->type == RequestType::kPreemptible) {
      r->nAlloc = std::ssize(r->nodeIds);
    } else if (available != nullptr &&
               r->type == RequestType::kPreemptible) {
      r->nAlloc = refGrantAtStart(*available, *r,
                                  std::max(r->scheduledAt, now));
    } else if (available != nullptr) {
      r->nAlloc = available->alloc(r->cluster, r->scheduledAt, r->duration,
                                   r->nodes);
    } else {
      r->nAlloc = r->nodes;
    }
    r->fixed = true;
    refAddOccupation(out, *r);

    set.forEachChild(*r, [&](Request* child) { queue.push_back(child); });
  }
  return out;
}

/// Algorithm 2 as of PR 3: live walk, full set scan per children() lookup.
View referenceFit(const RequestSet& set, const View& available, Time t0) {
  std::vector<Request*> queue;
  queue.reserve(set.size() * 2 + 8);
  std::size_t nonFixed = 0;
  for (Request* r : set) {
    if (r->fixed) continue;
    r->earliestScheduleAt = t0;
    r->scheduledAt = kTimeInf;
    r->nAlloc = 0;
    ++nonFixed;
  }
  set.forEachRoot([&](Request* r) { queue.push_back(r); });

  std::size_t budget = 64 * (nonFixed + set.size() + 1);

  for (std::size_t head = 0; head < queue.size() && budget > 0; ++head) {
    --budget;
    Request* r = queue[head];

    if (r->fixed) {
      set.forEachChild(*r, [&](Request* child) { queue.push_back(child); });
      continue;
    }

    Request* parent = r->relatedTo;
    r->nAlloc = r->nodes;
    const Time before = r->scheduledAt;

    switch (r->relatedHow) {
      case Relation::kFree: {
        if (r->type == RequestType::kPreemptible) {
          r->scheduledAt = available.findHole(r->cluster, 1, msec(1),
                                              r->earliestScheduleAt);
          r->nAlloc = refGrantAtStart(available, *r, r->scheduledAt);
        } else {
          r->scheduledAt = available.findHole(
              r->cluster, r->nodes, r->duration, r->earliestScheduleAt);
        }
        break;
      }
      case Relation::kCoAlloc: {
        if (parent == nullptr) break;
        if (r->type == RequestType::kPreemptible &&
            parent->type != RequestType::kPreemptible) {
          r->scheduledAt = parent->scheduledAt;
          r->nAlloc = refGrantAtStart(available, *r, r->scheduledAt);
        } else {
          r->scheduledAt = available.findHole(
              r->cluster, r->nodes, r->duration,
              std::max(parent->scheduledAt, r->earliestScheduleAt));
          if (r->scheduledAt != parent->scheduledAt && !parent->fixed &&
              set.contains(parent)) {
            parent->earliestScheduleAt = r->scheduledAt;
            queue.push_back(parent);
          }
        }
        break;
      }
      case Relation::kNext: {
        if (parent == nullptr) break;
        const Time parentEnd = satAdd(parent->scheduledAt, parent->duration);
        if (r->type == RequestType::kPreemptible) {
          r->scheduledAt = parentEnd;
          r->nAlloc = refGrantAtStart(available, *r, r->scheduledAt);
        } else {
          r->scheduledAt = available.findHole(
              r->cluster, r->nodes, r->duration,
              std::max(parentEnd, r->earliestScheduleAt));
          if (r->scheduledAt != parentEnd && !parent->fixed &&
              set.contains(parent)) {
            parent->earliestScheduleAt =
                satSub(r->scheduledAt, parent->duration);
            queue.push_back(parent);
          }
        }
        break;
      }
    }

    if (before != r->scheduledAt) {
      set.forEachChild(*r, [&](Request* child) { queue.push_back(child); });
    }
  }

  View out;
  for (Request* r : set) {
    if (!r->fixed) refAddOccupation(out, *r);
  }
  return out;
}

// --- randomized populations -------------------------------------------------

struct Population {
  std::vector<std::unique_ptr<Request>> owned;
  RequestSet pa, np, p;
  View avail;
  Time now = 0;
};

/// One application's worth of sets with mixed types, constraints (including
/// cross-set anchors), started requests and chains; plus an availability
/// view with dips (sometimes negative stretches).
std::unique_ptr<Population> makePopulation(std::uint64_t seed,
                                           int chainDepth = 0) {
  Rng rng(seed);
  auto pop = std::make_unique<Population>();
  const int nclusters = static_cast<int>(rng.uniformInt(1, 4));

  const auto add = [&](RequestSet& set, RequestType type, Relation how,
                       Request* parent) -> Request* {
    auto r = std::make_unique<Request>();
    r->id = RequestId{static_cast<std::int64_t>(pop->owned.size() + 1)};
    r->cluster = ClusterId{static_cast<std::int32_t>(
        rng.uniformInt(0, nclusters - 1))};
    r->nodes = rng.uniformInt(1, 12);
    r->duration = rng.uniformInt(0, 4) == 0 ? kTimeInf
                                            : sec(rng.uniformInt(10, 900));
    r->type = type;
    r->relatedHow = how;
    r->relatedTo = parent;
    set.add(r.get());
    pop->owned.push_back(std::move(r));
    return pop->owned.back().get();
  };

  Request* prealloc = nullptr;
  if (rng.uniformInt(0, 2) != 0) {
    prealloc = add(pop->pa, RequestType::kPreAllocation, Relation::kFree,
                   nullptr);
    if (rng.uniformInt(0, 2) == 0) prealloc->startedAt = sec(rng.uniformInt(0, 40));
  }

  const int chain = chainDepth > 0 ? chainDepth
                                   : static_cast<int>(rng.uniformInt(0, 6));
  Request* inner = nullptr;
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
    inner = add(pop->np, RequestType::kNonPreemptible, how, parent);
    if (k == 0 && parent == nullptr && rng.uniformInt(0, 3) == 0) {
      inner->startedAt = sec(rng.uniformInt(0, 30));
    }
  }

  Request* prevPre = nullptr;
  const int npre = static_cast<int>(rng.uniformInt(0, 4));
  for (int k = 0; k < npre; ++k) {
    Request* r = add(pop->p, RequestType::kPreemptible, Relation::kFree,
                     nullptr);
    if (prevPre != nullptr && rng.uniformInt(0, 2) == 0) {
      r->relatedHow =
          rng.uniformInt(0, 1) == 0 ? Relation::kNext : Relation::kCoAlloc;
      r->relatedTo = prevPre;
    } else if (inner != nullptr && rng.uniformInt(0, 3) == 0) {
      // Cross-set anchor: preemptible chained to a non-preemptible request.
      r->relatedHow = Relation::kCoAlloc;
      r->relatedTo = inner;
    } else if (rng.uniformInt(0, 1) == 0) {
      r->startedAt = sec(rng.uniformInt(0, 50));
      const NodeCount held = rng.uniformInt(1, r->nodes);
      for (NodeCount n = 0; n < held; ++n) {
        r->nodeIds.push_back(
            NodeId{r->cluster, static_cast<std::int32_t>(k * 100 + n)});
      }
    }
    prevPre = r;
  }

  for (int c = 0; c < nclusters; ++c) {
    StepFunction cap = StepFunction::constant(rng.uniformInt(8, 48));
    const int dips = static_cast<int>(rng.uniformInt(0, 3));
    for (int d = 0; d < dips; ++d) {
      cap -= StepFunction::pulse(
          sec(rng.uniformInt(0, 400)),
          rng.uniformInt(0, 3) == 0 ? kTimeInf : sec(rng.uniformInt(30, 300)),
          rng.uniformInt(1, 24));
    }
    pop->avail.setCap(ClusterId{c}, std::move(cap));
  }
  pop->now = sec(rng.uniformInt(0, 60));
  return pop;
}

void expectRequestsIdentical(const Population& a, const Population& b) {
  ASSERT_EQ(a.owned.size(), b.owned.size());
  for (std::size_t i = 0; i < a.owned.size(); ++i) {
    const Request& ra = *a.owned[i];
    const Request& rb = *b.owned[i];
    EXPECT_EQ(ra.scheduledAt, rb.scheduledAt) << "request " << i;
    EXPECT_EQ(ra.nAlloc, rb.nAlloc) << "request " << i;
    EXPECT_EQ(ra.fixed, rb.fixed) << "request " << i;
    EXPECT_EQ(ra.earliestScheduleAt, rb.earliestScheduleAt) << "request " << i;
  }
}

// --- differential tests -----------------------------------------------------

TEST(SchedulerIndex, ToViewMatchesLiveWalkReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto indexedPop = makePopulation(seed);
    auto refPop = makePopulation(seed);
    for (RequestSet Population::* sets :
         {&Population::pa, &Population::np, &Population::p}) {
      const View vs = Scheduler::toView(indexedPop.get()->*sets,
                                        &indexedPop->avail, indexedPop->now);
      const View vr = referenceToView(refPop.get()->*sets, &refPop->avail,
                                      refPop->now);
      EXPECT_EQ(vs, vr);
    }
    expectRequestsIdentical(*indexedPop, *refPop);
  }
}

TEST(SchedulerIndex, FitMatchesLiveWalkReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto indexedPop = makePopulation(seed);
    auto refPop = makePopulation(seed);
    for (RequestSet Population::* sets :
         {&Population::pa, &Population::np, &Population::p}) {
      // toView first, as every pass does: fit honours the fixed markers.
      Scheduler::toView(indexedPop.get()->*sets, &indexedPop->avail,
                        indexedPop->now);
      referenceToView(refPop.get()->*sets, &refPop->avail, refPop->now);
      const View vs = Scheduler::fit(indexedPop.get()->*sets,
                                     indexedPop->avail, indexedPop->now);
      const View vr =
          referenceFit(refPop.get()->*sets, refPop->avail, refPop->now);
      EXPECT_EQ(vs, vr);
    }
    expectRequestsIdentical(*indexedPop, *refPop);
  }
}

TEST(SchedulerIndex, DeepChainsMatchReference) {
  for (const int depth : {64, 128}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("depth=" + std::to_string(depth) +
                   " seed=" + std::to_string(seed));
      auto indexedPop = makePopulation(seed, depth);
      auto refPop = makePopulation(seed, depth);
      const View vs =
          Scheduler::fit(indexedPop->np, indexedPop->avail, indexedPop->now);
      const View vr = referenceFit(refPop->np, refPop->avail, refPop->now);
      EXPECT_EQ(vs, vr);
      expectRequestsIdentical(*indexedPop, *refPop);
    }
  }
}

TEST(SchedulerIndex, DeepChainFitWorkIsLinear) {
  // A conflict-free NEXT chain on an empty machine: every request is placed
  // right where its parent ends, so the worklist processes each exactly
  // once and traverses each constraint edge exactly once. Doubling the
  // chain must exactly double the work — the live walk re-scanned the set
  // per children() lookup, so its total work grew quadratically.
  FitStats stats64, stats128, stats256;
  for (auto [depth, stats] : {std::pair<int, FitStats*>{64, &stats64},
                              std::pair<int, FitStats*>{128, &stats128},
                              std::pair<int, FitStats*>{256, &stats256}}) {
    std::vector<std::unique_ptr<Request>> owned;
    RequestSet np;
    Request* prev = nullptr;
    for (int i = 0; i < depth; ++i) {
      auto r = std::make_unique<Request>();
      r->id = RequestId{i + 1};
      r->cluster = ClusterId{0};
      r->nodes = 2;
      r->duration = sec(60);
      r->type = RequestType::kNonPreemptible;
      r->relatedHow = prev == nullptr ? Relation::kFree : Relation::kNext;
      r->relatedTo = prev;
      np.add(r.get());
      prev = r.get();
      owned.push_back(std::move(r));
    }
    View machine;
    machine.setCap(ClusterId{0}, StepFunction::constant(4096));
    Scheduler::fit(np, machine, 0, stats);
    EXPECT_EQ(stats->queuePops, static_cast<std::size_t>(depth));
    EXPECT_EQ(stats->childVisits, static_cast<std::size_t>(depth - 1));
    EXPECT_EQ(stats->parentRepushes, 0u);
  }
  // Linear scaling, pinned exactly: 2x the chain is 2x the work.
  EXPECT_EQ(stats128.queuePops, 2 * stats64.queuePops);
  EXPECT_EQ(stats256.queuePops, 2 * stats128.queuePops);
}

TEST(SchedulerIndex, BuildingBlocksComposeLikeReference) {
  // Each building block re-indexes the set it is given; composing them
  // sequentially (toView then fit then toView again) must behave exactly
  // like the reference composition.
  for (std::uint64_t seed = 50; seed <= 70; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto indexedPop = makePopulation(seed);
    auto refPop = makePopulation(seed);

    View vs = Scheduler::toView(indexedPop->np);
    vs += Scheduler::fit(indexedPop->np, indexedPop->avail, indexedPop->now);
    const View vs2 = Scheduler::toView(indexedPop->np, &indexedPop->avail,
                                       indexedPop->now);

    View vr = referenceToView(refPop->np);
    vr += referenceFit(refPop->np, refPop->avail, refPop->now);
    const View vr2 = referenceToView(refPop->np, &refPop->avail, refPop->now);

    EXPECT_EQ(vs, vr);
    EXPECT_EQ(vs2, vr2);
    expectRequestsIdentical(*indexedPop, *refPop);
  }
}

}  // namespace
}  // namespace coorm
