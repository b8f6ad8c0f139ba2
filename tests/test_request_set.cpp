#include "coorm/rms/request_set.hpp"

#include <gtest/gtest.h>

namespace coorm {
namespace {

/// removeIf() selector for one id.
auto withId(std::int64_t id) {
  return [id](const Request* r) { return r->id == RequestId{id}; };
}

Request makeRequest(std::int64_t id, Relation how = Relation::kFree,
                    Request* parent = nullptr) {
  Request r;
  r.id = RequestId{id};
  r.relatedHow = how;
  r.relatedTo = parent;
  return r;
}

TEST(RequestSet, AddFindRemove) {
  Request a = makeRequest(1);
  RequestSet set;
  EXPECT_TRUE(set.empty());
  set.add(&a);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.find(RequestId{1}), &a);
  EXPECT_TRUE(set.contains(&a));
  set.removeIf(withId(1));
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.find(RequestId{1}), nullptr);
}

TEST(RequestSet, RemoveMissingIsNoop) {
  Request a = makeRequest(1);
  RequestSet set;
  set.add(&a);
  set.removeIf(withId(99));
  EXPECT_EQ(set.size(), 1u);
}

TEST(RequestSet, VersionBumpsOnEveryMembershipMutation) {
  // The membership version backs the scheduler's index-cache guard: every
  // add() and every removeIf() that actually erased a member must move it,
  // and nothing else may (a stable version is what lets a pass keep an
  // application's SetIndex).
  Request a = makeRequest(1);
  Request b = makeRequest(2);
  RequestSet set;
  const std::uint64_t v0 = set.version();

  set.add(&a);
  const std::uint64_t v1 = set.version();
  EXPECT_NE(v1, v0);
  set.add(&b);
  const std::uint64_t v2 = set.version();
  EXPECT_NE(v2, v1);

  // Reads leave the version alone.
  (void)set.find(RequestId{1});
  (void)set.contains(&a);
  (void)set.roots();
  (void)set.children(a);
  EXPECT_EQ(set.version(), v2);

  // A removeIf() that misses is a no-op, version included.
  set.removeIf(withId(99));
  EXPECT_EQ(set.version(), v2);

  set.removeIf(withId(1));
  const std::uint64_t v3 = set.version();
  EXPECT_NE(v3, v2);

  // Removing the same id twice only counts once.
  set.removeIf(withId(1));
  EXPECT_EQ(set.version(), v3);

  // Re-adding after a remove is a fresh mutation: the version must not
  // return to a previously seen value (monotonic, never ABA).
  set.add(&a);
  EXPECT_NE(set.version(), v3);
  EXPECT_NE(set.version(), v2);
  EXPECT_NE(set.version(), v1);
}

TEST(RequestSet, FreeRequestsAreRoots) {
  Request a = makeRequest(1);
  Request b = makeRequest(2);
  RequestSet set;
  set.add(&a);
  set.add(&b);
  const auto roots = set.roots();
  EXPECT_EQ(roots.size(), 2u);
}

TEST(RequestSet, ConstrainedChildIsNotRoot) {
  Request a = makeRequest(1);
  Request b = makeRequest(2, Relation::kNext, &a);
  RequestSet set;
  set.add(&a);
  set.add(&b);
  const auto roots = set.roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0], &a);
  const auto children = set.children(a);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0], &b);
}

TEST(RequestSet, ConstraintOutsideSetMakesRoot) {
  // Paper A.2: a request whose relatedTo is not a member of the set is a
  // root of its own tree (e.g. an NP request COALLOC'd with a PA).
  Request pa = makeRequest(1);
  Request np = makeRequest(2, Relation::kCoAlloc, &pa);
  RequestSet npSet;
  npSet.add(&np);
  const auto roots = npSet.roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0], &np);
}

TEST(RequestSet, MultiLevelTree) {
  Request a = makeRequest(1);
  Request b = makeRequest(2, Relation::kNext, &a);
  Request c = makeRequest(3, Relation::kNext, &b);
  Request d = makeRequest(4, Relation::kCoAlloc, &a);
  RequestSet set;
  set.add(&a);
  set.add(&b);
  set.add(&c);
  set.add(&d);
  EXPECT_EQ(set.roots().size(), 1u);
  EXPECT_EQ(set.children(a).size(), 2u);
  EXPECT_EQ(set.children(b).size(), 1u);
  EXPECT_EQ(set.children(c).size(), 0u);
}

TEST(RequestSet, IterationPreservesInsertionOrder) {
  Request a = makeRequest(10);
  Request b = makeRequest(5);
  Request c = makeRequest(7);
  RequestSet set;
  set.add(&a);
  set.add(&b);
  set.add(&c);
  std::vector<std::int64_t> order;
  for (const Request* r : set) order.push_back(r->id.value);
  EXPECT_EQ(order, (std::vector<std::int64_t>{10, 5, 7}));
}

// --- iteration-order contract ----------------------------------------------
// The scheduler's determinism (including the parallel path's bit-identical
// guarantee) rests on forEachRoot/forEachChild walking the set in insertion
// order: toView/fit seed their worklists from these, and eqSchedule's fair
// distribution breaks ties by input order.

TEST(RequestSetOrder, ForEachRootYieldsInsertionOrder) {
  Request a = makeRequest(30);
  Request b = makeRequest(10);
  Request childOfA = makeRequest(20, Relation::kNext, &a);
  Request c = makeRequest(5);
  RequestSet set;
  set.add(&a);
  set.add(&b);
  set.add(&childOfA);
  set.add(&c);

  std::vector<std::int64_t> order;
  set.forEachRoot([&](Request* r) { order.push_back(r->id.value); });
  // Roots in insertion order — never sorted by id, never grouped by tree.
  EXPECT_EQ(order, (std::vector<std::int64_t>{30, 10, 5}));

  // roots() is specified to match the allocation-free walk exactly.
  std::vector<std::int64_t> fromRoots;
  for (Request* r : set.roots()) fromRoots.push_back(r->id.value);
  EXPECT_EQ(fromRoots, order);
}

TEST(RequestSetOrder, ForEachChildYieldsInsertionOrder) {
  Request parent = makeRequest(1);
  Request late = makeRequest(40, Relation::kCoAlloc, &parent);
  Request other = makeRequest(2);
  Request early = makeRequest(3, Relation::kNext, &parent);
  RequestSet set;
  set.add(&parent);
  set.add(&late);
  set.add(&other);
  set.add(&early);

  std::vector<std::int64_t> order;
  set.forEachChild(parent, [&](Request* r) { order.push_back(r->id.value); });
  // Children in insertion order (40 was added before 3), regardless of id
  // or relation kind.
  EXPECT_EQ(order, (std::vector<std::int64_t>{40, 3}));

  std::vector<std::int64_t> fromChildren;
  for (Request* r : set.children(parent)) {
    fromChildren.push_back(r->id.value);
  }
  EXPECT_EQ(fromChildren, order);
}

TEST(RequestSetOrder, RemoveKeepsRelativeOrderOfTheRest) {
  Request a = makeRequest(1);
  Request b = makeRequest(2);
  Request c = makeRequest(3);
  Request d = makeRequest(4);
  RequestSet set;
  set.add(&a);
  set.add(&b);
  set.add(&c);
  set.add(&d);
  set.removeIf(withId(2));

  std::vector<std::int64_t> order;
  set.forEachRoot([&](Request* r) { order.push_back(r->id.value); });
  EXPECT_EQ(order, (std::vector<std::int64_t>{1, 3, 4}));

  // Re-adding lands at the back, not at the old position.
  set.add(&b);
  order.clear();
  set.forEachRoot([&](Request* r) { order.push_back(r->id.value); });
  EXPECT_EQ(order, (std::vector<std::int64_t>{1, 3, 4, 2}));
}

TEST(RequestSetOrder, ChildWithFreeRelationIsNeverYielded) {
  // relatedTo may dangle on FREE requests (e.g. a cleared constraint);
  // forEachChild must ignore them even when the pointer matches.
  Request parent = makeRequest(1);
  Request freeButPointing = makeRequest(2, Relation::kFree, &parent);
  RequestSet set;
  set.add(&parent);
  set.add(&freeButPointing);
  std::size_t children = 0;
  set.forEachChild(parent, [&](Request*) { ++children; });
  EXPECT_EQ(children, 0u);
  // And a FREE request is a root even with relatedTo set.
  std::vector<std::int64_t> roots;
  set.forEachRoot([&](Request* r) { roots.push_back(r->id.value); });
  EXPECT_EQ(roots, (std::vector<std::int64_t>{1, 2}));
}

TEST(RequestDescribe, MentionsTypeAndConstraint) {
  Request a = makeRequest(1);
  a.type = RequestType::kPreAllocation;
  a.nodes = 10;
  a.duration = sec(60);
  Request b = makeRequest(2, Relation::kNext, &a);
  b.type = RequestType::kNonPreemptible;
  b.nodes = 5;
  b.duration = kTimeInf;
  EXPECT_NE(a.describe().find("PA"), std::string::npos);
  EXPECT_NE(b.describe().find("NEXT->req1"), std::string::npos);
  EXPECT_NE(b.describe().find("inf"), std::string::npos);
}

TEST(RequestLifecycle, StartedAndEndedFlags) {
  Request r = makeRequest(1);
  EXPECT_FALSE(r.started());
  EXPECT_FALSE(r.ended());
  r.startedAt = sec(5);
  r.duration = sec(10);
  EXPECT_TRUE(r.started());
  EXPECT_EQ(r.plannedEnd(), sec(15));
  r.endedAt = sec(12);
  EXPECT_TRUE(r.ended());
}

}  // namespace
}  // namespace coorm
