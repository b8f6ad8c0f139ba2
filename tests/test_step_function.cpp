#include "coorm/profile/step_function.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coorm/profile/profile_diff.hpp"

namespace coorm {
namespace {

TEST(StepFunction, DefaultIsZeroEverywhere) {
  const StepFunction f;
  EXPECT_TRUE(f.isZero());
  EXPECT_EQ(f.at(0), 0);
  EXPECT_EQ(f.at(1'000'000), 0);
  EXPECT_EQ(f.segmentCount(), 1u);
}

TEST(StepFunction, ConstantFunction) {
  const auto f = StepFunction::constant(7);
  EXPECT_EQ(f.at(0), 7);
  EXPECT_EQ(f.at(kTimeInf - 1), 7);
  EXPECT_EQ(f.tailValue(), 7);
  EXPECT_FALSE(f.isZero());
}

TEST(StepFunction, PulseBasics) {
  const auto f = StepFunction::pulse(sec(10), sec(5), 3);
  EXPECT_EQ(f.at(0), 0);
  EXPECT_EQ(f.at(sec(10) - 1), 0);
  EXPECT_EQ(f.at(sec(10)), 3);       // inclusive start
  EXPECT_EQ(f.at(sec(15) - 1), 3);
  EXPECT_EQ(f.at(sec(15)), 0);       // exclusive end
}

TEST(StepFunction, PulseAtZero) {
  const auto f = StepFunction::pulse(0, sec(1), 5);
  EXPECT_EQ(f.at(0), 5);
  EXPECT_EQ(f.at(sec(1)), 0);
}

TEST(StepFunction, InfinitePulseNeverEnds) {
  const auto f = StepFunction::pulse(sec(3), kTimeInf, 2);
  EXPECT_EQ(f.at(sec(2)), 0);
  EXPECT_EQ(f.at(sec(3)), 2);
  EXPECT_EQ(f.tailValue(), 2);
}

TEST(StepFunction, ZeroDurationPulseIsZero) {
  EXPECT_TRUE(StepFunction::pulse(sec(3), 0, 9).isZero());
}

TEST(StepFunction, ZeroValuePulseIsZero) {
  EXPECT_TRUE(StepFunction::pulse(sec(3), sec(4), 0).isZero());
}

TEST(StepFunction, NegativeTimeClampsToZero) {
  const auto f = StepFunction::pulse(0, sec(1), 5);
  EXPECT_EQ(f.at(-100), 5);
}

TEST(StepFunction, FromSegmentsMergesAdjacentEqualValues) {
  const auto f = StepFunction::fromSegments(
      {{0, 1}, {sec(1), 1}, {sec(2), 2}, {sec(3), 2}, {sec(4), 0}});
  EXPECT_EQ(f.segmentCount(), 3u);
  EXPECT_EQ(f.at(sec(1)), 1);
  EXPECT_EQ(f.at(sec(3)), 2);
  EXPECT_EQ(f.at(sec(4)), 0);
}

TEST(StepFunction, Addition) {
  const auto a = StepFunction::pulse(sec(0), sec(10), 2);
  const auto b = StepFunction::pulse(sec(5), sec(10), 3);
  const auto sum = a + b;
  EXPECT_EQ(sum.at(sec(0)), 2);
  EXPECT_EQ(sum.at(sec(5)), 5);
  EXPECT_EQ(sum.at(sec(10)), 3);
  EXPECT_EQ(sum.at(sec(15)), 0);
}

TEST(StepFunction, Subtraction) {
  const auto a = StepFunction::constant(10);
  const auto b = StepFunction::pulse(sec(2), sec(3), 4);
  const auto diff = a - b;
  EXPECT_EQ(diff.at(0), 10);
  EXPECT_EQ(diff.at(sec(2)), 6);
  EXPECT_EQ(diff.at(sec(5)), 10);
}

TEST(StepFunction, SubtractionMayGoNegative) {
  const auto a = StepFunction::constant(1);
  const auto b = StepFunction::pulse(sec(1), sec(1), 5);
  const auto diff = a - b;
  EXPECT_EQ(diff.at(sec(1)), -4);
  EXPECT_EQ(diff.minValue(), -4);
}

TEST(StepFunction, ClampMin) {
  auto f = StepFunction::constant(1) - StepFunction::pulse(sec(1), sec(1), 5);
  f.clampMin(0);
  EXPECT_EQ(f.at(sec(1)), 0);
  EXPECT_EQ(f.at(0), 1);
}

TEST(StepFunction, PointwiseMax) {
  auto a = StepFunction::pulse(0, sec(4), 3);
  const auto b = StepFunction::pulse(sec(2), sec(4), 5);
  a.pointwiseMax(b);
  EXPECT_EQ(a.at(sec(1)), 3);
  EXPECT_EQ(a.at(sec(3)), 5);
  EXPECT_EQ(a.at(sec(5)), 5);
  EXPECT_EQ(a.at(sec(6)), 0);
}

TEST(StepFunction, PointwiseMin) {
  auto a = StepFunction::constant(4);
  a.pointwiseMin(StepFunction::pulse(sec(1), sec(2), 2));
  EXPECT_EQ(a.at(0), 0);       // pulse is 0 before sec(1)
  EXPECT_EQ(a.at(sec(1)), 2);
  EXPECT_EQ(a.at(sec(3)), 0);
}

TEST(StepFunction, MinMaxOverWindow) {
  const auto f = StepFunction::fromSegments({{0, 5}, {sec(10), 2}, {sec(20), 8}});
  EXPECT_EQ(f.minOver(0, sec(5)), 5);
  EXPECT_EQ(f.minOver(0, sec(15)), 2);
  EXPECT_EQ(f.minOver(sec(15), kTimeInf), 2);
  EXPECT_EQ(f.maxOver(0, sec(15)), 5);
  EXPECT_EQ(f.maxOver(sec(5), kTimeInf), 8);
  // Right-open window: the value at sec(10) is excluded.
  EXPECT_EQ(f.minOver(0, sec(10)), 5);
}

TEST(StepFunction, IntegralNodeSeconds) {
  const auto f = StepFunction::pulse(sec(10), sec(20), 4);
  EXPECT_DOUBLE_EQ(f.integralNodeSeconds(0, sec(100)), 80.0);
  EXPECT_DOUBLE_EQ(f.integralNodeSeconds(sec(15), sec(100)), 60.0);
  EXPECT_DOUBLE_EQ(f.integralNodeSeconds(0, sec(10)), 0.0);
  EXPECT_DOUBLE_EQ(f.integralNodeSeconds(sec(12), sec(14)), 8.0);
}

TEST(StepFunction, IntegralOfEmptyWindowIsZero) {
  const auto f = StepFunction::constant(3);
  EXPECT_DOUBLE_EQ(f.integralNodeSeconds(sec(5), sec(5)), 0.0);
}

TEST(StepFunction, FirstFitOnConstantFunction) {
  const auto f = StepFunction::constant(4);
  EXPECT_EQ(f.firstFit(0, sec(10), 4), 0);
  EXPECT_EQ(f.firstFit(sec(3), sec(10), 4), sec(3));
  EXPECT_EQ(f.firstFit(0, sec(10), 5), kTimeInf);
  EXPECT_EQ(f.firstFit(0, kTimeInf, 4), 0);
}

TEST(StepFunction, FirstFitSkipsBusyRegion) {
  // 4 nodes, but only 1 available during [10s, 20s).
  const auto f = StepFunction::constant(4) -
                 StepFunction::pulse(sec(10), sec(10), 3);
  EXPECT_EQ(f.firstFit(0, sec(10), 2), 0);        // fits before the dip
  EXPECT_EQ(f.firstFit(0, sec(11), 2), sec(20));  // too long: after the dip
  EXPECT_EQ(f.firstFit(sec(5), sec(6), 2), sec(20));
  EXPECT_EQ(f.firstFit(sec(12), sec(1), 1), sec(12));  // 1 node is enough
}

TEST(StepFunction, FirstFitWindowSpanningSegments) {
  const auto f = StepFunction::fromSegments({{0, 2}, {sec(5), 3}, {sec(9), 2}});
  // Need 2 nodes for 20 s: available everywhere.
  EXPECT_EQ(f.firstFit(0, sec(20), 2), 0);
  // Need 3 nodes: only within [5s, 9s).
  EXPECT_EQ(f.firstFit(0, sec(4), 3), sec(5));
  EXPECT_EQ(f.firstFit(0, sec(5), 3), kTimeInf);
}

TEST(StepFunction, FirstFitZeroDurationOrNeed) {
  const auto f = StepFunction::constant(0);
  EXPECT_EQ(f.firstFit(sec(7), 0, 5), sec(7));
  EXPECT_EQ(f.firstFit(sec(7), sec(5), 0), sec(7));
}

TEST(StepFunction, FirstFitInfiniteEarliest) {
  const auto f = StepFunction::constant(4);
  EXPECT_EQ(f.firstFit(kTimeInf, sec(1), 1), kTimeInf);
}

TEST(StepFunction, FirstFitOnTailSegment) {
  const auto f = StepFunction::fromSegments({{0, 0}, {sec(100), 6}});
  EXPECT_EQ(f.firstFit(0, kTimeInf, 6), sec(100));
  EXPECT_EQ(f.firstFit(sec(200), sec(10), 6), sec(200));
}

TEST(StepFunction, EqualityIsCanonical) {
  const auto a = StepFunction::fromSegments({{0, 1}, {sec(2), 1}, {sec(4), 0}});
  const auto b = StepFunction::pulse(0, sec(4), 1);
  EXPECT_EQ(a, b);
}

TEST(StepFunction, ToStringFormat) {
  const auto f = StepFunction::pulse(1000, 2000, 3);
  EXPECT_EQ(f.toString(), "[0:0 1000:3 3000:0]");
}

TEST(StepFunction, AdditionIdentity) {
  const auto f = StepFunction::pulse(sec(1), sec(2), 3);
  EXPECT_EQ(f + StepFunction{}, f);
}

TEST(StepFunction, SelfSubtractionIsZero) {
  const auto f = StepFunction::pulse(sec(1), sec(2), 3);
  EXPECT_TRUE((f - f).isZero());
}

// --- Copy-on-write storage -------------------------------------------------

/// A canonical profile of `n` segments (more than the 8 inline ones spill
/// to a shareable arena block): steps of 1..3 nodes every 10 s, some
/// negative so a clamp at 0 moves values.
StepFunction spilled(int n, NodeCount offset = 0) {
  std::vector<StepFunction::Segment> segments;
  for (int i = 0; i < n; ++i) {
    segments.push_back({sec(10 * i), offset + (i % 2 == 0 ? -1 : 1 + i % 3)});
  }
  return StepFunction::fromCanonical(segments);
}

std::vector<StepFunction::Segment> bits(const StepFunction& f) {
  return {f.segments().begin(), f.segments().end()};
}

TEST(StepFunctionSharing, CopiesShareASpilledBlock) {
  const StepFunction a = spilled(40);
  // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
  const StepFunction b = a;
  StepFunction c;
  c = b;
  EXPECT_EQ(b.segments().data(), a.segments().data());
  EXPECT_EQ(c.segments().data(), a.segments().data());
  EXPECT_EQ(bits(c), bits(a));

  // Inline profiles are copied: each copy has its own small buffer.
  const StepFunction small = StepFunction::pulse(sec(1), sec(2), 3);
  // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
  const StepFunction smallCopy = small;
  EXPECT_NE(smallCopy.segments().data(), small.segments().data());
  EXPECT_EQ(smallCopy, small);
}

TEST(StepFunctionSharing, SharedProfilesCompareEqual) {
  const StepFunction a = spilled(64);
  // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
  const StepFunction b = a;
  ASSERT_EQ(a.segments().data(), b.segments().data());
  EXPECT_TRUE(a == b);
  // Equality stays by value: an unshared equal profile still compares
  // equal, a different one does not.
  EXPECT_TRUE(a == spilled(64));
  EXPECT_FALSE(a == spilled(64, 1));
}

TEST(StepFunctionSharing, EveryMutatorLeavesTheOtherHolderIntact) {
  const StepFunction operand = spilled(24, 2);
  const StepFunction zero;  // max lifts the -1 steps, min cuts the rest
  const std::vector<StepFunction::Segment> window{{sec(55), 9}, {sec(75), 4}};
  const std::vector<
      std::pair<std::string, std::function<void(StepFunction&)>>>
      mutators{
          {"addPulse",
           [](StepFunction& f) { f.addPulse(sec(25), sec(30), 5); }},
          {"+=", [&](StepFunction& f) { f += operand; }},
          {"-=", [&](StepFunction& f) { f -= operand; }},
          {"pointwiseMax", [&](StepFunction& f) { f.pointwiseMax(zero); }},
          {"pointwiseMin", [&](StepFunction& f) { f.pointwiseMin(zero); }},
          {"clampMin", [](StepFunction& f) { f.clampMin(0); }},
          {"spliceWindow",
           [&](StepFunction& f) {
             ASSERT_TRUE(spliceWindow(f, sec(55), sec(95), window));
           }},
      };
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    for (const bool mutateCopy : {true, false}) {
      SCOPED_TRACE(mutateCopy ? "mutating the copy" : "mutating the source");
      StepFunction source = spilled(40);
      StepFunction copy = source;
      ASSERT_EQ(copy.segments().data(), source.segments().data());
      StepFunction& written = mutateCopy ? copy : source;
      const StepFunction& kept = mutateCopy ? source : copy;
      const std::vector<StepFunction::Segment> before = bits(kept);

      mutate(written);
      EXPECT_EQ(bits(kept), before);  // bit-identical, block untouched
      EXPECT_NE(bits(written), before) << "the mutator must move a value";
      EXPECT_NE(written.segments().data(), kept.segments().data());
      // The written holder matches the same mutation on an unshared copy.
      StepFunction unshared = StepFunction::fromCanonical(before);
      mutate(unshared);
      EXPECT_EQ(bits(written), bits(unshared));
    }
  }
}

TEST(StepFunctionSharing, ClampMinThatMovesNoValueDoesNotClone) {
  const StepFunction source = spilled(40, 5);  // every value >= 4
  StepFunction copy = source;
  copy.clampMin(0);
  EXPECT_EQ(copy.segments().data(), source.segments().data());
  copy.clampMin(4);  // the minimum itself: still nothing moves
  EXPECT_EQ(copy.segments().data(), source.segments().data());
  copy.clampMin(5);  // now values move: the copy gets its own block
  EXPECT_NE(copy.segments().data(), source.segments().data());
  EXPECT_EQ(source.minValue(), 4);
  EXPECT_EQ(copy.minValue(), 5);
}

TEST(StepFunctionSharing, LastReleaseParksExactlyOneBlock) {
  SegmentArena arena;
  const ArenaScope scope(&arena);
  auto first = std::make_unique<StepFunction>(spilled(40));
  auto second = std::make_unique<StepFunction>(*first);
  auto third = std::make_unique<StepFunction>();
  *third = *second;
  const std::size_t parked = arena.freeBlocks();
  first.reset();
  second.reset();
  EXPECT_EQ(arena.freeBlocks(), parked);  // the block is still held
  third.reset();
  EXPECT_EQ(arena.freeBlocks(), parked + 1);
}

TEST(StepFunctionSharing, ConcurrentCopiesAndReleasesOfOneProfile) {
  // Four threads copy, read, write (cloning) and drop one shared profile
  // at once; the reference count is the only state they share. Run under
  // ThreadSanitizer by the metrics label.
  const StepFunction shared = spilled(200);
  const std::vector<StepFunction::Segment> expected = bits(shared);
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 2000; ++round) {
        StepFunction copy = shared;
        if (!(copy == shared) || copy.at(sec(10)) != shared.at(sec(10))) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
        if (round % 16 == t) copy.addPulse(sec(5), sec(20), 1);  // clones
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
  EXPECT_EQ(bits(shared), expected);
}

}  // namespace
}  // namespace coorm
