// SegmentArena pooling and SegmentStore small-buffer behaviour
// (coorm/profile/segment_arena.hpp).
#include "coorm/profile/segment_arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "coorm/common/metrics.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define COORM_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COORM_TEST_ASAN 1
#endif
#endif
#ifdef COORM_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace coorm {
namespace {

TEST(SegmentArena, GrantsPowerOfTwoSizeClasses) {
  SegmentArena arena;
  const auto granted = [&](std::size_t requested) {
    std::size_t capacity = requested;
    Segment* block = arena.allocate(capacity);
    arena.release(block, capacity);
    return capacity;
  };
  EXPECT_EQ(granted(1), SegmentArena::kMinBlockSegments);
  EXPECT_EQ(granted(16), 16u);
  EXPECT_EQ(granted(17), 32u);
  EXPECT_EQ(granted(100), 128u);
  EXPECT_EQ(granted(4096), 4096u);
  EXPECT_EQ(granted(SegmentArena::kMaxBlockSegments),
            SegmentArena::kMaxBlockSegments);
}

TEST(SegmentArena, OversizeRequestsAreGrantedExactlyAndNotPooled) {
  SegmentArena arena;
  const std::uint64_t slowBefore =
      metrics::value(metrics::Event::kArenaSlowPath);
  std::size_t capacity = SegmentArena::kMaxBlockSegments + 1;
  Segment* block = arena.allocate(capacity);
  EXPECT_EQ(capacity, SegmentArena::kMaxBlockSegments + 1);  // not rounded
  EXPECT_GT(metrics::value(metrics::Event::kArenaSlowPath), slowBefore);
  arena.release(block, capacity);
  EXPECT_EQ(arena.freeBlocks(), 0u);  // oversize blocks never park
}

TEST(SegmentArena, ReleasedBlocksAreReused) {
  SegmentArena arena;
  std::size_t capacity = 64;
  Segment* block = arena.allocate(capacity);
  ASSERT_EQ(capacity, 64u);
  arena.release(block, capacity);
  EXPECT_EQ(arena.freeBlocks(), 1u);

  const std::uint64_t hitsBefore = metrics::value(metrics::Event::kArenaHits);
  std::size_t again = 33;  // same size class
  Segment* reused = arena.allocate(again);
  EXPECT_EQ(reused, block);
  EXPECT_EQ(again, 64u);
  EXPECT_EQ(arena.freeBlocks(), 0u);
  EXPECT_EQ(metrics::value(metrics::Event::kArenaHits), hitsBefore + 1);
  arena.release(reused, again);
}

TEST(SegmentArena, SmallClassParkingIsCappedByBlockCount) {
  SegmentArena arena;
  std::vector<Segment*> blocks;
  for (std::size_t i = 0; i < SegmentArena::kMaxFreePerBucket + 8; ++i) {
    std::size_t capacity = SegmentArena::kMinBlockSegments;
    blocks.push_back(arena.allocate(capacity));
  }
  for (Segment* block : blocks) {
    arena.release(block, SegmentArena::kMinBlockSegments);
  }
  // The 8 releases past the cap fell through to the heap.
  EXPECT_EQ(arena.freeBlocks(), SegmentArena::kMaxFreePerBucket);
}

TEST(SegmentArena, BigClassParkingIsCappedByBytes) {
  SegmentArena arena;
  constexpr std::size_t kBig = SegmentArena::kMaxBlockSegments;
  const std::size_t byteCap = std::max<std::size_t>(
      1, SegmentArena::kMaxFreeBytesPerBucket / (kBig * sizeof(Segment)));
  const std::size_t expected =
      std::min(SegmentArena::kMaxFreePerBucket, byteCap);
  ASSERT_LT(expected, SegmentArena::kMaxFreePerBucket)
      << "kMaxBlockSegments blocks should hit the byte cap first";

  std::vector<Segment*> blocks;
  for (std::size_t i = 0; i < expected + 3; ++i) {
    std::size_t capacity = kBig;
    blocks.push_back(arena.allocate(capacity));
  }
  for (Segment* block : blocks) arena.release(block, kBig);
  EXPECT_EQ(arena.freeBlocks(), expected);
}

TEST(SegmentArena, ArenaScopeRoutesStoreSpillsToInstalledArena) {
  SegmentArena arena;
  {
    ArenaScope scope(&arena);
    EXPECT_EQ(SegmentArena::current(), &arena);
    SegmentStore store;
    for (int i = 0; i <= static_cast<int>(SegmentStore::kInlineCapacity);
         ++i) {
      store.push_back({Time{i}, NodeCount{i + 1}});
    }
    // The spilled block belongs to no arena yet; it parks on destruction.
    EXPECT_EQ(arena.freeBlocks(), 0u);
  }
  EXPECT_EQ(arena.freeBlocks(), 1u);
  EXPECT_NE(SegmentArena::current(), &arena);  // scope restored the default
}

TEST(SegmentArena, NullScopeKeepsThreadDefault) {
  SegmentArena* before = SegmentArena::current();
  ArenaScope scope(nullptr);
  EXPECT_EQ(SegmentArena::current(), before);
}

TEST(SegmentStore, StaysInlineUpToInlineCapacity) {
  SegmentStore store;
  EXPECT_EQ(store.capacity(), SegmentStore::kInlineCapacity);
  const std::uint64_t slowBefore =
      metrics::value(metrics::Event::kArenaSlowPath);
  const std::uint64_t hitsBefore = metrics::value(metrics::Event::kArenaHits);
  for (int i = 0; i < static_cast<int>(SegmentStore::kInlineCapacity); ++i) {
    store.push_back({Time{i * 10}, NodeCount{i}});
  }
  EXPECT_EQ(store.size(), SegmentStore::kInlineCapacity);
  EXPECT_EQ(store.capacity(), SegmentStore::kInlineCapacity);
  // Inline storage means no arena traffic at all.
  EXPECT_EQ(metrics::value(metrics::Event::kArenaSlowPath), slowBefore);
  EXPECT_EQ(metrics::value(metrics::Event::kArenaHits), hitsBefore);
}

TEST(SegmentStore, SpillsPreserveContents) {
  SegmentStore store;
  for (int i = 0; i < 40; ++i) {
    store.push_back({Time{i * 7}, NodeCount{i * 3}});
  }
  ASSERT_EQ(store.size(), 40u);
  EXPECT_GT(store.capacity(), SegmentStore::kInlineCapacity);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(store[static_cast<std::size_t>(i)].start, Time{i * 7});
    EXPECT_EQ(store[static_cast<std::size_t>(i)].value, NodeCount{i * 3});
  }
}

TEST(SegmentStore, InsertEraseAndEquality) {
  SegmentStore store{{0, 1}, {10, 2}, {30, 3}};
  store.insert(2, {20, 9});
  ASSERT_EQ(store.size(), 4u);
  EXPECT_EQ(store[2].start, Time{20});
  EXPECT_EQ(store[2].value, NodeCount{9});
  EXPECT_EQ(store[3].start, Time{30});
  store.erase(2);
  EXPECT_EQ(store, (SegmentStore{{0, 1}, {10, 2}, {30, 3}}));
  EXPECT_NE(store, (SegmentStore{{0, 1}, {10, 2}}));
}

TEST(SegmentStore, MoveStealsSpilledStorage) {
  SegmentStore big;
  for (int i = 0; i < 64; ++i) big.push_back({Time{i}, NodeCount{1 + i}});
  const Segment* data = big.data();
  ASSERT_GT(big.capacity(), SegmentStore::kInlineCapacity);

  SegmentStore moved(std::move(big));
  EXPECT_EQ(moved.data(), data);  // pointer stolen, not copied
  EXPECT_EQ(moved.size(), 64u);
  EXPECT_TRUE(big.empty());
  EXPECT_EQ(big.capacity(), SegmentStore::kInlineCapacity);

  SegmentStore small{{0, 5}};
  SegmentStore movedSmall(std::move(small));
  ASSERT_EQ(movedSmall.size(), 1u);
  EXPECT_EQ(movedSmall[0].value, NodeCount{5});
}

TEST(SegmentStore, SteadyStateReusesOneArenaBlock) {
  SegmentArena arena;
  ArenaScope scope(&arena);
  {
    // Warm the pool with one spill-sized block.
    SegmentStore warm;
    warm.resize(100);
  }
  ASSERT_EQ(arena.freeBlocks(), 1u);

  const std::uint64_t slowBefore =
      metrics::value(metrics::Event::kArenaSlowPath);
  const std::uint64_t hitsBefore = metrics::value(metrics::Event::kArenaHits);
  for (int round = 0; round < 32; ++round) {
    SegmentStore store;
    store.resize(100);  // same size class every round
  }
  EXPECT_EQ(metrics::value(metrics::Event::kArenaSlowPath), slowBefore);
  EXPECT_EQ(metrics::value(metrics::Event::kArenaHits), hitsBefore + 32);
  EXPECT_EQ(arena.freeBlocks(), 1u);
}

TEST(SegmentArena, LastDropParksASharedBlock) {
  SegmentArena arena;
  const ArenaScope scope(&arena);
  std::size_t capacity = 64;
  Segment* block = SegmentArena::allocateBlock(capacity);
  EXPECT_FALSE(SegmentArena::sharedBlock(block));  // granted with one holder
  SegmentArena::retainBlock(block);
  EXPECT_TRUE(SegmentArena::sharedBlock(block));
  SegmentArena::dropBlock(block, capacity);
  EXPECT_FALSE(SegmentArena::sharedBlock(block));
  EXPECT_EQ(arena.freeBlocks(), 0u);  // one holder left: not parked
  SegmentArena::dropBlock(block, capacity);
  EXPECT_EQ(arena.freeBlocks(), 1u);
  std::size_t again = 64;
  Segment* regranted = arena.allocate(again);
  EXPECT_EQ(regranted, block);
  EXPECT_FALSE(SegmentArena::sharedBlock(regranted));  // count reset to one
  arena.release(regranted, again);
}

TEST(SegmentArena, LargestPooledClassHoldsItsFullCapacity) {
  // The block header lives outside the size class: a reserve of exactly
  // kMaxBlockSegments (the clamp the n-ary sweeps use) stays pooled.
  SegmentArena arena;
  const ArenaScope scope(&arena);
  {
    SegmentStore warm;
    warm.reserve(SegmentArena::kMaxBlockSegments);
  }
  ASSERT_EQ(arena.freeBlocks(), 1u);
  const std::uint64_t slowBefore =
      metrics::value(metrics::Event::kArenaSlowPath);
  SegmentStore store;
  store.reserve(SegmentArena::kMaxBlockSegments);
  EXPECT_EQ(store.capacity(), SegmentArena::kMaxBlockSegments);
  EXPECT_EQ(metrics::value(metrics::Event::kArenaSlowPath), slowBefore);
}

TEST(SegmentStore, ShareAddsAHolderAndUnshareClonesOnce) {
  SegmentStore source;
  for (int i = 0; i < 40; ++i) source.push_back({Time{i}, NodeCount{i}});
  SegmentStore holder;
  holder.share(source);
  EXPECT_EQ(holder.data(), source.data());
  EXPECT_EQ(holder, source);
  EXPECT_TRUE(source.shared());
  EXPECT_TRUE(holder.shared());

  holder.unshare();
  EXPECT_NE(holder.data(), source.data());
  EXPECT_EQ(holder, source);  // same contents, private block
  EXPECT_FALSE(source.shared());
  const Segment* own = holder.data();
  holder.unshare();  // already private: no clone
  EXPECT_EQ(holder.data(), own);
  holder[0].value = 99;
  EXPECT_EQ(source[0].value, NodeCount{0});
}

TEST(SegmentStore, ShareOfAnInlineStoreCopies) {
  const SegmentStore small{{0, 1}, {10, 2}};
  SegmentStore big;
  for (int i = 0; i < 40; ++i) big.push_back({Time{i}, NodeCount{i}});
  big.share(small);  // drops the spilled block, copies the inline contents
  EXPECT_EQ(big, small);
  EXPECT_NE(big.data(), small.data());
  EXPECT_EQ(big.capacity(), SegmentStore::kInlineCapacity);
  EXPECT_FALSE(big.shared());
}

#ifdef COORM_TEST_ASAN
TEST(SegmentArena, ParkedBlocksArePoisonedUnderAsan) {
  SegmentArena arena;
  std::size_t capacity = 64;
  Segment* block = arena.allocate(capacity);
  EXPECT_EQ(__asan_region_is_poisoned(block, capacity * sizeof(Segment)),
            nullptr);
  arena.release(block, capacity);
  EXPECT_TRUE(__asan_address_is_poisoned(block));
  EXPECT_TRUE(__asan_address_is_poisoned(block + capacity - 1));
  // The free-list link in the block header stays readable.
  EXPECT_FALSE(
      __asan_address_is_poisoned(reinterpret_cast<const char*>(block) - 1));

  std::size_t again = 64;
  Segment* regranted = arena.allocate(again);
  ASSERT_EQ(regranted, block);
  EXPECT_EQ(__asan_region_is_poisoned(regranted, again * sizeof(Segment)),
            nullptr);
  arena.release(regranted, again);
}
#endif

}  // namespace
}  // namespace coorm
