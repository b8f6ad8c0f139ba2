#include "coorm/profile/segment_arena.hpp"

#include <algorithm>
#include <atomic>
#include <new>

#include "coorm/common/check.hpp"
#include "coorm/common/metrics.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define COORM_ARENA_POISON 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COORM_ARENA_POISON 1
#endif
#endif
#ifdef COORM_ARENA_POISON
#include <sanitizer/asan_interface.h>
#endif

namespace coorm {

/// Sits in front of every block's payload. While the block is granted
/// `refs` counts its holders; while it is parked `next` links the free
/// list (the header is never poisoned, so the link stays readable).
struct SegmentArena::BlockHeader {
  std::atomic<std::uint32_t> refs{1};
  BlockHeader* next = nullptr;
};

namespace {

constexpr std::size_t kSegmentBytes = sizeof(Segment);
constexpr std::size_t kHeaderBytes = sizeof(SegmentArena::BlockHeader);
static_assert(kHeaderBytes % alignof(Segment) == 0,
              "the payload after a block header must stay aligned");

SegmentArena::BlockHeader* headerOf(const Segment* payload) {
  return reinterpret_cast<SegmentArena::BlockHeader*>(
             const_cast<Segment*>(payload)) -
         1;
}

Segment* payloadOf(SegmentArena::BlockHeader* header) {
  return reinterpret_cast<Segment*>(header + 1);
}

/// Parked payloads are unreadable under ASan until granted again.
void poison([[maybe_unused]] Segment* payload,
            [[maybe_unused]] std::size_t capacity) {
#ifdef COORM_ARENA_POISON
  ASAN_POISON_MEMORY_REGION(payload, capacity * kSegmentBytes);
#endif
}

void unpoison([[maybe_unused]] Segment* payload,
              [[maybe_unused]] std::size_t capacity) {
#ifdef COORM_ARENA_POISON
  ASAN_UNPOISON_MEMORY_REGION(payload, capacity * kSegmentBytes);
#endif
}

/// Size-class capacity of bucket b: kMinBlockSegments << b.
constexpr std::size_t bucketCapacity(std::size_t bucket) {
  return SegmentArena::kMinBlockSegments << bucket;
}

/// Smallest bucket whose capacity covers `capacity`, or kBucketCount for
/// oversize requests.
std::size_t bucketFor(std::size_t capacity) {
  std::size_t bucket = 0;
  std::size_t granted = SegmentArena::kMinBlockSegments;
  while (granted < capacity && granted < SegmentArena::kMaxBlockSegments) {
    granted <<= 1;
    ++bucket;
  }
  return granted >= capacity ? bucket : SegmentArena::kBucketCount;
}

Segment* heapBlock(std::size_t capacity) {
  metrics::increment(metrics::Event::kArenaSlowPath);
  void* raw = ::operator new(kHeaderBytes + capacity * kSegmentBytes);
  return payloadOf(new (raw) SegmentArena::BlockHeader);
}

void freeBlock(Segment* payload) { ::operator delete(headerOf(payload)); }

// A test's ArenaScope override shadows the thread default; the dead flag
// stops current() from resurrecting an arena while thread-locals are being
// torn down (static thread_local destruction order is unspecified relative
// to other TLS users).
thread_local SegmentArena* tlsOverride = nullptr;
thread_local bool tlsDefaultDead = false;

SegmentArena*& threadDefaultSlot() {
  thread_local SegmentArena* slot = nullptr;
  return slot;
}

}  // namespace

SegmentArena::~SegmentArena() {
  std::int64_t bytesHeld = 0;
  for (std::size_t bucket = 0; bucket < kBucketCount; ++bucket) {
    const std::size_t blockBytes = bucketCapacity(bucket) * kSegmentBytes;
    BlockHeader* head = free_[bucket];
    while (head != nullptr) {
      BlockHeader* next = head->next;
      ::operator delete(head);
      bytesHeld += static_cast<std::int64_t>(blockBytes);
      head = next;
    }
  }
  if (bytesHeld > 0) metrics::add(metrics::Gauge::kArenaBytesHeld, -bytesHeld);
  if (threadDefaultSlot() == this) {
    threadDefaultSlot() = nullptr;
    tlsDefaultDead = true;
  }
  if (tlsOverride == this) tlsOverride = nullptr;
}

Segment* SegmentArena::allocate(std::size_t& capacity) {
  const std::size_t bucket = bucketFor(capacity);
  if (bucket >= kBucketCount) return heapBlock(capacity);  // oversize
  capacity = bucketCapacity(bucket);
  BlockHeader* head = free_[bucket];
  if (head == nullptr) return heapBlock(capacity);
  free_[bucket] = head->next;
  --count_[bucket];
  metrics::increment(metrics::Event::kArenaHits);
  metrics::add(metrics::Gauge::kArenaBytesHeld,
               -static_cast<std::int64_t>(capacity * kSegmentBytes));
  head->refs.store(1, std::memory_order_relaxed);
  Segment* payload = payloadOf(head);
  unpoison(payload, capacity);
  return payload;
}

void SegmentArena::release(Segment* block, std::size_t capacity) noexcept {
  const std::size_t bucket = bucketFor(capacity);
  // Per-class parking cap: a block count for the small classes, a byte
  // budget for the big ones (64 one-MiB blocks of idle memory would not
  // be a pool, it would be a leak).
  const std::size_t maxFree =
      std::min(kMaxFreePerBucket,
               std::max<std::size_t>(
                   1, kMaxFreeBytesPerBucket /
                          (bucketCapacity(bucket < kBucketCount ? bucket : 0) *
                           kSegmentBytes)));
  // Granted capacities are exact size classes; anything else is oversize.
  if (bucket >= kBucketCount || bucketCapacity(bucket) != capacity ||
      count_[bucket] >= maxFree) {
    freeBlock(block);
    return;
  }
  poison(block, capacity);
  BlockHeader* freed = headerOf(block);
  freed->next = free_[bucket];
  free_[bucket] = freed;
  ++count_[bucket];
  metrics::add(metrics::Gauge::kArenaBytesHeld,
               static_cast<std::int64_t>(capacity * kSegmentBytes));
}

std::size_t SegmentArena::freeBlocks() const noexcept {
  std::size_t total = 0;
  for (const std::uint32_t count : count_) total += count;
  return total;
}

SegmentArena* SegmentArena::current() noexcept {
  if (tlsOverride != nullptr) return tlsOverride;
  SegmentArena*& slot = threadDefaultSlot();
  if (slot == nullptr && !tlsDefaultDead) {
    static thread_local SegmentArena threadDefault;
    slot = &threadDefault;
  }
  return slot;
}

Segment* SegmentArena::allocateBlock(std::size_t& capacity) {
  SegmentArena* arena = current();
  if (arena == nullptr) return heapBlock(capacity);
  return arena->allocate(capacity);
}

void SegmentArena::retainBlock(const Segment* block) noexcept {
  headerOf(block)->refs.fetch_add(1, std::memory_order_relaxed);
}

bool SegmentArena::sharedBlock(const Segment* block) noexcept {
  // Acquire pairs with the releasing decrement of a holder that just left:
  // its reads of the block happen before the caller's first write.
  return headerOf(block)->refs.load(std::memory_order_acquire) > 1;
}

void SegmentArena::dropBlock(Segment* block, std::size_t capacity) noexcept {
  std::atomic<std::uint32_t>& refs = headerOf(block)->refs;
  // A sole holder skips the read-modify-write: nobody else can add a
  // reference to a block only it holds.
  if (refs.load(std::memory_order_acquire) != 1 &&
      refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  SegmentArena* arena = current();
  if (arena == nullptr) {
    freeBlock(block);
    return;
  }
  arena->release(block, capacity);
}

ArenaScope::ArenaScope(SegmentArena* arena) noexcept
    : previous_(tlsOverride), installed_(arena != nullptr) {
  if (installed_) tlsOverride = arena;
}

ArenaScope::~ArenaScope() {
  if (installed_) tlsOverride = previous_;
}

void SegmentStore::grow(std::size_t minCapacity) {
  std::size_t newCapacity =
      std::max<std::size_t>(minCapacity, 2 * std::size_t{capacity_});
  Segment* block = SegmentArena::allocateBlock(newCapacity);
  std::memcpy(block, data_, size_ * sizeof(Segment));
  releaseStorage();
  data_ = block;
  COORM_DCHECK(newCapacity <= UINT32_MAX);
  capacity_ = static_cast<std::uint32_t>(newCapacity);
}

void SegmentStore::shareSpilled(const SegmentStore& other) {
  if (!other.isInline()) SegmentArena::retainBlock(other.data_);
  releaseStorage();
  if (other.isInline()) {
    data_ = inlineData();
    capacity_ = kInlineCapacity;
    std::memcpy(data_, other.data_, other.size_ * sizeof(Segment));
  } else {
    data_ = other.data_;
    capacity_ = other.capacity_;
  }
  size_ = other.size_;
}

void SegmentStore::unshare() {
  if (!shared()) return;
  std::size_t capacity = capacity_;
  Segment* block = SegmentArena::allocateBlock(capacity);
  std::memcpy(block, data_, size_ * sizeof(Segment));
  releaseStorage();
  data_ = block;
  capacity_ = static_cast<std::uint32_t>(capacity);
}

void SegmentStore::growDiscard(std::size_t minCapacity) {
  std::size_t newCapacity =
      std::max<std::size_t>(minCapacity, 2 * std::size_t{capacity_});
  Segment* block = SegmentArena::allocateBlock(newCapacity);
  releaseStorage();
  data_ = block;
  COORM_DCHECK(newCapacity <= UINT32_MAX);
  capacity_ = static_cast<std::uint32_t>(newCapacity);
}

}  // namespace coorm
