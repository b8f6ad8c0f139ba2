// Pooled, small-buffer-optimised, shareable storage for profile segments.
//
// Profile arithmetic (the k-way sweeps behind StepFunction::combine and
// View::accumulate, the scheduler's per-cluster scratch) used to build a
// fresh std::vector<Segment> per result — at small populations that
// allocation churn dominated the sweep itself. The replacement has two
// layers:
//
//  - SegmentStore: a vector-like container for Segments with an 8-segment
//    inline buffer. Most profiles (a pre-allocation pulse, an occupation
//    step, a small view) never touch the heap at all.
//  - SegmentArena: a thread-local pool of power-of-two segment blocks.
//    Stores that outgrow the inline buffer draw blocks from the calling
//    thread's arena and return them on destruction, so steady-state sweeps
//    recycle the same few blocks instead of hitting the allocator
//    (metrics: arena_hits vs arena_slow_path).
//
// Ownership. Every granted block carries an atomic reference count in a
// header in front of its payload (outside the size class: a class-C block
// still holds C segments). A store that spilled holds one reference. Only
// finished profiles share: a StepFunction copy adds a reference to the
// source's block instead of copying it (SegmentStore::share) and clones
// the block once before its first write (SegmentStore::unshare). Sweep
// producers build into unshared stores, whose writes pay no check.
//
// Blocks are plain anonymous heap memory, not owned by the arena that
// issued them: a block may be granted on one thread and its last reference
// dropped on another (worker-pool fan-out: a view built on a worker and
// pushed from the server's thread) — the block simply joins the dropping
// thread's arena. One pool per thread is what makes that recycling close:
// where a block's last reference drops (inside a scheduling pass, or later
// when the daemon replaces a session's last-sent views) does not decide
// whether the thread's next pass can reuse it. Two pools on one thread
// would leak: blocks built from one and dropped into the other never come
// back, so the first keeps taking fresh blocks from the heap while the
// second parks idle ones up to its cap.
//
// Under AddressSanitizer a parked block's payload is poisoned until the
// arena grants it again, so a read through a reference released too early
// is reported instead of silently seeing the next owner's segments.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>

#include "coorm/common/ids.hpp"
#include "coorm/common/time.hpp"

namespace coorm {

/// One step of a piecewise-constant profile: `value` holds on
/// [start, next.start). This is StepFunction::Segment, hoisted to
/// namespace scope so the storage layer below can name it.
struct Segment {
  Time start{0};
  NodeCount value{0};
  friend constexpr auto operator<=>(const Segment&, const Segment&) = default;
};

/// A thread-local free-list pool of Segment blocks in power-of-two size
/// classes. Not thread-safe by itself — every instance is only ever
/// touched by one thread (the TLS default, or a test's ArenaScope
/// installation on the installing thread). The reference counts of granted
/// blocks are atomic: any thread may add or drop a reference.
class SegmentArena {
 public:
  /// Per-block header (reference count, free-list link); defined in
  /// segment_arena.cpp.
  struct BlockHeader;

  static constexpr std::size_t kMinBlockSegments = 16;
  /// Largest pooled size class. Covers the merged output of large n-ary
  /// sweeps (a 1024-view accumulate easily tops 4096 segments); anything
  /// bigger goes straight to the heap.
  static constexpr std::size_t kMaxBlockSegments = 65536;
  /// Free blocks parked per size class before release falls through to
  /// the heap. Big classes are additionally capped so no single class
  /// parks more than kMaxFreeBytesPerBucket of idle memory.
  static constexpr std::size_t kMaxFreePerBucket = 64;
  static constexpr std::size_t kMaxFreeBytesPerBucket = 4u << 20;
  /// 16, 32, ..., 65536 — one free list per power-of-two size class.
  static constexpr std::size_t kBucketCount = 13;

  SegmentArena() = default;
  ~SegmentArena();

  SegmentArena(const SegmentArena&) = delete;
  SegmentArena& operator=(const SegmentArena&) = delete;

  /// Returns a block of at least `capacity` segments, holding one
  /// reference; `capacity` is updated to the granted size-class capacity.
  /// Oversize requests (> kMaxBlockSegments) come straight from the heap,
  /// granted exactly.
  [[nodiscard]] Segment* allocate(std::size_t& capacity);

  /// Returns a block previously granted with capacity `capacity` (from
  /// any arena) whose references are all gone. Parked on the matching
  /// free list, or freed if the list is full or the block is oversize.
  void release(Segment* block, std::size_t capacity) noexcept;

  /// Free blocks currently parked (all size classes).
  [[nodiscard]] std::size_t freeBlocks() const noexcept;

  /// The calling thread's current arena: the thread default, created
  /// lazily (or a test's ArenaScope installation). Null only during thread
  /// teardown after the default's destruction.
  [[nodiscard]] static SegmentArena* current() noexcept;

  /// allocate() routed through current(); falls back to the plain heap
  /// when current() is null.
  [[nodiscard]] static Segment* allocateBlock(std::size_t& capacity);

  /// Reference counting of granted blocks, from any thread. retainBlock
  /// adds a holder; dropBlock removes one and, for the last holder,
  /// releases the block to current() (or the heap when current() is
  /// null); sharedBlock is true while more than one holder exists.
  static void retainBlock(const Segment* block) noexcept;
  static void dropBlock(Segment* block, std::size_t capacity) noexcept;
  [[nodiscard]] static bool sharedBlock(const Segment* block) noexcept;

 private:
  BlockHeader* free_[kBucketCount] = {};
  std::uint32_t count_[kBucketCount] = {};
};

/// Installs an arena as the calling thread's current() for this scope
/// (restoring the previous installation on exit). Null is a no-op: the
/// thread default stays current. A test seam only: unit tests install an
/// isolated pool to assert exact parking counts. Production code never
/// installs one — a second pool on a thread strands blocks (see the
/// ownership paragraph above).
class ArenaScope {
 public:
  explicit ArenaScope(SegmentArena* arena) noexcept;
  ~ArenaScope();

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  SegmentArena* previous_;
  bool installed_;
};

/// A contiguous, growable sequence of Segments with an inline small
/// buffer; spill storage comes from the calling thread's SegmentArena.
/// Deliberately minimal — exactly the std::vector surface the profile
/// layer uses. Copies are deep; share() is the explicit copy-on-write
/// alternative for finished profiles.
class SegmentStore {
 public:
  static constexpr std::size_t kInlineCapacity = 8;

  using value_type = Segment;
  using iterator = Segment*;
  using const_iterator = const Segment*;

  SegmentStore() noexcept {}
  SegmentStore(std::initializer_list<Segment> init) {
    assign(init.begin(), init.size());
  }
  explicit SegmentStore(std::span<const Segment> segments) {
    assign(segments.data(), segments.size());
  }
  SegmentStore(const SegmentStore& other) { assign(other.data_, other.size_); }
  SegmentStore(SegmentStore&& other) noexcept { takeFrom(other); }

  SegmentStore& operator=(const SegmentStore& other) {
    if (this != &other) assign(other.data_, other.size_);
    return *this;
  }
  SegmentStore& operator=(SegmentStore&& other) noexcept {
    if (this != &other) {
      releaseStorage();
      data_ = inlineData();
      capacity_ = kInlineCapacity;
      takeFrom(other);
    }
    return *this;
  }

  ~SegmentStore() { releaseStorage(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] Segment* data() noexcept { return data_; }
  [[nodiscard]] const Segment* data() const noexcept { return data_; }
  [[nodiscard]] iterator begin() noexcept { return data_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] iterator end() noexcept { return data_ + size_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }

  [[nodiscard]] Segment& operator[](std::size_t i) noexcept {
    return data_[i];
  }
  [[nodiscard]] const Segment& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] Segment& front() noexcept { return data_[0]; }
  [[nodiscard]] const Segment& front() const noexcept { return data_[0]; }
  [[nodiscard]] Segment& back() noexcept { return data_[size_ - 1]; }
  [[nodiscard]] const Segment& back() const noexcept {
    return data_[size_ - 1];
  }

  [[nodiscard]] std::span<const Segment> span() const noexcept {
    return {data_, size_};
  }
  operator std::span<const Segment>() const noexcept { return span(); }

  void clear() noexcept { size_ = 0; }

  void reserve(std::size_t newCapacity) {
    if (newCapacity > capacity_) grow(newCapacity);
  }

  /// Shrinks, or grows with zero segments (profile code only ever
  /// shrinks; growth keeps the vector contract anyway).
  void resize(std::size_t newSize) {
    if (newSize > capacity_) grow(newSize);
    for (std::size_t i = size_; i < newSize; ++i) data_[i] = Segment{};
    size_ = static_cast<std::uint32_t>(newSize);
  }

  /// Makes this store a second holder of `other`'s spilled block (one
  /// reference more, no copy); inline contents are copied. A holder must
  /// call unshare() before writing through any member above or below:
  /// they do not check, so a store that never shares pays nothing.
  void share(const SegmentStore& other) {
    if (data_ == other.data_) return;  // self, or already this block's holder
    if (isInline() && other.isInline()) {  // the common small profile
      std::memcpy(data_, other.data_, other.size_ * sizeof(Segment));
      size_ = other.size_;
      return;
    }
    shareSpilled(other);
  }
  /// True while the spilled block has another holder.
  [[nodiscard]] bool shared() const noexcept {
    return !isInline() && SegmentArena::sharedBlock(data_);
  }
  /// Gives this holder a private copy of a shared block (no-op when the
  /// block is already private or the store is inline).
  void unshare();

  void push_back(const Segment& segment) {
    if (size_ == capacity_) grow(size_ + 1);
    data_[size_++] = segment;
  }

  /// Inserts before index `at` (<= size()).
  void insert(std::size_t at, const Segment& segment) {
    if (size_ == capacity_) grow(size_ + 1);
    std::memmove(data_ + at + 1, data_ + at,
                 (size_ - at) * sizeof(Segment));
    data_[at] = segment;
    ++size_;
  }

  /// Removes the segment at index `at` (< size()).
  void erase(std::size_t at) noexcept {
    std::memmove(data_ + at, data_ + at + 1,
                 (size_ - at - 1) * sizeof(Segment));
    --size_;
  }

  friend bool operator==(const SegmentStore& a, const SegmentStore& b) {
    if (a.size_ != b.size_) return false;
    if (a.data_ == b.data_) return true;  // one shared block
    return std::memcmp(a.data_, b.data_,
                       a.size_ * sizeof(Segment)) == 0;
  }

 private:
  [[nodiscard]] Segment* inlineData() noexcept {
    return reinterpret_cast<Segment*>(inline_);
  }
  [[nodiscard]] bool isInline() const noexcept {
    return data_ == reinterpret_cast<const Segment*>(inline_);
  }

  void assign(const Segment* source, std::size_t count) {
    if (count > capacity_) growDiscard(count);
    std::memcpy(data_, source, count * sizeof(Segment));
    size_ = static_cast<std::uint32_t>(count);
  }

  void takeFrom(SegmentStore& other) noexcept {
    if (other.isInline()) {
      std::memcpy(data_, other.data_, other.size_ * sizeof(Segment));
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = other.inlineData();
      other.capacity_ = kInlineCapacity;
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  void releaseStorage() noexcept {
    if (!isInline()) SegmentArena::dropBlock(data_, capacity_);
  }

  void grow(std::size_t minCapacity);         ///< preserves contents
  void growDiscard(std::size_t minCapacity);  ///< contents abandoned
  void shareSpilled(const SegmentStore& other);  ///< share(), either spilled

  Segment* data_ = reinterpret_cast<Segment*>(inline_);
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineCapacity;
  alignas(Segment) std::byte inline_[kInlineCapacity * sizeof(Segment)];
};

}  // namespace coorm
