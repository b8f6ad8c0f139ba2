// Always-on, lock-free event counters and gauges (ClickHouse
// ProfileEvents/CurrentMetrics style).
//
// Every counter is a process-global relaxed atomic: incrementing one is a
// single uncontended fetch_add with no branches and no locks, cheap enough
// to leave on in release builds and on every hot path. The catalogue is a
// compile-time enum — adding a counter is one enum entry plus one name —
// and a point-in-time copy of everything is one `snapshot()` call.
//
// Export paths:
//  - `Server::metricsSnapshot()` — in-process query;
//  - the STATS admin wire message (net/wire.hpp), served by net::Daemon
//    and queried by `RmsClient::stats()` or `coorm_rmsd --stats`;
//  - `tools/bench_report.py --metrics` — counter snapshots folded into
//    the committed benchmark trajectory (COORM_METRICS_OUT=FILE on the
//    bench binary).
//
// Counters are monotonic event totals; gauges are signed current values
// (incremented on entry, decremented on exit); histograms are fixed-size
// log-bucketed latency/size distributions (record() is three relaxed
// fetch_adds) with p50/p90/p99/p999 extraction and bucket-wise merging.
// Readers see each counter individually atomically — a snapshot is not a
// consistent cut across counters, which is fine for monitoring.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace coorm::metrics {

/// Monotonic event counters. Every entry has a snake_case wire/report name
/// in `name()`; the enum value doubles as the id in the STATS payload.
enum class Event : std::uint16_t {
  kSchedulePasses,            ///< scheduling passes run to completion
  kSchedulePassesOverlapped,  ///< always 0: passes run inline (read by name)
  kSnapshotRebuilds,          ///< app snapshot captures rebuilt from scratch
  kSnapshotRefreshes,         ///< captures satisfied by verify-and-refresh
  kSnapshotSkips,             ///< captures skipped outright (epoch clean)
  kWriteBackAppsClean,        ///< write-backs skipped: results unchanged
  kWriteBackAppsDirty,        ///< write-backs that had to walk live requests
  kArenaHits,                 ///< segment blocks served from a free list
  kArenaSlowPath,             ///< segment blocks that hit the heap
  kSweepSegmentsMerged,       ///< segments produced by profile merge sweeps
  kWireBytesIn,               ///< payload+header bytes of decoded frames
  kWireBytesOut,              ///< payload+header bytes of encoded frames
  kFramesEncoded,             ///< wire frames encoded
  kFramesDecoded,             ///< complete wire frames delivered
  kBackpressureStalls,        ///< sends deferred to POLLOUT (kernel buffer full)
  kDeadPeerDrops,             ///< connections dropped on error/violation
  kIdlePeerDrops,             ///< connections dropped by the idle-deadline sweep
  kJournalRecordsAppended,    ///< records appended to the session journal
  kJournalBytesAppended,      ///< journal bytes written (records incl. framing)
  kJournalFsyncs,             ///< journal fsync barriers (commit boundaries)
  kJournalCompactions,        ///< journal rewrites to the live state
  kJournalRecordsReplayed,    ///< records replayed at startup recovery
  kSessionsResumed,           ///< RESUME handshakes re-attaching a session
  kReconnects,                ///< client reconnects completed (both ends count)
  kPassAppsDirty,             ///< apps re-derived by a pass (epoch moved)
  kPassAppsClean,             ///< apps served from the incremental cache
  kStep2RangesReused,         ///< Step 2 output profiles reused or spliced
  kLeasesRenewed,             ///< clean apps whose allocation carried over
  kLeasesPreempted,           ///< clean apps whose share a dirty neighbour moved
  kViewsDeltaSent,            ///< view pushes shipped as VIEWS_DELTA diffs
  kViewsDeltaBytesSaved,      ///< full-push payload bytes avoided by deltas
  kViewsResync,               ///< delta sessions resynced with a full push
  kFramesCoalesced,           ///< frames batched into an already-pending flush
  kEpollWakeups,              ///< epoll_wait returns with >= 1 ready fd
  kNpViewsMaterialized,       ///< published non-preemptive views evaluated for a reader
  kCount_,                    ///< not a counter — number of events
};

/// Signed current-value gauges.
enum class Gauge : std::uint16_t {
  kLiveSessions,    ///< connected application sessions
  kArenaBytesHeld,  ///< bytes parked in segment-arena free lists
  kLiveRequests,    ///< requests the RMS server holds (reclaimed ones leave)
  kCount_,          ///< not a gauge — number of gauges
};

/// Latency / size distributions. Log-bucketed fixed-size histograms (16
/// linear sub-buckets per power of two, HdrHistogram style): recording is
/// three relaxed fetch_adds, quantiles are accurate to the bucket width
/// (< 6.25% relative error). The unit is part of the name.
enum class Histo : std::uint16_t {
  kPassLatencyUs,    ///< scheduling pass, runPass() entry to commit done
  kPassPruneUs,      ///< pass phase: reclaim ended requests
  kPassCaptureUs,    ///< pass phase: snapshot recapture of the live sets
  kPassScheduleUs,   ///< pass phase: Scheduler::schedulePass (Steps 1-3)
  kPassWriteBackUs,  ///< pass phase: snapshot write-back + lease renewal
  kPassViewsUs,      ///< pass phase: view diff + push to sessions
  kPassCommitUs,     ///< pass phase: starts, violations, journal barrier
  kRequestRttUs,     ///< daemon-side REQUEST decode -> REQ_ACK write
  kJournalFsyncUs,   ///< Journal::sync() fsync wall time
  kWriteBatchBytes,  ///< bytes accepted per successful send(2) in a flush
  kCount_,           ///< not a histogram — number of histograms
};

inline constexpr std::size_t kEventCount =
    static_cast<std::size_t>(Event::kCount_);
inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(Gauge::kCount_);
inline constexpr std::size_t kHistoCount =
    static_cast<std::size_t>(Histo::kCount_);

/// Histogram geometry: 16 linear sub-buckets per power-of-two octave.
/// 512 buckets cover [0, 2^35) with saturation into the last bucket —
/// 9.5 hours at microsecond resolution, 32 GiB at byte resolution.
inline constexpr int kHistoSubBits = 4;
inline constexpr std::uint64_t kHistoSubBuckets = 1u << kHistoSubBits;
inline constexpr std::size_t kHistoBuckets = 512;

/// Bucket a value falls into. Values 0..15 get exact buckets; above that
/// each octave splits into 16 linear sub-buckets; out-of-range values
/// saturate into the last bucket.
[[nodiscard]] constexpr std::size_t bucketIndex(std::uint64_t value) noexcept {
  if (value < kHistoSubBuckets) return static_cast<std::size_t>(value);
  const int exp = std::bit_width(value) - 1;  // >= kHistoSubBits
  const std::size_t index =
      (static_cast<std::size_t>(exp - kHistoSubBits + 1) << kHistoSubBits) +
      static_cast<std::size_t>((value >> (exp - kHistoSubBits)) &
                               (kHistoSubBuckets - 1));
  return index < kHistoBuckets ? index : kHistoBuckets - 1;
}

/// Smallest value mapping to `index` (the value quantiles report).
[[nodiscard]] constexpr std::uint64_t bucketLowerBound(
    std::size_t index) noexcept {
  if (index < kHistoSubBuckets) return index;
  const int exp = static_cast<int>(index >> kHistoSubBits) + kHistoSubBits - 1;
  const std::uint64_t sub = index & (kHistoSubBuckets - 1);
  return (kHistoSubBuckets + sub) << (exp - kHistoSubBits);
}

/// Largest value mapping to `index` (UINT64_MAX for the saturation bucket).
[[nodiscard]] constexpr std::uint64_t bucketUpperBound(
    std::size_t index) noexcept {
  if (index + 1 >= kHistoBuckets) return ~std::uint64_t{0};
  return bucketLowerBound(index + 1) - 1;
}

/// A plain-data histogram: bucket counts plus sample count and sum.
/// This is what snapshots hold, what the wire ships (sparsely), and what
/// quantiles are extracted from. Mergeable across processes/threads.
struct HistogramData {
  std::array<std::uint64_t, kHistoBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  /// Folds `other` in (bucket-wise addition).
  void merge(const HistogramData& other) noexcept {
    for (std::size_t i = 0; i < kHistoBuckets; ++i) {
      buckets[i] += other.buckets[i];
    }
    count += other.count;
    sum += other.sum;
  }

  /// Samples actually present in the buckets. Tracks `count` except when a
  /// snapshot raced concurrent record() calls.
  [[nodiscard]] std::uint64_t totalInBuckets() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t c : buckets) total += c;
    return total;
  }

  /// Lower bound of the bucket holding the q-quantile sample (q in [0,1]).
  /// 0 on an empty histogram; accurate to the bucket width.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept {
    const std::uint64_t total = totalInBuckets();
    if (total == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total) + 0.5);
    if (rank == 0) rank = 1;
    if (rank > total) rank = total;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kHistoBuckets; ++i) {
      seen += buckets[i];
      if (seen >= rank) return bucketLowerBound(i);
    }
    return bucketLowerBound(kHistoBuckets - 1);
  }

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  friend bool operator==(const HistogramData&,
                         const HistogramData&) = default;
};

namespace detail {
/// The live, lock-free histogram cells behind the `Histo` catalogue.
struct AtomicHistogram {
  std::array<std::atomic<std::uint64_t>, kHistoBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
};
extern std::array<std::atomic<std::uint64_t>, kEventCount> events;
extern std::array<std::atomic<std::int64_t>, kGaugeCount> gauges;
extern std::array<AtomicHistogram, kHistoCount> histograms;
}  // namespace detail

/// Records `by` occurrences of `event`. Wait-free, safe from any thread.
inline void increment(Event event, std::uint64_t by = 1) noexcept {
  detail::events[static_cast<std::size_t>(event)].fetch_add(
      by, std::memory_order_relaxed);
}

/// Moves `gauge` by `delta` (negative to decrement).
inline void add(Gauge gauge, std::int64_t delta) noexcept {
  detail::gauges[static_cast<std::size_t>(gauge)].fetch_add(
      delta, std::memory_order_relaxed);
}

[[nodiscard]] inline std::uint64_t value(Event event) noexcept {
  return detail::events[static_cast<std::size_t>(event)].load(
      std::memory_order_relaxed);
}

[[nodiscard]] inline std::int64_t value(Gauge gauge) noexcept {
  return detail::gauges[static_cast<std::size_t>(gauge)].load(
      std::memory_order_relaxed);
}

/// Records one sample into a catalogue histogram. Wait-free: three
/// relaxed fetch_adds, no branches beyond the bucket math.
inline void record(Histo histo, std::uint64_t sample) noexcept {
  auto& h = detail::histograms[static_cast<std::size_t>(histo)];
  h.buckets[bucketIndex(sample)].fetch_add(1, std::memory_order_relaxed);
  h.count.fetch_add(1, std::memory_order_relaxed);
  h.sum.fetch_add(sample, std::memory_order_relaxed);
}

/// Steady-clock nanoseconds (the histogram/tracer timebase — the
/// millisecond `coorm::Time` is too coarse for latency distributions).
[[nodiscard]] inline std::uint64_t nowNanos() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// ClickHouse-style stopwatch for feeding latency histograms.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(nowNanos()) {}
  void restart() noexcept { start_ = nowNanos(); }
  [[nodiscard]] std::uint64_t elapsedNanos() const noexcept {
    return nowNanos() - start_;
  }
  [[nodiscard]] std::uint64_t elapsedMicros() const noexcept {
    return elapsedNanos() / 1000;
  }

 private:
  std::uint64_t start_;
};

/// snake_case catalogue name ("schedule_passes", "arena_slow_path", ...).
[[nodiscard]] std::string_view name(Event event) noexcept;
[[nodiscard]] std::string_view name(Gauge gauge) noexcept;
[[nodiscard]] std::string_view name(Histo histo) noexcept;

/// A point-in-time copy of every counter. Plain data: compare, subtract
/// and ship over the wire freely.
struct Snapshot {
  std::array<std::uint64_t, kEventCount> events{};
  std::array<std::int64_t, kGaugeCount> gauges{};
  std::array<HistogramData, kHistoCount> histos{};

  [[nodiscard]] std::uint64_t operator[](Event event) const noexcept {
    return events[static_cast<std::size_t>(event)];
  }
  [[nodiscard]] std::int64_t operator[](Gauge gauge) const noexcept {
    return gauges[static_cast<std::size_t>(gauge)];
  }
  [[nodiscard]] const HistogramData& operator[](Histo histo) const noexcept {
    return histos[static_cast<std::size_t>(histo)];
  }

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// Copies every counter (each read individually atomic).
[[nodiscard]] Snapshot snapshot() noexcept;

/// Resets every counter and gauge to zero. For tests that assert exact
/// values — never call while another thread may be counting.
void reset() noexcept;

}  // namespace coorm::metrics
