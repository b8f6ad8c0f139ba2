#include "coorm/common/metrics.hpp"

namespace coorm::metrics {

namespace detail {
std::array<std::atomic<std::uint64_t>, kEventCount> events{};
std::array<std::atomic<std::int64_t>, kGaugeCount> gauges{};
std::array<AtomicHistogram, kHistoCount> histograms{};
}  // namespace detail

std::string_view name(Event event) noexcept {
  switch (event) {
    case Event::kSchedulePasses:
      return "schedule_passes";
    case Event::kSchedulePassesOverlapped:
      return "schedule_passes_overlapped";
    case Event::kSnapshotRebuilds:
      return "snapshot_rebuilds";
    case Event::kSnapshotRefreshes:
      return "snapshot_refreshes";
    case Event::kSnapshotSkips:
      return "snapshot_skips";
    case Event::kWriteBackAppsClean:
      return "write_back_apps_clean";
    case Event::kWriteBackAppsDirty:
      return "write_back_apps_dirty";
    case Event::kArenaHits:
      return "arena_hits";
    case Event::kArenaSlowPath:
      return "arena_slow_path";
    case Event::kSweepSegmentsMerged:
      return "sweep_segments_merged";
    case Event::kWireBytesIn:
      return "wire_bytes_in";
    case Event::kWireBytesOut:
      return "wire_bytes_out";
    case Event::kFramesEncoded:
      return "frames_encoded";
    case Event::kFramesDecoded:
      return "frames_decoded";
    case Event::kBackpressureStalls:
      return "backpressure_stalls";
    case Event::kDeadPeerDrops:
      return "dead_peer_drops";
    case Event::kIdlePeerDrops:
      return "idle_peer_drops";
    case Event::kJournalRecordsAppended:
      return "journal_records_appended";
    case Event::kJournalBytesAppended:
      return "journal_bytes_appended";
    case Event::kJournalFsyncs:
      return "journal_fsyncs";
    case Event::kJournalCompactions:
      return "journal_compactions";
    case Event::kJournalRecordsReplayed:
      return "journal_records_replayed";
    case Event::kSessionsResumed:
      return "sessions_resumed";
    case Event::kReconnects:
      return "reconnects";
    case Event::kPassAppsDirty:
      return "pass_apps_dirty";
    case Event::kPassAppsClean:
      return "pass_apps_clean";
    case Event::kStep2RangesReused:
      return "step2_ranges_reused";
    case Event::kLeasesRenewed:
      return "leases_renewed";
    case Event::kLeasesPreempted:
      return "leases_preempted";
    case Event::kViewsDeltaSent:
      return "views_delta_sent";
    case Event::kViewsDeltaBytesSaved:
      return "views_delta_bytes_saved";
    case Event::kViewsResync:
      return "views_resync";
    case Event::kFramesCoalesced:
      return "frames_coalesced";
    case Event::kEpollWakeups:
      return "epoll_wakeups";
    case Event::kNpViewsMaterialized:
      return "np_views_materialized";
    case Event::kCount_:
      break;
  }
  return "unknown_event";
}

std::string_view name(Gauge gauge) noexcept {
  switch (gauge) {
    case Gauge::kLiveSessions:
      return "live_sessions";
    case Gauge::kArenaBytesHeld:
      return "arena_bytes_held";
    case Gauge::kLiveRequests:
      return "live_requests";
    case Gauge::kCount_:
      break;
  }
  return "unknown_gauge";
}

std::string_view name(Histo histo) noexcept {
  switch (histo) {
    case Histo::kPassLatencyUs:
      return "pass_latency_us";
    case Histo::kPassPruneUs:
      return "pass_prune_us";
    case Histo::kPassCaptureUs:
      return "pass_capture_us";
    case Histo::kPassScheduleUs:
      return "pass_schedule_us";
    case Histo::kPassWriteBackUs:
      return "pass_write_back_us";
    case Histo::kPassViewsUs:
      return "pass_views_us";
    case Histo::kPassCommitUs:
      return "pass_commit_us";
    case Histo::kRequestRttUs:
      return "request_rtt_us";
    case Histo::kJournalFsyncUs:
      return "journal_fsync_us";
    case Histo::kWriteBatchBytes:
      return "write_batch_bytes";
    case Histo::kCount_:
      break;
  }
  return "unknown_histogram";
}

Snapshot snapshot() noexcept {
  Snapshot copy;
  for (std::size_t i = 0; i < kEventCount; ++i) {
    copy.events[i] = detail::events[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    copy.gauges[i] = detail::gauges[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kHistoCount; ++i) {
    const detail::AtomicHistogram& live = detail::histograms[i];
    HistogramData& data = copy.histos[i];
    for (std::size_t b = 0; b < kHistoBuckets; ++b) {
      data.buckets[b] = live.buckets[b].load(std::memory_order_relaxed);
    }
    data.count = live.count.load(std::memory_order_relaxed);
    data.sum = live.sum.load(std::memory_order_relaxed);
  }
  return copy;
}

void reset() noexcept {
  for (auto& counter : detail::events) {
    counter.store(0, std::memory_order_relaxed);
  }
  for (auto& gauge : detail::gauges) {
    gauge.store(0, std::memory_order_relaxed);
  }
  for (auto& histogram : detail::histograms) {
    for (auto& bucket : histogram.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    histogram.count.store(0, std::memory_order_relaxed);
    histogram.sum.store(0, std::memory_order_relaxed);
  }
}

}  // namespace coorm::metrics
