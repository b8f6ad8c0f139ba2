// Crash-safety journal for the RMS daemon (ROADMAP item 4).
//
// An append-only log of the externally-visible scheduler transitions:
// session registration, accepted requests, request starts/ends, and pass
// commits. `coorm_rmsd --journal <path>` replays it on startup so a
// SIGKILLed daemon restarts with every session, request and node
// allocation exactly where it left them (tests/test_net_chaos.cpp proves
// the replayed server is trace-identical to one that never died).
//
// On-disk format (all integers big-endian, like the wire codec):
//
//   file   := header record*
//   header := magic:u32 (0xC0524A4E) version:u32 (2)
//   record := len:u32 crc:u32 payload[len]
//
// `crc` is CRC-32 (reflected, poly 0xEDB88320) over the payload;
// `payload[0]` is the RecordType tag and the rest is encoded with the wire
// `Writer`/`Reader` — the codec doubles as the journal record format.
//
// Recovery policy (deliberately asymmetric, see tests/test_journal.cpp):
//  - a *torn tail* — fewer than 8 trailing bytes, or a record whose
//    payload runs past EOF — is the expected signature of a crash mid
//    append. The longest valid prefix is recovered and the tail truncated
//    on reopen.
//  - anything else — bad header, absurd length, CRC mismatch on a
//    complete record — means the log was corrupted at rest. Replay
//    refuses with a diagnostic rather than rebuild wrong state.
//
// Durability: `append()` frames the record and hands it to the kernel
// with one write(2) — it survives a process kill, not a power loss, until
// the next `sync()` (fsync) makes it durable. The Server fsyncs before
// anything a client may act on leaves, at exactly these sites:
//  - `connect` (session open) and `handleRequest` (the accepted request,
//    before its REQ_ACK id is returned);
//  - the release tail shared by `handleDone`, `handleDisconnect` and
//    `killApp` (the end, close or kill, plus the starts that release
//    allowed, before ENDED/KILLED/STARTED leave);
//  - the pass-commit barrier in `runPass` (the commit's starts and the
//    pass-commit record), followed by compaction past the size limit;
//  - the server-side end of an expired pre-allocation (`onExpiryTimer`).
// The pass hot path never fsyncs except at commit (BM_JournalAppend).
//
// Compaction: the Server re-emits its live state as ordinary records — a
// Counters record first, then per live session its SessionOpen, Request,
// Started and Ended records — and `compact()` atomically rewrites the file
// as header + those records (one write to a temp file, fsync, rename,
// fsync dir). Replay has one decoder: a compacted log and a grown one are
// read the same way.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace coorm::rms {

inline constexpr std::uint32_t kJournalMagic = 0xC0524A4E;  // 0xC052 "JN"
/// 2: one Request record per request (implicit wrappers get their own),
/// and a Counters record heads a compacted log.
inline constexpr std::uint32_t kJournalVersion = 2;
/// Hard ceiling on one record's payload; anything larger in the log is
/// corruption, not data (matches the wire codec's frame bound).
inline constexpr std::uint32_t kJournalMaxRecord = 4u << 20;

/// First payload byte of every record. Appending new types is
/// forwards-compatible the same way the wire MsgType range is; reusing or
/// renumbering is not.
enum class RecordType : std::uint8_t {
  kSessionOpen = 1,    ///< app id, session token, client name, time
  kRequest = 2,        ///< one accepted request: shape, constraint, implicit
                       ///< flag, the wrapper it is paired with, cookie
  kStarted = 3,        ///< request start: time, nAlloc, concrete node ids
  kEnded = 4,          ///< request end/cancel: time, final duration, releases
  kSessionClosed = 5,  ///< orderly GOODBYE at a given time
  kAppKilled = 6,      ///< violation kill at a given time
  kPassCommit = 7,     ///< scheduling pass committed at a given time
  kCounters = 8,       ///< head of a compacted log: time, next app id, next
                       ///< request id, last pass time
};

/// CRC-32 (IEEE 802.3 reflected, poly 0xEDB88320), table-driven.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Result of scanning a journal file before replay.
struct ScanResult {
  /// Record payloads (type byte included) of the longest valid prefix.
  std::vector<std::vector<std::uint8_t>> records;
  /// Bytes of header + valid records; the reopen offset. The constructor
  /// truncates anything past this (the torn tail).
  std::uint64_t validBytes = 0;
  /// A torn tail was found (and excluded) after the valid prefix.
  bool truncatedTail = false;
  /// Mid-log corruption: do NOT rebuild state from this file.
  bool refused = false;
  /// Human-readable reason when `refused` (offset + what was wrong).
  std::string diagnostic;
};

class Journal {
 public:
  /// Read-only scan of `path`. A missing or empty file yields an ok,
  /// empty result (fresh journal). Never modifies the file.
  [[nodiscard]] static ScanResult scan(const std::string& path);

  /// Opens `path` for appending, creating it (with a fresh header) if
  /// absent. `resumeAt` is ScanResult::validBytes from a prior scan: the
  /// file is truncated to it first, dropping any torn tail. Aborts on
  /// I/O errors — a daemon that cannot journal must not pretend to.
  Journal(std::string path, std::uint64_t resumeAt);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one record (framing + CRC added here) with one write(2):
  /// in the file at once, durable only after the next sync().
  void append(std::span<const std::uint8_t> payload);

  /// fsync barrier. Everything appended so far survives a crash.
  void sync();

  /// Atomically replaces the log with header + `records` (payloads, as
  /// append() takes them): all framed into one buffer, one write to
  /// `path.tmp`, fsync, rename over `path`, fsync the directory. The old
  /// fd is swapped for the new file; a crash at any point leaves either
  /// the old or the new journal intact, never a mix.
  void compact(const std::vector<std::vector<std::uint8_t>>& records);

  /// Current file size in bytes (header + records appended/compacted).
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  /// The durable prefix: the file size at the last sync() or compaction
  /// (0 before either). A test seam for the output-commit rule — what a
  /// power loss would keep — not a setting.
  [[nodiscard]] std::uint64_t syncedBytes() const { return syncedBytes_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void writeAll(int fd, const std::uint8_t* data, std::size_t n);

  std::string path_;
  int fd_ = -1;
  std::uint64_t bytes_ = 0;
  std::uint64_t syncedBytes_ = 0;
  std::vector<std::uint8_t> scratch_;  ///< reused per-append frame buffer
};

}  // namespace coorm::rms
