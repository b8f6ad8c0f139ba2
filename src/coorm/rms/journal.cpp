#include "coorm/rms/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <utility>

#include "coorm/common/check.hpp"
#include "coorm/common/metrics.hpp"
#include "coorm/common/trace.hpp"
#include "coorm/net/wire.hpp"

namespace coorm::rms {
namespace {

constexpr std::size_t kHeaderBytes = 8;  // magic + version
constexpr std::size_t kFrameBytes = 8;   // len + crc

std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

std::uint32_t readU32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = makeCrcTable();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    c = table[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

ScanResult Journal::scan(const std::string& path) {
  ScanResult result;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return result;  // fresh journal
    result.refused = true;
    result.diagnostic = "cannot open journal: " + path;
    return result;
  }

  std::vector<std::uint8_t> file;
  std::array<std::uint8_t, 1 << 16> chunk;
  for (;;) {
    const ssize_t n = ::read(fd, chunk.data(), chunk.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      result.refused = true;
      result.diagnostic = "read error scanning journal: " + path;
      return result;
    }
    if (n == 0) break;
    file.insert(file.end(), chunk.data(), chunk.data() + n);
  }
  ::close(fd);

  if (file.empty()) return result;  // fresh journal
  if (file.size() < kHeaderBytes) {
    // Crash while writing the very header: recover to an empty journal.
    result.truncatedTail = true;
    return result;
  }
  if (readU32(file.data()) != kJournalMagic) {
    result.refused = true;
    result.diagnostic = "bad journal magic (not a coorm journal)";
    return result;
  }
  if (readU32(file.data() + 4) != kJournalVersion) {
    result.refused = true;
    result.diagnostic =
        "unsupported journal version " +
        std::to_string(readU32(file.data() + 4));
    return result;
  }

  std::size_t at = kHeaderBytes;
  while (at < file.size()) {
    const std::size_t remaining = file.size() - at;
    if (remaining < kFrameBytes) {
      // Torn mid-frame append — the crash signature, not corruption.
      result.truncatedTail = true;
      break;
    }
    const std::uint32_t len = readU32(file.data() + at);
    const std::uint32_t crc = readU32(file.data() + at + 4);
    if (len == 0 || len > kJournalMaxRecord) {
      result.refused = true;
      result.diagnostic = "absurd record length " + std::to_string(len) +
                          " at offset " + std::to_string(at);
      return result;
    }
    if (remaining - kFrameBytes < len) {
      // Payload runs past EOF: torn append of the final record.
      result.truncatedTail = true;
      break;
    }
    const std::span<const std::uint8_t> payload(file.data() + at + kFrameBytes,
                                                len);
    if (crc32(payload) != crc) {
      result.refused = true;
      result.diagnostic =
          "CRC mismatch at offset " + std::to_string(at) +
          " (complete record, corrupted at rest)";
      return result;
    }
    result.records.emplace_back(payload.begin(), payload.end());
    at += kFrameBytes + len;
  }
  result.validBytes = at;
  return result;
}

Journal::Journal(std::string path, std::uint64_t resumeAt)
    : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  COORM_CHECK(fd_ >= 0 && "cannot open journal for append");
  if (resumeAt < kHeaderBytes) {
    // Fresh (or unrecoverably short) file: start over with a header.
    COORM_CHECK(::ftruncate(fd_, 0) == 0);
    std::vector<std::uint8_t> header;
    net::Writer w(header);
    w.u32(kJournalMagic);
    w.u32(kJournalVersion);
    writeAll(fd_, header.data(), header.size());
    bytes_ = kHeaderBytes;
  } else {
    // Drop any torn tail past the scanned valid prefix.
    COORM_CHECK(::ftruncate(fd_, static_cast<off_t>(resumeAt)) == 0);
    COORM_CHECK(::lseek(fd_, 0, SEEK_END) ==
                static_cast<off_t>(resumeAt));
    bytes_ = resumeAt;
  }
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

void Journal::writeAll(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t wrote = ::write(fd, data, n);
    if (wrote < 0) {
      COORM_CHECK(errno == EINTR && "journal write failed");
      continue;
    }
    data += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
}

void Journal::append(std::span<const std::uint8_t> payload) {
  COORM_CHECK(!payload.empty() && payload.size() <= kJournalMaxRecord);
  scratch_.clear();
  net::Writer w(scratch_);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload));
  w.bytes(payload.data(), payload.size());
  writeAll(fd_, scratch_.data(), scratch_.size());
  bytes_ += scratch_.size();
  metrics::increment(metrics::Event::kJournalRecordsAppended);
  metrics::increment(metrics::Event::kJournalBytesAppended, scratch_.size());
}

void Journal::sync() {
  const trace::Phase phase("fsync", metrics::Histo::kJournalFsyncUs);
  COORM_CHECK(::fsync(fd_) == 0);
  metrics::increment(metrics::Event::kJournalFsyncs);
}

void Journal::compact(const std::vector<std::vector<std::uint8_t>>& records) {
  const std::string tmp = path_ + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  COORM_CHECK(fd >= 0 && "cannot open journal temp for compaction");

  // One buffer, one write: compaction runs on the pass-commit path.
  scratch_.clear();
  net::Writer w(scratch_);
  w.u32(kJournalMagic);
  w.u32(kJournalVersion);
  for (const std::vector<std::uint8_t>& payload : records) {
    COORM_CHECK(!payload.empty() && payload.size() <= kJournalMaxRecord);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.u32(crc32(payload));
    w.bytes(payload.data(), payload.size());
  }
  writeAll(fd, scratch_.data(), scratch_.size());
  COORM_CHECK(::fsync(fd) == 0);
  COORM_CHECK(::close(fd) == 0);

  COORM_CHECK(::rename(tmp.c_str(), path_.c_str()) == 0);

  // fsync the directory so the rename itself is durable.
  std::string dir = path_;
  const std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  const int dirFd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirFd >= 0) {
    ::fsync(dirFd);
    ::close(dirFd);
  }

  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  COORM_CHECK(fd_ >= 0);
  COORM_CHECK(::lseek(fd_, 0, SEEK_END) ==
              static_cast<off_t>(scratch_.size()));
  bytes_ = scratch_.size();
  metrics::increment(metrics::Event::kJournalCompactions);
  metrics::increment(metrics::Event::kJournalFsyncs);
}

}  // namespace coorm::rms
