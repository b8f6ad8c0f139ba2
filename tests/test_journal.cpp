// Journal corruption suite: the recovery policy of rms/journal.hpp is
// deliberately asymmetric, and these tests pin both sides of it.
//
//  - A *torn tail* (crash mid-append: missing framing bytes, or a record
//    whose payload runs past EOF) recovers the longest valid prefix, and
//    reopening truncates the tail away.
//  - Corruption *at rest* (bad header, absurd length, CRC mismatch on a
//    complete record, garbage between records) refuses with a diagnostic:
//    rebuilding scheduler state from a lying log is worse than not
//    starting.
//
// The fuzz-style cases sweep every truncation point and seeded random bit
// flips: scans must be deterministic, never crash, and classify every
// mutation as exactly one of {clean, torn-tail recovery, refusal}.
#include "coorm/rms/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace coorm::rms {
namespace {

using Bytes = std::vector<std::uint8_t>;

std::string tempPath(const std::string& name) {
  return testing::TempDir() + "coorm_journal_" + name + ".bin";
}

Bytes readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void writeFile(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// A journal with `count` records of varied sizes and recognizable
/// contents; returns the payloads written.
std::vector<Bytes> buildJournal(const std::string& path, int count) {
  std::remove(path.c_str());
  Journal journal(path, 0);
  std::vector<Bytes> payloads;
  for (int i = 0; i < count; ++i) {
    Bytes payload(static_cast<std::size_t>(1 + (i * 7) % 40),
                  static_cast<std::uint8_t>(i + 1));
    journal.append(payload);
    payloads.push_back(std::move(payload));
  }
  journal.sync();
  return payloads;
}

TEST(Journal, FreshFileScansEmpty) {
  const std::string path = tempPath("fresh");
  std::remove(path.c_str());
  const ScanResult scan = Journal::scan(path);
  EXPECT_FALSE(scan.refused);
  EXPECT_FALSE(scan.truncatedTail);
  EXPECT_TRUE(scan.records.empty());
}

TEST(Journal, RoundTrip) {
  const std::string path = tempPath("roundtrip");
  const std::vector<Bytes> payloads = buildJournal(path, 5);
  const ScanResult scan = Journal::scan(path);
  EXPECT_FALSE(scan.refused);
  EXPECT_FALSE(scan.truncatedTail);
  ASSERT_EQ(scan.records.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(scan.records[i], payloads[i]) << "record " << i;
  }
}

TEST(Journal, TruncatedTailRecoversLongestValidPrefix) {
  const std::string path = tempPath("torntail");
  const std::vector<Bytes> payloads = buildJournal(path, 3);
  Bytes file = readFile(path);
  // Chop 3 bytes off the last record's payload: the crash-mid-append
  // signature.
  file.resize(file.size() - 3);
  writeFile(path, file);

  const ScanResult scan = Journal::scan(path);
  EXPECT_FALSE(scan.refused) << scan.diagnostic;
  EXPECT_TRUE(scan.truncatedTail);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0], payloads[0]);
  EXPECT_EQ(scan.records[1], payloads[1]);

  // Reopening at validBytes drops the tail; appending continues cleanly.
  {
    Journal journal(path, scan.validBytes);
    journal.append(payloads[0]);
    journal.sync();
  }
  const ScanResult rescan = Journal::scan(path);
  EXPECT_FALSE(rescan.refused);
  EXPECT_FALSE(rescan.truncatedTail);
  ASSERT_EQ(rescan.records.size(), 3u);
  EXPECT_EQ(rescan.records[2], payloads[0]);
}

TEST(Journal, TornHeaderRecoversEmpty) {
  const std::string path = tempPath("tornheader");
  buildJournal(path, 1);
  Bytes file = readFile(path);
  file.resize(4);  // crash while writing the very header
  writeFile(path, file);
  const ScanResult scan = Journal::scan(path);
  EXPECT_FALSE(scan.refused);
  EXPECT_TRUE(scan.truncatedTail);
  EXPECT_TRUE(scan.records.empty());
}

TEST(Journal, BitFlippedRecordRefusesWithDiagnostic) {
  const std::string path = tempPath("bitflip");
  buildJournal(path, 3);
  Bytes file = readFile(path);
  // Flip one bit inside the first record's payload (header + len + crc
  // precede it): the record is complete, so the CRC mismatch means
  // corruption at rest.
  file[8 + 8] ^= 0x40;
  writeFile(path, file);

  const ScanResult scan = Journal::scan(path);
  EXPECT_TRUE(scan.refused);
  EXPECT_NE(scan.diagnostic.find("CRC mismatch"), std::string::npos)
      << scan.diagnostic;
}

TEST(Journal, InterleavedGarbageRefuses) {
  const std::string path = tempPath("garbage");
  buildJournal(path, 2);
  Bytes file = readFile(path);
  // Splice 16 bytes of 0xFF between the two records: the scanner reads an
  // absurd length where the second record's framing should be.
  const std::size_t firstRecord = 8 + 8 + 1;  // header + framing + payload[1]
  file.insert(file.begin() + static_cast<std::ptrdiff_t>(firstRecord), 16,
              std::uint8_t{0xFF});
  writeFile(path, file);

  const ScanResult scan = Journal::scan(path);
  EXPECT_TRUE(scan.refused);
  EXPECT_NE(scan.diagnostic.find("absurd record length"), std::string::npos)
      << scan.diagnostic;
}

TEST(Journal, BadMagicRefuses) {
  const std::string path = tempPath("badmagic");
  buildJournal(path, 1);
  Bytes file = readFile(path);
  file[0] ^= 0xFF;
  writeFile(path, file);
  const ScanResult scan = Journal::scan(path);
  EXPECT_TRUE(scan.refused);
  EXPECT_FALSE(scan.diagnostic.empty());
}

TEST(Journal, BadVersionRefuses) {
  const std::string path = tempPath("badversion");
  buildJournal(path, 1);
  Bytes file = readFile(path);
  file[7] = 0x7F;  // header version (big-endian u32 at offset 4)
  writeFile(path, file);
  const ScanResult scan = Journal::scan(path);
  EXPECT_TRUE(scan.refused);
  EXPECT_FALSE(scan.diagnostic.empty());
}

TEST(Journal, CompactReplacesLogWithOneStateRecord) {
  const std::string path = tempPath("compact");
  buildJournal(path, 20);
  const Bytes snapshot = {8, 1, 2, 3, 4, 5};  // any payload will do
  {
    const ScanResult scan = Journal::scan(path);
    Journal journal(path, scan.validBytes);
    const std::uint64_t before = journal.bytes();
    journal.compact({snapshot});
    EXPECT_LT(journal.bytes(), before);
  }
  const ScanResult scan = Journal::scan(path);
  EXPECT_FALSE(scan.refused);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], snapshot);
}

// Every possible truncation point is a crash the journal must recover
// from: never refused, records = the fully-contained prefix, and the
// recovered prefix itself rescans byte-identically.
TEST(Journal, FuzzEveryTruncationPointRecovers) {
  const std::string path = tempPath("fuzztrunc");
  buildJournal(path, 12);
  const Bytes file = readFile(path);
  const std::string cutPath = tempPath("fuzztrunc_cut");
  for (std::size_t cut = 0; cut < file.size(); ++cut) {
    writeFile(cutPath, Bytes(file.begin(),
                             file.begin() + static_cast<std::ptrdiff_t>(cut)));
    const ScanResult scan = Journal::scan(cutPath);
    ASSERT_FALSE(scan.refused)
        << "cut at " << cut << ": " << scan.diagnostic;
    ASSERT_LE(scan.validBytes, cut);
    // The recovered prefix must be self-consistent: scanning exactly
    // validBytes yields the same records with nothing torn.
    writeFile(cutPath,
              Bytes(file.begin(),
                    file.begin() + static_cast<std::ptrdiff_t>(scan.validBytes)));
    const ScanResult again = Journal::scan(cutPath);
    ASSERT_FALSE(again.refused);
    ASSERT_FALSE(again.truncatedTail) << "cut at " << cut;
    ASSERT_EQ(again.records, scan.records) << "cut at " << cut;
  }
}

// Seeded random single-byte mutations: a scan must never crash, must be
// deterministic (two scans agree), and must never silently accept a
// mutation that changes decoded content without either recovering a
// shorter prefix or refusing.
TEST(Journal, FuzzRandomByteFlipsClassifyDeterministically) {
  const std::string path = tempPath("fuzzflip");
  const std::vector<Bytes> payloads = buildJournal(path, 12);
  const Bytes file = readFile(path);
  const std::string flipPath = tempPath("fuzzflip_mut");

  std::uint64_t rng = 0x2545F4914F6CDD1Dull;  // fixed seed: reproducible
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  for (int i = 0; i < 500; ++i) {
    Bytes mutated = file;
    const std::size_t at = next() % mutated.size();
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << (next() % 8));
    mutated[at] ^= bit;
    writeFile(flipPath, mutated);

    const ScanResult scan = Journal::scan(flipPath);
    const ScanResult again = Journal::scan(flipPath);
    ASSERT_EQ(scan.refused, again.refused) << "flip at " << at;
    ASSERT_EQ(scan.truncatedTail, again.truncatedTail) << "flip at " << at;
    ASSERT_EQ(scan.records, again.records) << "flip at " << at;

    if (!scan.refused) {
      // Whatever survived must be untouched original payloads: a flip can
      // shorten the valid prefix (length-field damage looks like a torn
      // tail) but must never alter recovered content.
      ASSERT_LE(scan.records.size(), payloads.size());
      for (std::size_t r = 0; r < scan.records.size(); ++r) {
        ASSERT_EQ(scan.records[r], payloads[r])
            << "flip at " << at << " corrupted recovered record " << r;
      }
    }
  }
}

}  // namespace
}  // namespace coorm::rms
