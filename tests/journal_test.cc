// FrameJournal durability semantics: recovery of torn and corrupt
// tails, replay order, fsync policies. The property that matters for
// exactly-once ingest: whatever a crash leaves on disk, Open() recovers
// EXACTLY the prefix of complete records, with a clean Status.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "io/journal.h"

namespace trajldp::io {
namespace {

namespace fs = std::filesystem;

struct Record {
  uint64_t stream_id;
  uint64_t seq;
  std::string payload;
};

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

// On-disk record size: 24-byte header + payload + 4-byte CRC.
size_t RecordBytes(const Record& record) {
  return 24 + record.payload.size() + 4;
}

std::vector<Record> ThreeRecords() {
  return {{1, 1, "frame-one-payload"},
          {1, 2, "frame-two-which-is-a-bit-longer"},
          {2, 1, "frame-three"}};
}

void WriteJournal(const std::string& path, const std::vector<Record>& records,
                  FrameJournal::Options options = {}) {
  fs::remove(path);
  auto journal = FrameJournal::Open(path, options);
  ASSERT_TRUE(journal.ok()) << journal.status();
  for (const Record& record : records) {
    ASSERT_TRUE(
        journal->Append(record.stream_id, record.seq, record.payload).ok());
  }
  ASSERT_TRUE(journal->Close().ok());
}

std::vector<Record> ReplayAll(const FrameJournal& journal) {
  std::vector<Record> out;
  EXPECT_TRUE(journal
                  .Replay([&](uint64_t stream_id, uint64_t seq,
                              std::string_view frame) {
                    out.push_back(
                        Record{stream_id, seq, std::string(frame)});
                    return Status::Ok();
                  })
                  .ok());
  return out;
}

void ExpectSameRecords(const std::vector<Record>& got,
                       const std::vector<Record>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].stream_id, want[i].stream_id) << "record " << i;
    EXPECT_EQ(got[i].seq, want[i].seq) << "record " << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << "record " << i;
  }
}

TEST(JournalTest, NewFileOpensEmpty) {
  const std::string path = TempPath("journal_new.log");
  fs::remove(path);
  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_EQ(journal->recovery_info().records, 0u);
  EXPECT_EQ(journal->recovery_info().truncated_bytes, 0u);
  EXPECT_EQ(journal->records(), 0u);
  EXPECT_TRUE(ReplayAll(*journal).empty());
}

TEST(JournalTest, RoundTripAcrossReopen) {
  const std::string path = TempPath("journal_roundtrip.log");
  const auto records = ThreeRecords();
  WriteJournal(path, records);

  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_EQ(journal->recovery_info().records, 3u);
  EXPECT_EQ(journal->recovery_info().truncated_bytes, 0u);
  ExpectSameRecords(ReplayAll(*journal), records);

  // The recovered journal accepts appends; a further reopen sees both.
  ASSERT_TRUE(journal->Append(3, 7, "appended-after-recovery").ok());
  ASSERT_TRUE(journal->Close().ok());
  auto reopened = FrameJournal::Open(path, {});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->records(), 4u);
}

// The satellite property sweep: truncate the journal at EVERY byte
// offset of the final record (from "header missing entirely" to "one
// byte of CRC missing"). Recovery must always yield exactly the two
// complete records, with a clean Status, and leave the file ending at
// the valid prefix so later appends are well-formed.
TEST(JournalTest, TornTailRecoveryAtEveryByteOffset) {
  const std::string path = TempPath("journal_torn_master.log");
  const auto records = ThreeRecords();
  WriteJournal(path, records);
  const uint64_t full = fs::file_size(path);
  const uint64_t prefix2 = full - RecordBytes(records[2]);

  const std::string torn = TempPath("journal_torn_case.log");
  for (uint64_t cut = prefix2; cut <= full; ++cut) {
    fs::remove(torn);
    fs::copy_file(path, torn);
    fs::resize_file(torn, cut);

    auto journal = FrameJournal::Open(torn, {});
    ASSERT_TRUE(journal.ok()) << "cut at " << cut << ": "
                              << journal.status();
    const size_t expected = cut == full ? 3u : 2u;
    EXPECT_EQ(journal->recovery_info().records, expected)
        << "cut at " << cut;
    EXPECT_EQ(journal->recovery_info().valid_bytes,
              cut == full ? full : prefix2)
        << "cut at " << cut;
    EXPECT_EQ(journal->recovery_info().truncated_bytes,
              cut == full ? 0u : cut - prefix2)
        << "cut at " << cut;
    ExpectSameRecords(
        ReplayAll(*journal),
        std::vector<Record>(records.begin(), records.begin() + expected));

    // Appending over the recovered tail must produce a valid journal.
    ASSERT_TRUE(journal->Append(9, 1, "post-recovery").ok());
    ASSERT_TRUE(journal->Close().ok());
    auto reopened = FrameJournal::Open(torn, {});
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened->records(), expected + 1) << "cut at " << cut;
    EXPECT_EQ(reopened->recovery_info().truncated_bytes, 0u)
        << "cut at " << cut;
  }
}

TEST(JournalTest, CorruptTailByteDropsOnlyThatRecord) {
  const std::string path = TempPath("journal_corrupt_tail.log");
  const auto records = ThreeRecords();
  WriteJournal(path, records);
  const uint64_t full = fs::file_size(path);
  const uint64_t prefix2 = full - RecordBytes(records[2]);

  // Flip one payload byte of the final record: length intact, CRC not.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(prefix2 + 24 + 2));
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(prefix2 + 24 + 2));
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(prefix2 + 24 + 2));
    file.put(static_cast<char>(byte ^ 0x40));
  }
  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_EQ(journal->recovery_info().records, 2u);
  EXPECT_EQ(journal->recovery_info().truncated_bytes,
            full - prefix2);
  ExpectSameRecords(ReplayAll(*journal),
                    {records.begin(), records.begin() + 2});
}

TEST(JournalTest, MidFileCorruptionKeepsOnlyThePrecedingPrefix) {
  // Standard WAL semantics: a bad record ENDS the durable extent even
  // when later bytes happen to parse — nothing after the first bad
  // record is trusted or replayed.
  const std::string path = TempPath("journal_corrupt_mid.log");
  const auto records = ThreeRecords();
  WriteJournal(path, records);
  const uint64_t prefix1 = RecordBytes(records[0]);

  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(prefix1 + 24));  // record 1 payload
    file.put('X');
  }
  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_EQ(journal->recovery_info().records, 1u);
  ExpectSameRecords(ReplayAll(*journal),
                    {records.begin(), records.begin() + 1});
  EXPECT_EQ(fs::file_size(path), prefix1);
}

TEST(JournalTest, SyncPoliciesAllPersist) {
  for (const auto sync : {FrameJournal::SyncPolicy::kNone,
                          FrameJournal::SyncPolicy::kEveryRecord,
                          FrameJournal::SyncPolicy::kEveryBytes,
                          FrameJournal::SyncPolicy::kTimed}) {
    const std::string path = TempPath(
        "journal_sync_" +
        std::to_string(static_cast<int>(sync)) + ".log");
    FrameJournal::Options options;
    options.sync = sync;
    options.sync_every_bytes = 64;  // trip the byte policy mid-run
    options.sync_interval = std::chrono::milliseconds(0);  // trip timed
    const auto records = ThreeRecords();
    WriteJournal(path, records, options);
    auto journal = FrameJournal::Open(path, {});
    ASSERT_TRUE(journal.ok());
    ExpectSameRecords(ReplayAll(*journal), records);
  }
}

TEST(JournalTest, EveryRecordPolicyTimesOneFsyncPerAppend) {
  const std::string path = TempPath("journal_sync_latency.log");
  fs::remove(path);
  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_EQ(journal->syncs(), 0u);
  EXPECT_EQ(journal->last_sync_seconds(), 0.0);
  size_t appended = 0;
  for (const Record& record : ThreeRecords()) {
    ASSERT_TRUE(
        journal->Append(record.stream_id, record.seq, record.payload).ok());
    ++appended;
    // The default kEveryRecord policy ends every append in its own
    // fsync, and that fsync's latency is readable right after.
    EXPECT_EQ(journal->syncs(), appended);
    EXPECT_GT(journal->last_sync_seconds(), 0.0);
  }
  ASSERT_TRUE(journal->Close().ok());
}

// ---------- compaction ----------

TEST(JournalCompactTest, DropsThroughWatermarkWritesMarkerKeepsLiveSuffix) {
  const std::string path = TempPath("journal_compact_basic.log");
  fs::remove(path);
  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  // Stream 1: seqs 1..4; stream 2: seq 1. Watermark stream 1 at 3.
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(
        journal->Append(1, seq, "s1-frame-" + std::to_string(seq)).ok());
  }
  ASSERT_TRUE(journal->Append(2, 1, "s2-frame-1").ok());

  auto info = journal->Compact({{1, 3}});
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->records_dropped, 3u);  // stream 1 seqs 1..3
  EXPECT_EQ(info->records_kept, 2u);     // stream 1 seq 4, stream 2 seq 1
  EXPECT_EQ(info->markers_written, 1u);
  EXPECT_GT(info->bytes_before, info->bytes_after);
  EXPECT_EQ(journal->compactions(), 1u);
  EXPECT_EQ(journal->valid_bytes(), info->bytes_after);

  // Replay order: markers first (empty payload, seq = watermark), then
  // the kept records in their original append order.
  const auto replayed = ReplayAll(*journal);
  ExpectSameRecords(replayed,
                    {{1, 3, ""}, {1, 4, "s1-frame-4"}, {2, 1, "s2-frame-1"}});
}

TEST(JournalCompactTest, KeepsUnsequencedRecordsAndUnnamedStreams) {
  const std::string path = TempPath("journal_compact_keep.log");
  fs::remove(path);
  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  ASSERT_TRUE(journal->Append(1, 1, "s1-acked").ok());
  ASSERT_TRUE(journal->Append(0, 0, "raw-unsequenced").ok());
  ASSERT_TRUE(journal->Append(7, 2, "s7-no-watermark").ok());

  auto info = journal->Compact({{1, 1}});
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->records_dropped, 1u);
  // seq == 0 (never acked, replay feeds it back raw) and streams absent
  // from the watermark map must survive verbatim.
  ExpectSameRecords(ReplayAll(*journal),
                    {{1, 1, ""}, {0, 0, "raw-unsequenced"},
                     {7, 2, "s7-no-watermark"}});
}

TEST(JournalCompactTest, SurvivesReopenAndAcceptsAppends) {
  const std::string path = TempPath("journal_compact_reopen.log");
  fs::remove(path);
  {
    auto journal = FrameJournal::Open(path, {});
    ASSERT_TRUE(journal.ok()) << journal.status();
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(journal->Append(5, seq, "frame-" + std::to_string(seq)).ok());
    }
    ASSERT_TRUE(journal->Compact({{5, 2}}).ok());
    // The compacted journal is a normal journal: appends keep working.
    ASSERT_TRUE(journal->Append(5, 4, "frame-4").ok());
    ASSERT_TRUE(journal->Close().ok());
  }
  // The rename was durable: a fresh Open sees marker + live suffix +
  // post-compaction appends, with no torn tail.
  auto reopened = FrameJournal::Open(path, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->recovery_info().truncated_bytes, 0u);
  ExpectSameRecords(ReplayAll(*reopened),
                    {{5, 2, ""}, {5, 3, "frame-3"}, {5, 4, "frame-4"}});
}

TEST(JournalCompactTest, LeavesNoTempFileAndSkipsZeroWatermarks) {
  const std::string path = TempPath("journal_compact_tmp.log");
  fs::remove(path);
  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  ASSERT_TRUE(journal->Append(1, 1, "only-frame").ok());

  auto info = journal->Compact({{1, 0}, {9, 0}});
  ASSERT_TRUE(info.ok()) << info.status();
  // A zero watermark licenses nothing: no marker, nothing dropped.
  EXPECT_EQ(info->markers_written, 0u);
  EXPECT_EQ(info->records_dropped, 0u);
  ExpectSameRecords(ReplayAll(*journal), {{1, 1, "only-frame"}});
  EXPECT_FALSE(fs::exists(path + ".compact"));
}

TEST(JournalCompactTest, DoesNotAdvanceTheFaultByteMeter) {
  // The crash harness arms fault_kill_after_bytes to die mid-APPEND;
  // compaction rewriting the whole file must not count against that
  // meter, or a compacting server would die at an uncontrolled point.
  const std::string path = TempPath("journal_compact_fault.log");
  fs::remove(path);
  FrameJournal::Options options;
  options.fault_kill_after_bytes = 1u << 20;  // far beyond these appends
  auto journal = FrameJournal::Open(path, options);
  ASSERT_TRUE(journal.ok()) << journal.status();
  for (uint64_t seq = 1; seq <= 8; ++seq) {
    ASSERT_TRUE(journal->Append(1, seq, std::string(100, 'x')).ok());
  }
  // Each compaction rewrites ~the full extent; ten of them would blow
  // well past the meter if rewrite bytes counted as appends.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(journal->Compact({}).ok());  // nothing dropped, full rewrite
  }
  ASSERT_TRUE(journal->Append(1, 9, "still-alive").ok());
  EXPECT_EQ(journal->records(), 9u);
}

TEST(JournalTest, OversizedLengthFieldTreatedAsCorruption) {
  const std::string path = TempPath("journal_hostile_len.log");
  const auto records = ThreeRecords();
  WriteJournal(path, records);
  const uint64_t prefix2 =
      fs::file_size(path) - RecordBytes(records[2]);
  {
    // Declare a ~4 GiB payload in the last record's length field: the
    // scan must reject it from the header, never sizing a buffer.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(prefix2 + 4));
    for (int i = 0; i < 4; ++i) file.put(static_cast<char>(0xFF));
  }
  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_EQ(journal->recovery_info().records, 2u);
}

}  // namespace
}  // namespace trajldp::io
