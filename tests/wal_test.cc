// Crash-durability tests (DESIGN.md §14): WAL round-trips under every
// sync policy, segment rotation, compaction checkpoints, torn-tail
// truncation, and a corruption fuzz suite — bit flips, truncations,
// duplicated segments, and manifest damage must either recover a clean
// acknowledged prefix or fail with kDataLoss naming the damage, never
// crash and never replay past corruption.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "engine/parj_engine.h"
#include "mutable/delta_store.h"
#include "mutable/wal.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace parj::mut {
namespace {

namespace fs = std::filesystem;

using test::Spec;

rdf::Triple T(const std::string& s, const std::string& p,
              const std::string& o) {
  return rdf::Triple{rdf::Term::Iri(s), rdf::Term::Iri(p), rdf::Term::Iri(o)};
}

Spec BaseSpec() {
  return {{"a", "knows", "b"}, {"a", "knows", "c"}, {"b", "likes", "d"}};
}

/// Fresh per-test WAL directory under the gtest temp root.
std::string NewWalDir(const std::string& tag) {
  static int counter = 0;
  std::string dir =
      ::testing::TempDir() + "/parj_wal_" + tag + "_" +
      std::to_string(counter++);
  fs::remove_all(dir);
  return dir;
}

WalOptions Opts(const std::string& dir, WalSync sync = WalSync::kBatch,
                uint64_t segment_bytes = 64ull << 20) {
  WalOptions options;
  options.dir = dir;
  options.sync = sync;
  options.segment_bytes = segment_bytes;
  return options;
}

/// Deterministic mutation batch `i`: one never-removed marker triple, a
/// fan-out edge, every third batch a fresh overlay literal, every fifth
/// a removal of an earlier edge — the same generator the crash harness
/// uses, so WAL tests exercise inserts, overlay growth, and deletes.
std::vector<Mutation> Batch(int i) {
  std::vector<Mutation> batch;
  const std::string n = std::to_string(i);
  batch.push_back({T("s" + n, "mark", "t"), false});
  batch.push_back({T("s" + n, "edge", "o" + std::to_string(i % 7)), false});
  if (i % 3 == 0) {
    batch.push_back({rdf::Triple{rdf::Term::Iri("s" + n),
                                 rdf::Term::Iri("val"),
                                 rdf::Term::Literal("v" + n)},
                     false});
  }
  if (i % 5 == 4) {
    const std::string m = std::to_string(i - 4);
    batch.push_back(
        {T("s" + m, "edge", "o" + std::to_string((i - 4) % 7)), true});
  }
  return batch;
}

/// Number of marker triples visible (== applied batch count, since a
/// batch is atomic and markers are never removed).
uint64_t MarkerCount(const engine::ParjEngine& engine) {
  auto result =
      engine.Execute("SELECT ?x WHERE { ?x <mark> <t> }");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->row_count : 0;
}

/// Snapshot bytes of the engine's store after folding the delta in — the
/// byte-identical yardstick for deterministic recovery (compaction and
/// snapshot writing are deterministic at build_threads=1).
std::string CompactedSnapshotBytes(engine::ParjEngine* engine,
                                   const std::string& tag) {
  EXPECT_TRUE(engine->Compact().ok());
  const std::string path = ::testing::TempDir() + "/parj_walsnap_" + tag;
  Status saved = storage::SaveSnapshot(engine->database(), path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

/// Reference store: same base, batches [0, n) applied serially with no
/// WAL attached.
engine::ParjEngine ReferenceEngine(int n) {
  engine::ParjEngine engine = test::MakeEngine(BaseSpec());
  for (int i = 0; i < n; ++i) {
    Status st = engine.ApplyBatch(Batch(i));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return engine;
}

/// Builds a WAL-backed engine, applies batches [0, n), and destroys it —
/// leaving options.dir as a crashless log to recover from.
void WriteLog(int n, const WalOptions& options) {
  engine::ParjEngine engine = test::MakeEngine(BaseSpec());
  ASSERT_TRUE(engine.EnableWal(options).ok());
  for (int i = 0; i < n; ++i) {
    Status st = engine.ApplyBatch(Batch(i));
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) segments.push_back(entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

// ---- Round trips -----------------------------------------------------

TEST(WalTest, RecoverReplaysAcknowledgedBatches) {
  const std::string dir = NewWalDir("roundtrip");
  WriteLog(20, Opts(dir));

  auto recovered = engine::ParjEngine::RecoverFromWal(Opts(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->recovered());
  EXPECT_EQ(recovered->recovery_stats().records_replayed, 20u);
  EXPECT_EQ(MarkerCount(*recovered), 20u);

  // Deterministic at the TermId level: the recovered-then-compacted
  // store is byte-identical to a serially rebuilt one.
  engine::ParjEngine reference = ReferenceEngine(20);
  EXPECT_EQ(CompactedSnapshotBytes(&*recovered, "rec"),
            CompactedSnapshotBytes(&reference, "ref"));
}

TEST(WalTest, AllSyncPoliciesRoundTrip) {
  for (WalSync sync : {WalSync::kNone, WalSync::kBatch, WalSync::kAlways}) {
    const std::string dir = NewWalDir(std::string("sync_") + WalSyncName(sync));
    WriteLog(8, Opts(dir, sync));
    auto recovered = engine::ParjEngine::RecoverFromWal(Opts(dir));
    ASSERT_TRUE(recovered.ok())
        << WalSyncName(sync) << ": " << recovered.status().ToString();
    EXPECT_EQ(MarkerCount(*recovered), 8u) << WalSyncName(sync);
  }
}

TEST(WalTest, ParseWalSyncNames) {
  EXPECT_EQ(*ParseWalSync("none"), WalSync::kNone);
  EXPECT_EQ(*ParseWalSync("batch"), WalSync::kBatch);
  EXPECT_EQ(*ParseWalSync("always"), WalSync::kAlways);
  EXPECT_FALSE(ParseWalSync("fsync-sometimes").ok());
  EXPECT_STREQ(WalSyncName(WalSync::kBatch), "batch");
}

TEST(WalTest, RotationSpreadsRecordsAcrossSegments) {
  const std::string dir = NewWalDir("rotate");
  WriteLog(40, Opts(dir, WalSync::kBatch, /*segment_bytes=*/512));
  EXPECT_GT(SegmentFiles(dir).size(), 1u);

  auto info = Wal::VerifyWal(dir);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->records, 40u);
  EXPECT_GT(info->last_segment, info->first_segment);

  auto recovered = engine::ParjEngine::RecoverFromWal(Opts(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(recovered->recovery_stats().segments_scanned, 1u);
  EXPECT_EQ(MarkerCount(*recovered), 40u);
}

TEST(WalTest, FreshDirectoryIsNotFoundAndInitializeRefusesManifest) {
  const std::string dir = NewWalDir("fresh");
  EXPECT_TRUE(
      engine::ParjEngine::RecoverFromWal(Opts(dir)).status().IsNotFound());

  WriteLog(2, Opts(dir));
  // A second engine must not clobber an existing log.
  engine::ParjEngine other = test::MakeEngine(BaseSpec());
  EXPECT_TRUE(other.EnableWal(Opts(dir)).IsAlreadyExists());
}

// ---- Checkpoints -----------------------------------------------------

TEST(WalTest, CompactionCheckpointsAndPrunesSegments) {
  const std::string dir = NewWalDir("checkpoint");
  std::optional<engine::ParjEngine> engine = test::MakeEngine(BaseSpec());
  ASSERT_TRUE(engine->EnableWal(Opts(dir, WalSync::kBatch, 512)).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(engine->ApplyBatch(Batch(i)).ok());
  }
  ASSERT_TRUE(engine->Compact().ok());
  EXPECT_EQ(engine->wal_stats().checkpoints, 1u);
  EXPECT_EQ(engine->wal_stats().checkpoint_failures, 0u);

  // The manifest moved past the pre-checkpoint segments and they were
  // pruned: only the post-checkpoint chain remains on disk.
  auto info = Wal::VerifyWal(dir);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_GT(info->first_segment, 1u);
  EXPECT_GT(info->snapshot_epoch, 0u);
  EXPECT_EQ(SegmentFiles(dir).size(),
            info->last_segment - info->first_segment + 1);

  // Writes after the checkpoint land in the new chain; recovery sees
  // checkpoint + tail and the epoch continues where it left off.
  for (int i = 30; i < 35; ++i) {
    ASSERT_TRUE(engine->ApplyBatch(Batch(i)).ok());
  }
  const uint64_t epoch_before = engine->mutation_stats().epoch;
  engine.reset();

  auto recovered = engine::ParjEngine::RecoverFromWal(Opts(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(MarkerCount(*recovered), 35u);
  EXPECT_EQ(recovered->mutation_stats().epoch, epoch_before);

  engine::ParjEngine reference = ReferenceEngine(35);
  EXPECT_EQ(CompactedSnapshotBytes(&*recovered, "cprec"),
            CompactedSnapshotBytes(&reference, "cpref"));
}

TEST(WalTest, FailedCheckpointIsNonFatalAndRecoverable) {
  const std::string dir = NewWalDir("ckptfail");
  std::optional<engine::ParjEngine> engine = test::MakeEngine(BaseSpec());
  ASSERT_TRUE(engine->EnableWal(Opts(dir)).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine->ApplyBatch(Batch(i)).ok());
  }
  ASSERT_TRUE(failpoint::Arm("compactor.checkpoint", "error:1").ok());
  // The compaction itself succeeds; only the checkpoint half fails, and
  // the old manifest still covers every record.
  EXPECT_TRUE(engine->Compact().ok());
  failpoint::DisarmAll();
  EXPECT_EQ(engine->wal_stats().checkpoint_failures, 1u);

  for (int i = 10; i < 14; ++i) {
    ASSERT_TRUE(engine->ApplyBatch(Batch(i)).ok());
  }
  engine.reset();

  auto recovered = engine::ParjEngine::RecoverFromWal(Opts(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(MarkerCount(*recovered), 14u);
  engine::ParjEngine reference = ReferenceEngine(14);
  EXPECT_EQ(CompactedSnapshotBytes(&*recovered, "ckfrec"),
            CompactedSnapshotBytes(&reference, "ckfref"));
}

TEST(WalTest, TornManifestSwingKeepsOldManifest) {
  const std::string dir = NewWalDir("tornmanifest");
  std::optional<engine::ParjEngine> engine = test::MakeEngine(BaseSpec());
  ASSERT_TRUE(engine->EnableWal(Opts(dir)).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine->ApplyBatch(Batch(i)).ok());
  }
  // Tear the manifest replacement mid-write: the tmp file dies before
  // the rename, so the previous manifest stays authoritative.
  ASSERT_TRUE(failpoint::Arm("compactor.checkpoint", "torn:5:1").ok());
  EXPECT_TRUE(engine->Compact().ok());
  failpoint::DisarmAll();
  EXPECT_EQ(engine->wal_stats().checkpoint_failures, 1u);
  engine.reset();

  auto recovered = engine::ParjEngine::RecoverFromWal(Opts(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(MarkerCount(*recovered), 6u);
}

// ---- Torn tails and write faults -------------------------------------

TEST(WalTest, TornTailIsTruncatedNotReplayed) {
  const std::string dir = NewWalDir("torntail");
  WriteLog(12, Opts(dir));

  // A crash mid-append leaves a partial frame at the end of the last
  // segment: simulate with a bogus oversized length prefix.
  const std::vector<std::string> segments = SegmentFiles(dir);
  ASSERT_FALSE(segments.empty());
  {
    std::ofstream app(segments.back(),
                      std::ios::binary | std::ios::app);
    const char garbage[4] = {'\xff', '\xff', '\xff', '\xff'};
    app.write(garbage, sizeof(garbage));
  }

  auto verify = Wal::VerifyWal(dir);
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  EXPECT_EQ(verify->torn_tail_bytes, 4u);

  auto recovered = engine::ParjEngine::RecoverFromWal(Opts(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->recovery_stats().truncated_bytes, 4u);
  EXPECT_EQ(MarkerCount(*recovered), 12u);

  // Recovery repaired the file in place; appending resumes cleanly.
  ASSERT_TRUE(recovered->ApplyBatch(Batch(12)).ok());
  EXPECT_EQ(MarkerCount(*recovered), 13u);
}

TEST(WalTest, TornAppendMakesLogStickyAndPreservesPrefix) {
  const std::string dir = NewWalDir("tornappend");
  std::optional<engine::ParjEngine> engine = test::MakeEngine(BaseSpec());
  ASSERT_TRUE(engine->EnableWal(Opts(dir)).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine->ApplyBatch(Batch(i)).ok());
  }
  // The medium tears the next record after 6 bytes: the write is not
  // acknowledged and the log turns read-only (sticky error).
  ASSERT_TRUE(failpoint::Arm("wal.append", "torn:6:1").ok());
  EXPECT_FALSE(engine->ApplyBatch(Batch(5)).ok());
  failpoint::DisarmAll();
  EXPECT_FALSE(engine->ApplyBatch(Batch(6)).ok());  // still sticky
  engine.reset();

  // Recovery truncates the torn record and replays exactly the
  // acknowledged prefix.
  auto recovered = engine::ParjEngine::RecoverFromWal(Opts(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(recovered->recovery_stats().truncated_bytes, 0u);
  EXPECT_EQ(MarkerCount(*recovered), 5u);
}

TEST(WalTest, IoErrorAtRotationIsSticky) {
  const std::string dir = NewWalDir("rotatefault");
  std::optional<engine::ParjEngine> engine = test::MakeEngine(BaseSpec());
  ASSERT_TRUE(engine->EnableWal(Opts(dir, WalSync::kBatch, 128)).ok());
  ASSERT_TRUE(failpoint::Arm("wal.rotate", "error").ok());
  Status st = Status::OK();
  // Tiny segments force a rotation within a few appends; the injected
  // failure must surface to the writer instead of being swallowed.
  for (int i = 0; i < 20 && st.ok(); ++i) {
    st = engine->ApplyBatch(Batch(i));
  }
  failpoint::DisarmAll();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("wal.rotate"), std::string::npos);
}

// ---- Corruption fuzzing ----------------------------------------------

/// Copies a pristine WAL directory for one destructive experiment.
std::string CloneDir(const std::string& src, int iteration) {
  const std::string dst = src + "_clone" + std::to_string(iteration);
  fs::remove_all(dst);
  fs::copy(src, dst, fs::copy_options::recursive);
  return dst;
}

TEST(WalFuzzTest, BitFlipsInLastSegmentRecoverAPrefix) {
  const std::string dir = NewWalDir("fuzzflip");
  WriteLog(16, Opts(dir));
  const std::string segment = SegmentFiles(dir).back();
  const auto size = static_cast<size_t>(fs::file_size(segment));

  std::mt19937 rng(20260809);
  for (int iter = 0; iter < 24; ++iter) {
    const std::string clone = CloneDir(dir, iter);
    const std::string target = SegmentFiles(clone).back();
    const size_t pos = rng() % size;
    const int bit = static_cast<int>(rng() % 8);
    {
      std::fstream f(target, std::ios::binary | std::ios::in | std::ios::out);
      f.seekg(static_cast<std::streamoff>(pos));
      char byte = 0;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ (1 << bit));
      f.seekp(static_cast<std::streamoff>(pos));
      f.write(&byte, 1);
    }
    auto recovered = engine::ParjEngine::RecoverFromWal(Opts(clone));
    if (recovered.ok()) {
      // Damage past the valid prefix (or in a frame classified as a torn
      // tail): some prefix of the 16 batches replayed, in order.
      EXPECT_LE(recovered->recovery_stats().records_replayed, 16u);
      const uint64_t markers = MarkerCount(*recovered);
      EXPECT_LE(markers, 16u);
      engine::ParjEngine reference =
          ReferenceEngine(static_cast<int>(markers));
      EXPECT_EQ(
          CompactedSnapshotBytes(&*recovered, "flrec" + std::to_string(iter)),
          CompactedSnapshotBytes(&reference, "flref" + std::to_string(iter)))
          << "flip at byte " << pos << " bit " << bit;
    } else {
      // Header damage (or a CRC-valid-but-malformed payload) is reported
      // as loss, never replayed past.
      EXPECT_TRUE(recovered.status().IsDataLoss())
          << recovered.status().ToString();
    }
    fs::remove_all(clone);
  }
}

TEST(WalFuzzTest, TruncationsOfLastSegmentRecoverAPrefix) {
  const std::string dir = NewWalDir("fuzztrunc");
  WriteLog(16, Opts(dir));
  const std::string segment = SegmentFiles(dir).back();
  const auto size = static_cast<uintmax_t>(fs::file_size(segment));

  for (int iter = 0; iter < 12; ++iter) {
    const std::string clone = CloneDir(dir, 100 + iter);
    const std::string target = SegmentFiles(clone).back();
    // Cut anywhere, including inside the 24-byte segment header.
    const uintmax_t cut = (size * static_cast<uintmax_t>(iter)) / 12;
    fs::resize_file(target, cut);
    auto recovered = engine::ParjEngine::RecoverFromWal(Opts(clone));
    ASSERT_TRUE(recovered.ok())
        << "cut at " << cut << ": " << recovered.status().ToString();
    EXPECT_LE(MarkerCount(*recovered), 16u);
    fs::remove_all(clone);
  }
}

TEST(WalFuzzTest, CorruptionInNonLastSegmentIsDataLoss) {
  const std::string dir = NewWalDir("fuzzmid");
  WriteLog(40, Opts(dir, WalSync::kBatch, /*segment_bytes=*/512));
  const std::vector<std::string> segments = SegmentFiles(dir);
  ASSERT_GE(segments.size(), 2u);

  // Flip a record byte (past the header) in the first, non-last segment:
  // that is corruption, not a torn tail, and must name the segment.
  {
    std::fstream f(segments.front(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    char byte = 0x7f;
    f.write(&byte, 1);
  }
  auto recovered = engine::ParjEngine::RecoverFromWal(Opts(dir));
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsDataLoss())
      << recovered.status().ToString();
  const std::string message = recovered.status().ToString();
  EXPECT_NE(message.find(fs::path(segments.front()).filename().string()),
            std::string::npos)
      << message;
}

TEST(WalFuzzTest, DuplicatedSegmentIsDataLoss) {
  const std::string dir = NewWalDir("fuzzdup");
  WriteLog(30, Opts(dir, WalSync::kBatch, /*segment_bytes=*/512));
  const std::vector<std::string> segments = SegmentFiles(dir);
  ASSERT_GE(segments.size(), 2u);

  // Overwrite segment 2 with a copy of segment 1: the embedded header
  // sequence no longer matches the file name.
  fs::copy_file(segments[0], segments[1],
                fs::copy_options::overwrite_existing);
  auto recovered = engine::ParjEngine::RecoverFromWal(Opts(dir));
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsDataLoss())
      << recovered.status().ToString();
}

TEST(WalFuzzTest, MissingSegmentInChainIsDataLoss) {
  const std::string dir = NewWalDir("fuzzgap");
  WriteLog(40, Opts(dir, WalSync::kBatch, /*segment_bytes=*/512));
  const std::vector<std::string> segments = SegmentFiles(dir);
  ASSERT_GE(segments.size(), 3u);
  fs::remove(segments[1]);

  auto recovered = engine::ParjEngine::RecoverFromWal(Opts(dir));
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsDataLoss())
      << recovered.status().ToString();
}

TEST(WalFuzzTest, ManifestDamageIsDataLossNeverSilent) {
  const std::string dir = NewWalDir("fuzzman");
  WriteLog(6, Opts(dir));
  const std::string manifest = dir + "/MANIFEST";

  // Empty manifest.
  {
    const std::string clone = CloneDir(dir, 200);
    fs::resize_file(clone + "/MANIFEST", 0);
    auto r = engine::ParjEngine::RecoverFromWal(Opts(clone));
    EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
    fs::remove_all(clone);
  }
  // Bit-flipped manifest (CRC catches it).
  {
    const std::string clone = CloneDir(dir, 201);
    std::fstream f(clone + "/MANIFEST",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(10);
    char byte = 0x55;
    f.write(&byte, 1);
    f.close();
    auto r = engine::ParjEngine::RecoverFromWal(Opts(clone));
    EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
    fs::remove_all(clone);
  }
  // Deleted manifest with segments still present: loss, not "fresh dir".
  {
    const std::string clone = CloneDir(dir, 202);
    fs::remove(clone + "/MANIFEST");
    auto r = engine::ParjEngine::RecoverFromWal(Opts(clone));
    EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
    fs::remove_all(clone);
  }
  ASSERT_TRUE(fs::exists(manifest));
}

TEST(WalFuzzTest, VerifyWalMatchesRecoveryVerdicts) {
  const std::string dir = NewWalDir("verify");
  WriteLog(10, Opts(dir));

  auto good = Wal::VerifyWal(dir);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->records, 10u);
  EXPECT_EQ(good->torn_tail_bytes, 0u);
  EXPECT_GT(good->mutations, good->records);

  // verify-wal is read-only: running it twice gives identical answers
  // and a subsequent real recovery still works.
  auto again = Wal::VerifyWal(dir);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->bytes, good->bytes);
  auto recovered = engine::ParjEngine::RecoverFromWal(Opts(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  EXPECT_FALSE(Wal::VerifyWal(NewWalDir("verify_missing")).ok());
}

}  // namespace
}  // namespace parj::mut
