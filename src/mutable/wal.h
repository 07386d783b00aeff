#ifndef PARJ_MUTABLE_WAL_H_
#define PARJ_MUTABLE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "mutable/delta_store.h"
#include "storage/snapshot.h"

namespace parj::mut {

/// Write-ahead logging for the mutable store (DESIGN.md §14). The delta
/// store of §12 is purely memory-resident; this module makes acknowledged
/// writes survive a crash with the classic LSM write path: every mutation
/// batch is serialized into a CRC-32C-framed record, appended to a segment
/// file by a dedicated log-writer thread, and acknowledged only once the
/// configured sync policy says it is durable. Compaction doubles as the
/// checkpoint: a successful swap saves the new base as a durable snapshot,
/// rotates the log onto a fresh segment, and publishes a small CRC'd
/// manifest naming the snapshot and the first live segment, after which
/// the older segments are garbage.
///
/// Recovery is deterministic at the TermId level: records carry the
/// string-level mutations, and replaying them through DeltaStore::Apply
/// re-allocates overlay TermIds in first-seen order — the same order the
/// original process used — so the recovered store is row-identical (not
/// just set-equal) to the acknowledged prefix.
///
/// On-disk layout inside the WAL directory:
///
///   MANIFEST               CRC'd control file (see below)
///   snapshot-<epoch>.parj  base snapshot (ordinary snapshot format)
///   wal-<seq>.seg          log segments, contiguous ascending <seq>
///
/// Segment file: 24-byte header { magic "PARJWSEG", u32 version, u32
/// reserved, u64 seq }, then records { u32 payload_len, u32
/// crc32c(payload), payload }. A record payload is { u8 type=1, u64
/// sequence, u32 mutation_count, mutations }, each mutation { u8 flags
/// (bit0 = remove), subject, predicate, object }, each term { u8 kind,
/// u32-len lexical, u32-len datatype, u32-len lang } — the snapshot
/// format's term encoding. All integers little-endian.
///
/// Manifest: { magic "PARJWMAN", u32 version, u64 snapshot_epoch, u64
/// first_segment, u32 name_len, snapshot file name, u32 crc32c(everything
/// after the magic) }, replaced atomically (tmp + fsync + rename + fsync
/// parent dir) so a crash mid-update leaves the previous manifest intact.
///
/// Torn-tail rule: replay stops at the first bad frame of the *last*
/// segment (short frame, oversized length, or CRC mismatch) and truncates
/// the file there — a crash mid-append must never lose the records before
/// it or replay garbage after it. The same damage in a non-last segment
/// is not a torn tail, it is corruption, and recovery reports kDataLoss
/// naming the segment and byte offset rather than guessing.
class Wal;

/// When an Append is acknowledged as durable.
enum class WalSync {
  kNone,    ///< never fsync; ack after the write() (page cache only)
  kBatch,   ///< group commit: one fsync covers every queued record
  kAlways,  ///< fsync after every record (strict, slowest)
};

const char* WalSyncName(WalSync sync);
Result<WalSync> ParseWalSync(const std::string& name);

struct WalOptions {
  /// WAL directory; empty disables logging entirely.
  std::string dir;
  WalSync sync = WalSync::kBatch;
  /// Rotate to a fresh segment once the current one exceeds this.
  uint64_t segment_bytes = 64ull << 20;
  /// Appends block (backpressure) once this many serialized bytes are
  /// queued ahead of the log-writer thread…
  uint64_t max_backlog_bytes = 32ull << 20;
  /// …and fail with ResourceExhausted after waiting this long.
  uint64_t backlog_timeout_millis = 30'000;

  bool enabled() const { return !dir.empty(); }
};

/// Cumulative log-writer counters (all monotonic except backlog_bytes and
/// segments, which are gauges).
struct WalStats {
  uint64_t records = 0;
  uint64_t bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t group_commits = 0;        ///< fsyncs amortized over >= 1 record
  uint64_t group_commit_micros = 0;  ///< cumulative group-commit latency
  uint64_t rotations = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_failures = 0;
  uint64_t backpressure_waits = 0;
  uint64_t backlog_bytes = 0;  ///< serialized bytes queued, not yet written
  uint64_t segments = 0;       ///< live segment files
};

/// What one recovery did.
struct RecoveryStats {
  uint64_t snapshot_epoch = 0;
  uint64_t segments_scanned = 0;
  uint64_t records_replayed = 0;
  uint64_t mutations_replayed = 0;
  uint64_t truncated_bytes = 0;  ///< torn tail removed from the last segment
  double snapshot_load_millis = 0.0;
  double replay_millis = 0.0;
};

/// Read-only summary of a WAL directory (the CLI's `verify-wal`).
struct WalInfo {
  uint64_t snapshot_epoch = 0;
  std::string snapshot_file;
  uint64_t first_segment = 0;
  uint64_t last_segment = 0;
  uint64_t segments = 0;
  uint64_t records = 0;
  uint64_t mutations = 0;
  uint64_t bytes = 0;           ///< total segment bytes scanned
  uint64_t torn_tail_bytes = 0; ///< unreplayable tail of the last segment
};

class Wal {
 public:
  /// A durability ticket: Append hands one back, WaitDurable redeems it.
  struct Ticket {
    uint64_t lsn = 0;
  };

  /// Everything Recover() reconstructs: the checkpointed base, the logged
  /// mutation batches to replay over it (in log order, possibly
  /// containing benign duplicates of a checkpoint tail — replay through
  /// DeltaStore::Apply is idempotent), and where logging resumes.
  struct Recovered {
    storage::Database base;
    std::vector<std::vector<Mutation>> batches;
    uint64_t epoch = 0;
    uint64_t next_segment = 0;
    RecoveryStats stats;
  };

  /// Creates a fresh WAL directory for `base` at `epoch`: durable
  /// snapshot, segment 1, manifest, in that order (a crash before the
  /// manifest leaves no manifest, and the directory re-initializes
  /// cleanly). Fails with AlreadyExists when a manifest is present.
  static Result<std::unique_ptr<Wal>> Initialize(const storage::Database& base,
                                                 uint64_t epoch,
                                                 const WalOptions& options);

  /// Loads the manifest + snapshot and replays every live segment.
  /// NotFound when no manifest exists (fresh directory — Initialize
  /// instead); kDataLoss naming segment and offset on any mid-stream
  /// corruption. A torn tail in the last segment is truncated in place
  /// (ftruncate + fsync) so the next writer appends after a clean frame.
  static Result<Recovered> Recover(
      const WalOptions& options,
      const storage::DatabaseOptions& database = {});

  /// Resumes logging after Recover() on a fresh segment `next_segment`.
  static Result<std::unique_ptr<Wal>> Open(const WalOptions& options,
                                           uint64_t next_segment);

  /// Read-only integrity walk of a WAL directory: manifest, snapshot
  /// CRCs, every segment frame. Never repairs anything.
  static Result<WalInfo> VerifyWal(const std::string& dir);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Serializes and enqueues one mutation batch as record `sequence`.
  /// Blocks (bounded by backlog_timeout_millis) when the writer backlog
  /// exceeds max_backlog_bytes; fails ResourceExhausted on timeout and
  /// IoError once the log-writer has hit a sticky write failure. Call
  /// with the store's writer lock held so records are framed in apply
  /// order; the returned ticket is redeemed *outside* the lock, which is
  /// what turns batched fsync into group commit.
  Result<Ticket> Append(std::span<const Mutation> mutations,
                        uint64_t sequence);

  /// Blocks until the ticket's record is durable under the sync policy
  /// (immediately satisfied under kNone once written). Returns the
  /// sticky writer error if the log died first.
  Status WaitDurable(Ticket ticket);

  /// Checkpoint half 1, called with the store's writer lock held at the
  /// compaction swap point: drains the queue, rotates onto a fresh
  /// segment, re-logs `tail` (the mutations that raced with the rebuild,
  /// which the new base does not contain) into it, and fsyncs — after
  /// this returns, the fresh segment alone carries everything the
  /// snapshot-to-be lacks. Failure leaves the old segment chain intact
  /// and must abort the compaction swap.
  Status BeginCheckpoint(std::span<const Mutation> tail, uint64_t sequence);

  /// Checkpoint half 2, called off-lock after the swap published: saves
  /// `base` as snapshot-<epoch>.parj (durably), atomically points the
  /// manifest at it + the fresh segment, and prunes dead segments and
  /// snapshots. Failure here is non-fatal for durability — the old
  /// manifest still covers every record (the re-logged tail replays
  /// idempotently) — so callers log it and carry on.
  Status FinishCheckpoint(std::shared_ptr<const storage::Database> base,
                          uint64_t epoch);

  WalStats stats() const;
  const std::string& dir() const { return options_.dir; }

 private:
  struct Item {
    std::string bytes;       ///< one framed record (empty for a bare rotate)
    uint64_t lsn = 0;
    bool checkpoint = false; ///< rotate first, then write bytes, then fsync
    Status* done_status = nullptr;   ///< checkpoint completion (stack of caller)
    bool* done_flag = nullptr;
  };

  explicit Wal(WalOptions options);

  /// Opens segment `seq` for append (creating it with a header) and
  /// makes its existence durable. Used by Initialize/Open and rotation.
  Status OpenSegment(uint64_t seq);

  void StartWriter();
  void WriterLoop();
  /// Writes one framed record to the current segment, honoring torn/io
  /// failpoints and size-based rotation. Writer thread only.
  Status WriteRecord(const std::string& bytes);
  Status Rotate();
  Status SyncSegment();

  const WalOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     ///< writer thread wake-up
  std::condition_variable durable_cv_;  ///< durable_lsn_ advanced / error
  std::condition_variable space_cv_;    ///< backlog drained
  std::deque<Item> queue_;
  uint64_t queue_bytes_ = 0;
  uint64_t next_lsn_ = 0;
  uint64_t durable_lsn_ = 0;
  Status writer_error_;  ///< sticky: first write failure, rejects all appends
  bool stop_ = false;

  // Writer-thread-only segment state; current_segment_ is atomic solely
  // because stats() reads it as a gauge from other threads.
  int fd_ = -1;
  std::atomic<uint64_t> current_segment_{0};
  uint64_t current_segment_bytes_ = 0;
  bool synced_since_last_write_ = true;

  // Manifest state, guarded by mu_.
  uint64_t manifest_first_segment_ = 0;
  uint64_t pending_first_segment_ = 0;  ///< set by BeginCheckpoint's rotate

  std::thread writer_;

  // Counters (relaxed; stats() assembles a snapshot).
  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> group_commits_{0};
  std::atomic<uint64_t> group_commit_micros_{0};
  std::atomic<uint64_t> rotations_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};
  std::atomic<uint64_t> backpressure_waits_{0};
};

/// Serializes one mutation batch into a framed WAL record (exposed for
/// tests that build segments by hand).
std::string EncodeWalRecord(std::span<const Mutation> mutations,
                            uint64_t sequence);

}  // namespace parj::mut

#endif  // PARJ_MUTABLE_WAL_H_
