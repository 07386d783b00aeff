#ifndef PARJ_MUTABLE_DELTA_STORE_H_
#define PARJ_MUTABLE_DELTA_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "join/calibration.h"
#include "mutable/delta_view.h"
#include "storage/database.h"

namespace parj::mut {

class Wal;

/// One logical write: insert or remove a string-level triple. The store
/// keeps the log of mutations applied since the last compaction so a
/// compaction can rebase writes that raced with its rebuild.
struct Mutation {
  rdf::Triple triple;
  bool remove = false;
};

struct DeltaStoreOptions {
  /// Rebuild options for compaction (ID indexes, pair stats, default
  /// windows and build_threads — set build_threads > 1 to merge,
  /// transpose and finish the touched predicates on a build pool).
  /// Compaction never re-runs Algorithm 2: predicates no write touched
  /// keep their calibrated windows, touched predicates get the default
  /// windows until CalibrateBase runs.
  storage::DatabaseOptions database;
  /// Epoch the store starts at. 0 for a fresh store; WAL recovery passes
  /// the checkpointed epoch so epoch numbering continues where the
  /// crashed process left off.
  uint64_t initial_epoch = 0;
};

/// Point-in-time counters for the serving gauges (DESIGN.md §12).
struct MutationStats {
  uint64_t delta_insert_triples = 0;
  uint64_t delta_delete_triples = 0;
  uint64_t delta_bytes = 0;
  uint64_t compactions = 0;         ///< completed compactions
  uint64_t compaction_micros = 0;   ///< cumulative compaction wall time
  /// Of compaction_micros, the rebuilds' pairwise join statistics
  /// (storage::BuildTimings::pair_stats_millis).
  uint64_t compaction_pair_stats_micros = 0;
  uint64_t active_epochs = 0;       ///< live Version objects (pinned views)
  uint64_t epoch = 0;               ///< current epoch (bumped per compaction)
  uint64_t sequence = 0;            ///< write batches applied
  /// Bumped whenever the plan-relevant base statistics change (successful
  /// compaction or in-place recalibration). Plan caches key on this: a
  /// stale generation means a cached plan may be suboptimal, never wrong.
  uint64_t plan_generation = 0;
};

/// One epoch's immutable (base, delta) pair. Snapshots hold a shared_ptr
/// to a Version; the base database and delta view it references stay alive
/// — and bit-stable — until the last snapshot of that epoch is destroyed,
/// which is the entire epoch-reclamation mechanism (plain shared_ptr
/// reference counting; no epoch list to scan, no grace periods).
class Version {
 public:
  Version(std::shared_ptr<const storage::Database> base,
          std::shared_ptr<const DeltaView> delta, uint64_t epoch,
          std::shared_ptr<std::atomic<int64_t>> live_counter);
  ~Version();
  Version(const Version&) = delete;
  Version& operator=(const Version&) = delete;

  const storage::Database& base() const { return *base_; }
  const DeltaView& delta() const { return *delta_; }
  uint64_t epoch() const { return epoch_; }

 private:
  std::shared_ptr<const storage::Database> base_;
  std::shared_ptr<const DeltaView> delta_;
  uint64_t epoch_ = 0;
  std::shared_ptr<std::atomic<int64_t>> live_counter_;
};

/// An epoch-pinned read view: the (base CSR store, delta view) pair a
/// query executes against. Cheap to copy (two pointer hops); holding one
/// pins its epoch's storage against reclamation but never blocks writers
/// or the compactor.
class MvccSnapshot {
 public:
  MvccSnapshot() = default;
  explicit MvccSnapshot(std::shared_ptr<const Version> version)
      : version_(std::move(version)) {}

  bool valid() const { return version_ != nullptr; }
  const storage::Database& base() const { return version_->base(); }
  const DeltaView& delta() const { return version_->delta(); }
  uint64_t epoch() const { return version_->epoch(); }

  /// Monotonic data-content version of this view: the number of write
  /// batches applied when it was published. Unlike epoch() it bumps on
  /// EVERY mutation, and — because compaction only re-represents the same
  /// triples (TermIds stable) — it is intentionally unchanged across a
  /// compaction swap. Result caches key on this: equal data_version
  /// guarantees byte-identical query rows.
  uint64_t data_version() const { return version_->delta().sequence(); }

 private:
  std::shared_ptr<const Version> version_;
};

/// The write side of the store (DESIGN.md §12): an LSM-style delta over an
/// immutable base Database. Writers apply batches under a writer lock,
/// each publish installing a fresh immutable DeltaView; readers pin the
/// current Version with snapshot() and never take the writer lock.
/// Compact() folds the delta into a rebuilt base — each touched
/// predicate's base S-O runs merged with its delete and insert runs, the
/// untouched predicates copied as they are (Database::FromSortedRuns) —
/// rebases writes that raced with the rebuild via the mutation log, and
/// installs the new epoch; snapshots taken before the swap keep serving
/// the old epoch untouched.
///
/// Thread-safety: snapshot()/stats() are safe from any thread.
/// Insert/Remove/Apply/Compact serialize on the writer lock; only one
/// compaction runs at a time (concurrent Compact() calls return
/// AlreadyExists). The heavy rebuild phase of Compact() runs outside
/// the writer lock, so writes stay available during compaction.
class DeltaStore {
 public:
  explicit DeltaStore(storage::Database base, DeltaStoreOptions options = {});

  DeltaStore(const DeltaStore&) = delete;
  DeltaStore& operator=(const DeltaStore&) = delete;

  /// Pins the current epoch. O(1); never blocks on writers.
  MvccSnapshot snapshot() const;

  /// Inserts one triple (no-op if already present). Unseen terms are
  /// allocated overlay IDs past the base dictionary.
  Status Insert(const rdf::Triple& triple);

  /// Removes one triple (no-op if absent). Never allocates terms.
  Status Remove(const rdf::Triple& triple);

  /// Applies a batch of mutations atomically: queries see either none or
  /// all of it (one publish per call — batch writes to amortize the
  /// per-publish delta rebuild).
  Status Apply(std::span<const Mutation> mutations);

  /// Synchronous compaction. Returns AlreadyExists when another
  /// compaction is in flight, otherwise the rebuild status. On any
  /// failure (including injected compactor.build / compactor.swap
  /// faults) the serving snapshot is untouched.
  Status Compact();

  /// True when a compaction is currently running.
  bool compacting() const {
    return compacting_.load(std::memory_order_acquire);
  }

  /// Attaches a write-ahead log (§14). From then on every Apply frames
  /// its batch into the log before touching memory and acknowledges only
  /// once the log's sync policy says the record is durable, and every
  /// successful Compact checkpoints the log (fresh segment + snapshot +
  /// manifest). Pass nullptr to detach. The caller owns the Wal and must
  /// keep it alive while attached; attach before serving writes, not
  /// concurrently with them.
  void AttachWal(Wal* wal);

  /// Runs Algorithm 2 on the current base in place (load-time pattern:
  /// calibration tunes per-replica search windows, not data). Must not
  /// race with queries over the same base — call it before serving
  /// starts, exactly like the read-only engine's Calibrate().
  void CalibrateBase(const join::CalibrationOptions& options);

  MutationStats stats() const;

  /// Data-content version of the current epoch (see
  /// MvccSnapshot::data_version).
  uint64_t data_version() const { return snapshot().data_version(); }

  /// Plan-statistics generation (see MutationStats::plan_generation).
  uint64_t plan_generation() const {
    return plan_generation_.load(std::memory_order_acquire);
  }

  /// The current epoch's base database. The reference is valid until the
  /// next successful Compact() — callers that execute queries must pin a
  /// snapshot() instead.
  const storage::Database& base() const;

  uint64_t epoch() const;

 private:
  /// Per-predicate pending-write builder. Pairs are packed (s << 32) | o.
  struct PidBuilder {
    std::unordered_set<uint64_t> ins;
    std::unordered_set<uint64_t> del;
    bool dirty = false;  ///< touched since last publish
  };

  /// Encodes against base dictionary then overlay; allocates overlay IDs
  /// when `allocate` (insert path) and returns 0 components otherwise.
  EncodedTriple EncodeTriple(const rdf::Triple& triple, bool allocate);

  /// True when the current base contains (s, o) for predicate `pid`.
  bool BaseContains(const storage::Database& base, PredicateId pid, TermId s,
                    TermId o) const;

  /// Applies `mutations` to the builders (writer lock held); sets
  /// `*overlay_grew` when new terms were allocated.
  void ApplyToBuilders(const storage::Database& base,
                       std::span<const Mutation> mutations,
                       bool* overlay_grew);

  /// Rebuilds dirty PropertyDeltas and installs a new DeltaView + Version
  /// at `epoch` (writer lock held).
  void Publish(bool overlay_grew, uint64_t epoch);

  /// Installs `version` as current.
  void InstallVersion(std::shared_ptr<const Version> version);

  std::shared_ptr<const Version> CurrentVersion() const;

  const DeltaStoreOptions options_;

  /// Serializes writers and the compactor's swap phase.
  mutable std::mutex write_mu_;
  /// Guards current_ only — snapshot() takes this, never write_mu_.
  mutable std::mutex version_mu_;
  std::shared_ptr<const Version> current_;
  std::shared_ptr<std::atomic<int64_t>> live_versions_;

  // ---- writer state, guarded by write_mu_ ----
  /// The current base; replaced only by a successful compaction swap.
  std::shared_ptr<const storage::Database> base_;
  std::vector<PidBuilder> builders_;  // index = predicate id - 1
  /// Mutable overlay the writer encodes against.
  std::unique_ptr<TermOverlay> working_overlay_;
  /// Immutable copy of working_overlay_ as of the last publish.
  std::shared_ptr<const TermOverlay> overlay_;
  /// Mutations applied since the current base was built, in order; the
  /// compactor replays the suffix that raced with its rebuild.
  std::vector<Mutation> log_;
  uint64_t sequence_ = 0;
  /// Previous view's per-pid deltas, reused for untouched predicates.
  std::vector<std::shared_ptr<const PropertyDelta>> published_;

  /// Write-ahead log, optional; guarded by write_mu_ for the Append /
  /// BeginCheckpoint calls (both made with the lock held).
  Wal* wal_ = nullptr;

  std::atomic<bool> compacting_{false};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> compaction_micros_{0};
  std::atomic<uint64_t> compaction_pair_stats_micros_{0};
  std::atomic<uint64_t> plan_generation_{0};
};

}  // namespace parj::mut

#endif  // PARJ_MUTABLE_DELTA_STORE_H_
