#include "mutable/delta_store.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/timer.h"
#include "mutable/wal.h"

namespace parj::mut {

namespace {

uint64_t Pack(TermId s, TermId o) {
  return (static_cast<uint64_t>(s) << 32) | static_cast<uint64_t>(o);
}

std::vector<std::pair<TermId, TermId>> Unpack(
    const std::unordered_set<uint64_t>& packed) {
  std::vector<std::pair<TermId, TermId>> pairs;
  pairs.reserve(packed.size());
  for (uint64_t p : packed) {
    pairs.emplace_back(static_cast<TermId>(p >> 32),
                       static_cast<TermId>(p & 0xFFFFFFFFu));
  }
  return pairs;
}

/// The S-O runs of (base \ deletes) ∪ inserts, merged subject by
/// subject. A subject whose run empties is dropped.
storage::SortedRuns MergeRuns(const storage::TableReplica& base,
                              const storage::TableReplica& deletes,
                              const storage::TableReplica& inserts) {
  storage::SortedRuns out;
  out.keys.reserve(base.key_count() + inserts.key_count());
  out.offsets.reserve(base.key_count() + inserts.key_count() + 1);
  out.values.reserve(base.pair_count() + inserts.pair_count());
  out.offsets.push_back(0);
  size_t b = 0;
  size_t d = 0;
  size_t i = 0;
  while (b < base.key_count() || i < inserts.key_count()) {
    constexpr TermId kEnd = std::numeric_limits<TermId>::max();
    const TermId s =
        std::min(b < base.key_count() ? base.KeyAt(b) : kEnd,
                 i < inserts.key_count() ? inserts.KeyAt(i) : kEnd);
    std::span<const TermId> kept;
    std::span<const TermId> removed;
    std::span<const TermId> added;
    if (b < base.key_count() && base.KeyAt(b) == s) kept = base.Run(b++);
    if (i < inserts.key_count() && inserts.KeyAt(i) == s) {
      added = inserts.Run(i++);
    }
    while (d < deletes.key_count() && deletes.KeyAt(d) < s) ++d;
    if (d < deletes.key_count() && deletes.KeyAt(d) == s) {
      removed = deletes.Run(d);
    }
    size_t x = 0;
    size_t y = 0;
    size_t z = 0;
    const size_t before = out.values.size();
    while (x < kept.size() || y < added.size()) {
      if (y == added.size() || (x < kept.size() && kept[x] < added[y])) {
        const TermId v = kept[x++];
        while (z < removed.size() && removed[z] < v) ++z;
        if (z < removed.size() && removed[z] == v) continue;
        out.values.push_back(v);
      } else {
        if (x < kept.size() && kept[x] == added[y]) ++x;
        out.values.push_back(added[y++]);
      }
    }
    if (out.values.size() > before) {
      out.keys.push_back(s);
      out.offsets.push_back(out.values.size());
    }
  }
  return out;
}

}  // namespace

Version::Version(std::shared_ptr<const storage::Database> base,
                 std::shared_ptr<const DeltaView> delta, uint64_t epoch,
                 std::shared_ptr<std::atomic<int64_t>> live_counter)
    : base_(std::move(base)),
      delta_(std::move(delta)),
      epoch_(epoch),
      live_counter_(std::move(live_counter)) {
  live_counter_->fetch_add(1, std::memory_order_relaxed);
}

Version::~Version() {
  live_counter_->fetch_sub(1, std::memory_order_relaxed);
}

DeltaStore::DeltaStore(storage::Database base, DeltaStoreOptions options)
    : options_(std::move(options)),
      live_versions_(std::make_shared<std::atomic<int64_t>>(0)) {
  base_ = std::make_shared<const storage::Database>(std::move(base));
  const dict::Dictionary& dict = base_->dictionary();
  working_overlay_ = std::make_unique<TermOverlay>(dict.resource_count(),
                                                   dict.predicate_count());
  overlay_ = std::make_shared<const TermOverlay>(*working_overlay_);
  builders_.resize(base_->predicate_count());
  published_.assign(base_->predicate_count(), nullptr);
  auto view = std::make_shared<const DeltaView>(published_, overlay_,
                                                /*sequence=*/0);
  current_ = std::make_shared<const Version>(base_, view,
                                             options_.initial_epoch,
                                             live_versions_);
}

void DeltaStore::AttachWal(Wal* wal) {
  std::lock_guard<std::mutex> lock(write_mu_);
  wal_ = wal;
}

std::shared_ptr<const Version> DeltaStore::CurrentVersion() const {
  std::lock_guard<std::mutex> lock(version_mu_);
  return current_;
}

void DeltaStore::InstallVersion(std::shared_ptr<const Version> version) {
  std::lock_guard<std::mutex> lock(version_mu_);
  current_ = std::move(version);
}

MvccSnapshot DeltaStore::snapshot() const {
  return MvccSnapshot(CurrentVersion());
}

const storage::Database& DeltaStore::base() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  return *base_;
}

uint64_t DeltaStore::epoch() const { return CurrentVersion()->epoch(); }

EncodedTriple DeltaStore::EncodeTriple(const rdf::Triple& triple,
                                       bool allocate) {
  const dict::Dictionary& dict = base_->dictionary();
  EncodedTriple t;
  t.subject = dict.LookupResource(triple.subject);
  if (t.subject == kInvalidTermId) {
    t.subject = allocate ? working_overlay_->AddResource(triple.subject)
                         : working_overlay_->LookupResource(triple.subject);
  }
  t.predicate = dict.LookupPredicate(triple.predicate);
  if (t.predicate == kInvalidPredicateId) {
    t.predicate = allocate
                      ? working_overlay_->AddPredicate(triple.predicate)
                      : working_overlay_->LookupPredicate(triple.predicate);
  }
  t.object = dict.LookupResource(triple.object);
  if (t.object == kInvalidTermId) {
    t.object = allocate ? working_overlay_->AddResource(triple.object)
                        : working_overlay_->LookupResource(triple.object);
  }
  return t;
}

bool DeltaStore::BaseContains(const storage::Database& base, PredicateId pid,
                              TermId s, TermId o) const {
  const storage::PropertyEntry* entry = base.FindEntry(pid);
  if (entry == nullptr) return false;
  const storage::TableReplica& so = entry->table.so();
  const size_t pos = so.FindKey(s);
  if (pos == SIZE_MAX) return false;
  return so.RunContains(pos, o);
}

void DeltaStore::ApplyToBuilders(const storage::Database& base,
                                 std::span<const Mutation> mutations,
                                 bool* overlay_grew) {
  const TermId res_before = working_overlay_->resource_count();
  const PredicateId pred_before = working_overlay_->predicate_count();
  for (const Mutation& m : mutations) {
    if (!m.remove) {
      const EncodedTriple t = EncodeTriple(m.triple, /*allocate=*/true);
      if (builders_.size() < t.predicate) builders_.resize(t.predicate);
      PidBuilder& b = builders_[t.predicate - 1];
      const uint64_t packed = Pack(t.subject, t.object);
      if (b.del.erase(packed) > 0) {
        // Un-delete: the triple is back to its base state.
        b.dirty = true;
        continue;
      }
      if (BaseContains(base, t.predicate, t.subject, t.object)) continue;
      if (b.ins.insert(packed).second) b.dirty = true;
    } else {
      // Removal never allocates terms: a triple with an unseen term
      // cannot be present anywhere.
      const EncodedTriple t = EncodeTriple(m.triple, /*allocate=*/false);
      if (t.subject == kInvalidTermId || t.predicate == kInvalidPredicateId ||
          t.object == kInvalidTermId) {
        continue;
      }
      if (builders_.size() < t.predicate) builders_.resize(t.predicate);
      PidBuilder& b = builders_[t.predicate - 1];
      const uint64_t packed = Pack(t.subject, t.object);
      if (b.ins.erase(packed) > 0) {
        b.dirty = true;
        continue;
      }
      if (BaseContains(base, t.predicate, t.subject, t.object)) {
        if (b.del.insert(packed).second) b.dirty = true;
      }
    }
  }
  *overlay_grew = working_overlay_->resource_count() != res_before ||
                  working_overlay_->predicate_count() != pred_before;
}

void DeltaStore::Publish(bool overlay_grew, uint64_t epoch) {
  if (overlay_grew) {
    overlay_ = std::make_shared<const TermOverlay>(*working_overlay_);
  }
  if (published_.size() < builders_.size()) {
    published_.resize(builders_.size());
  }
  for (size_t i = 0; i < builders_.size(); ++i) {
    PidBuilder& b = builders_[i];
    if (!b.dirty) continue;
    b.dirty = false;
    if (b.ins.empty() && b.del.empty()) {
      published_[i] = nullptr;
      continue;
    }
    auto d = std::make_shared<PropertyDelta>();
    d->inserts = storage::PropertyTable::Build(Unpack(b.ins));
    d->deletes = storage::PropertyTable::Build(Unpack(b.del));
    published_[i] = std::move(d);
  }
  auto view =
      std::make_shared<const DeltaView>(published_, overlay_, sequence_);
  InstallVersion(std::make_shared<const Version>(base_, std::move(view),
                                                 epoch, live_versions_));
}

Status DeltaStore::Insert(const rdf::Triple& triple) {
  const Mutation m{triple, /*remove=*/false};
  return Apply(std::span<const Mutation>(&m, 1));
}

Status DeltaStore::Remove(const rdf::Triple& triple) {
  const Mutation m{triple, /*remove=*/true};
  return Apply(std::span<const Mutation>(&m, 1));
}

Status DeltaStore::Apply(std::span<const Mutation> mutations) {
  if (mutations.empty()) return Status::OK();
  std::unique_lock<std::mutex> lock(write_mu_);
  // Injected before any state changes, so a failed apply is a no-op and
  // queries keep seeing the pre-batch view (batch atomicity).
  PARJ_FAILPOINT("delta.apply");
  // Log-before-apply: the batch is framed into the WAL (still under the
  // writer lock, so records land in apply order) before any memory
  // changes. A rejected append — backpressure timeout or a dead log —
  // fails the write with the store untouched.
  Wal::Ticket ticket;
  if (wal_ != nullptr) {
    Result<Wal::Ticket> appended = wal_->Append(mutations, sequence_ + 1);
    if (!appended.ok()) return appended.status();
    ticket = *appended;
  }
  bool overlay_grew = false;
  ApplyToBuilders(*base_, mutations, &overlay_grew);
  log_.insert(log_.end(), mutations.begin(), mutations.end());
  ++sequence_;
  Publish(overlay_grew, CurrentVersion()->epoch());
  if (wal_ == nullptr) return Status::OK();
  Wal* wal = wal_;
  lock.unlock();
  // Ack-after-durability, waited for *outside* the writer lock: the next
  // writer can enter Apply and enqueue its record while this one waits,
  // which is what lets one fsync commit a whole group of batches.
  return wal->WaitDurable(ticket);
}

Status DeltaStore::Compact() {
  bool expected = false;
  if (!compacting_.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
    return Status::AlreadyExists("compaction already running");
  }
  Stopwatch timer;
  // Captured at the swap point for the WAL checkpoint's second half,
  // which runs after the lambda with no locks held.
  std::shared_ptr<const storage::Database> checkpoint_base;
  uint64_t checkpoint_epoch = 0;
  Wal* checkpoint_wal = nullptr;
  const Status status = [&]() -> Status {
    // Phase 1 — capture: pin the version to rebuild from and remember how
    // much of the mutation log it covers. Writers continue after this.
    std::shared_ptr<const Version> pinned;
    size_t log_prefix = 0;
    {
      std::lock_guard<std::mutex> lock(write_mu_);
      pinned = current_;  // version_mu_ unnecessary: writers hold write_mu_
      log_prefix = log_.size();
    }

    // Phase 2 — rebuild (no locks held): fold the pinned delta into a new
    // base Database by merging sorted runs (Database::FromSortedRuns).
    // Term IDs are preserved exactly: the new dictionary is the old one
    // plus the overlay terms appended in allocation order.
    PARJ_FAILPOINT("compactor.build");
    const storage::Database& old_base = pinned->base();
    const DeltaView& view = pinned->delta();
    const TermOverlay& overlay = view.overlay();

    dict::Dictionary dict = old_base.dictionary().Clone();
    const dict::TermTable& new_resources = overlay.resource_keys();
    for (uint32_t i = 1; i <= new_resources.size(); ++i) {
      const TermId id = dict.EncodeResourceByKey(new_resources.Key(i));
      PARJ_CHECK(id == dict.resource_count())
          << "overlay resource folded to an unexpected ID";
    }
    const dict::TermTable& new_predicates = overlay.predicate_keys();
    for (uint32_t i = 1; i <= new_predicates.size(); ++i) {
      const PredicateId id = dict.EncodePredicateByKey(new_predicates.Key(i));
      PARJ_CHECK(id == dict.predicate_count())
          << "overlay predicate folded to an unexpected ID";
    }

    // Each touched predicate's S-O runs are merged with its delta runs;
    // the others (nullopt) keep their tables and metadata as they are.
    const PredicateId max_pid = dict.predicate_count();
    const storage::TableReplica empty;
    std::vector<std::optional<storage::SortedRuns>> runs(max_pid);
    for (PredicateId pid = 1; pid <= max_pid; ++pid) {
      const storage::PropertyEntry* entry = old_base.FindEntry(pid);
      const PropertyDelta* d = view.Find(pid);
      if (entry != nullptr && d == nullptr) continue;
      runs[pid - 1] = MergeRuns(entry != nullptr ? entry->table.so() : empty,
                                d != nullptr ? d->deletes.so() : empty,
                                d != nullptr ? d->inserts.so() : empty);
    }

    storage::BuildTimings timings;
    Result<storage::Database> rebuilt = storage::Database::FromSortedRuns(
        std::move(dict), std::move(runs), options_.database, &old_base,
        &timings);
    if (!rebuilt.ok()) return rebuilt.status();
    compaction_pair_stats_micros_.fetch_add(
        static_cast<uint64_t>(timings.pair_stats_millis * 1e3),
        std::memory_order_relaxed);
    storage::Database new_db = std::move(rebuilt).value();

    // Phase 3 — swap under the writer lock: rebase mutations that raced
    // with the rebuild onto the new base (replaying them re-derives the
    // ins/del invariants and re-allocates byte-identical overlay IDs,
    // because the new dictionary ends exactly where the pinned overlay
    // ended), then install the new epoch. A failure before the install
    // leaves the old version serving and the writer state untouched.
    std::lock_guard<std::mutex> lock(write_mu_);
    PARJ_FAILPOINT("compactor.swap");
    const TermId expected_resources = working_overlay_->resource_count();
    const PredicateId expected_predicates =
        working_overlay_->predicate_count();
    std::vector<Mutation> tail(log_.begin() + log_prefix, log_.end());

    // WAL checkpoint half 1 (§14): rotate onto a fresh segment and re-log
    // the tail into it, so the snapshot-to-be plus that one segment cover
    // every acknowledged write. Failure aborts the compaction with the
    // store untouched; the duplicate tail records it may leave behind
    // replay idempotently.
    if (wal_ != nullptr) {
      PARJ_RETURN_NOT_OK(wal_->BeginCheckpoint(tail, sequence_));
    }

    base_ = std::make_shared<const storage::Database>(std::move(new_db));
    const dict::Dictionary& new_dict = base_->dictionary();
    builders_.assign(base_->predicate_count(), PidBuilder{});
    working_overlay_ = std::make_unique<TermOverlay>(
        new_dict.resource_count(), new_dict.predicate_count());
    published_.assign(base_->predicate_count(), nullptr);
    log_.clear();
    bool overlay_grew = false;
    if (!tail.empty()) {
      ApplyToBuilders(*base_, tail, &overlay_grew);
      log_ = std::move(tail);
    }
    PARJ_CHECK(working_overlay_->resource_count() == expected_resources &&
               working_overlay_->predicate_count() == expected_predicates)
        << "compaction rebase changed term IDs";
    overlay_ = std::make_shared<const TermOverlay>(*working_overlay_);
    Publish(/*overlay_grew=*/false, pinned->epoch() + 1);
    checkpoint_base = base_;
    checkpoint_epoch = pinned->epoch() + 1;
    checkpoint_wal = wal_;
    return Status::OK();
  }();

  // WAL checkpoint half 2, off-lock: durable snapshot + manifest swing +
  // segment pruning. Failure here never loses data — the previous
  // manifest still covers every record — so it degrades to a warning and
  // the next compaction retries the whole checkpoint.
  if (status.ok() && checkpoint_wal != nullptr) {
    const Status finished =
        checkpoint_wal->FinishCheckpoint(checkpoint_base, checkpoint_epoch);
    if (!finished.ok()) {
      PARJ_LOG(Warning) << "WAL checkpoint did not finish (recovery will "
                        << "replay the full log): " << finished.ToString();
    }
  }

  compaction_micros_.fetch_add(
      static_cast<uint64_t>(timer.ElapsedNanos() / 1000),
      std::memory_order_relaxed);
  if (status.ok()) {
    compactions_.fetch_add(1, std::memory_order_relaxed);
    // The swapped-in base carries fresh statistics; cached
    // plans built against the old base are still correct (TermIds are
    // stable) but may no longer be the optimizer's choice.
    plan_generation_.fetch_add(1, std::memory_order_acq_rel);
  }
  compacting_.store(false, std::memory_order_release);
  return status;
}

void DeltaStore::CalibrateBase(const join::CalibrationOptions& options) {
  std::lock_guard<std::mutex> lock(write_mu_);
  // Calibration is the one sanctioned mutation of a published base: it
  // tunes per-replica search windows in place and is only legal while no
  // queries are running (the same contract the read-only engine had).
  const_cast<storage::Database*>(base_.get())->Calibrate(options);
  plan_generation_.fetch_add(1, std::memory_order_acq_rel);
}

MutationStats DeltaStore::stats() const {
  MutationStats out;
  const std::shared_ptr<const Version> v = CurrentVersion();
  out.delta_insert_triples = v->delta().insert_triples();
  out.delta_delete_triples = v->delta().delete_triples();
  out.delta_bytes = v->delta().DeltaBytes();
  out.epoch = v->epoch();
  out.sequence = v->delta().sequence();
  out.plan_generation = plan_generation_.load(std::memory_order_relaxed);
  out.compactions = compactions_.load(std::memory_order_relaxed);
  out.compaction_micros = compaction_micros_.load(std::memory_order_relaxed);
  out.compaction_pair_stats_micros =
      compaction_pair_stats_micros_.load(std::memory_order_relaxed);
  const int64_t live = live_versions_->load(std::memory_order_relaxed);
  out.active_epochs = live < 0 ? 0 : static_cast<uint64_t>(live);
  return out;
}

}  // namespace parj::mut
