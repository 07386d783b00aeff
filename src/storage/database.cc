#include "storage/database.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "common/timer.h"
#include "server/thread_pool.h"

namespace parj::storage {

namespace {

/// Computes intersection size and one-sided pair sums for two sorted
/// distinct-key columns via a linear merge.
PairJoinStat IntersectColumns(const TableReplica& left,
                              const TableReplica& right) {
  PairJoinStat stat;
  std::span<const TermId> a = left.keys();
  std::span<const TermId> b = right.keys();
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++stat.intersection;
      stat.pairs_left += left.RunLength(i);
      stat.pairs_right += right.RunLength(j);
      ++i;
      ++j;
    }
  }
  return stat;
}

void InitReplicaMeta(const TableReplica& replica, TermId max_resource_id,
                     const DatabaseOptions& options, ReplicaMeta* meta) {
  if (options.build_id_position_indexes && !replica.empty()) {
    meta->id_index =
        index::IdPositionIndex::Build(replica.keys(), max_resource_id);
    meta->has_index = true;
  }
  meta->window_binary = options.default_binary_window;
  meta->window_index = options.default_index_window;
  const double gap = replica.AverageKeyGap();
  meta->threshold_binary =
      join::WindowToValueThreshold(meta->window_binary, gap);
  meta->threshold_index = join::WindowToValueThreshold(meta->window_index, gap);
}

/// Runs body(0..n-1) on `pool`, or inline when no pool is available. All
/// parallel build loops funnel through this, so serial and parallel
/// builds execute the identical per-index work.
void RunIndexed(server::ThreadPool* pool, size_t n,
                const std::function<void(size_t)>& body) {
  if (pool != nullptr && n > 1) {
    pool->ParallelFor(n, body);
  } else {
    for (size_t i = 0; i < n; ++i) body(i);
  }
}

/// Contiguous near-equal split of [0, n) into `parts` ranges.
std::vector<std::pair<size_t, size_t>> SplitRanges(size_t n, size_t parts) {
  parts = std::max<size_t>(1, std::min(parts, std::max<size_t>(1, n)));
  std::vector<std::pair<size_t, size_t>> ranges;
  ranges.reserve(parts);
  const size_t base = n / parts;
  const size_t extra = n % parts;
  size_t begin = 0;
  for (size_t r = 0; r < parts; ++r) {
    const size_t len = base + (r < extra ? 1 : 0);
    ranges.emplace_back(begin, begin + len);
    begin += len;
  }
  return ranges;
}

}  // namespace

Result<Database> Database::Build(dict::Dictionary dict,
                                 std::vector<EncodedTriple> triples,
                                 const DatabaseOptions& options,
                                 BuildTimings* timings) {
  Database db;
  db.options_ = options;
  db.dict_ = std::move(dict);

  const size_t predicate_count = db.dict_.predicate_count();
  const TermId max_id = db.dict_.resource_count();

  // A private pool for the build; sized by build_threads, absent (serial)
  // otherwise. Scoped so its workers join before Build returns.
  std::optional<server::ThreadPool> pool_storage;
  if (options.build_threads > 1) pool_storage.emplace(options.build_threads);
  server::ThreadPool* pool =
      pool_storage.has_value() ? &*pool_storage : nullptr;

  // --- Grouping: validate + counting pre-pass + exact-size scatter ------
  // One sweep per range counts triples per predicate and validates IDs;
  // prefix sums then give every (range, predicate) its exact write slice,
  // so the scatter is reallocation-free, race-free, and produces the same
  // per-predicate order as a serial append.
  Stopwatch group_timer;
  const auto ranges = SplitRanges(
      triples.size(), pool != nullptr ? static_cast<size_t>(
                                            options.build_threads) * 4
                                      : 1);
  const size_t range_count = ranges.size();
  std::vector<std::vector<uint64_t>> counts(
      range_count, std::vector<uint64_t>(predicate_count, 0));
  struct RangeError {
    size_t triple_index = SIZE_MAX;
    Status status = Status::OK();
  };
  std::vector<RangeError> range_errors(range_count);
  RunIndexed(pool, range_count, [&](size_t r) {
    std::vector<uint64_t>& local = counts[r];
    for (size_t i = ranges[r].first; i < ranges[r].second; ++i) {
      const EncodedTriple& t = triples[i];
      if (t.predicate == kInvalidPredicateId ||
          t.predicate > predicate_count) {
        range_errors[r] = RangeError{
            i, Status::InvalidArgument(
                   "triple has predicate id " + std::to_string(t.predicate) +
                   " outside [1, " + std::to_string(predicate_count) + "]")};
        return;
      }
      if (t.subject == kInvalidTermId || t.object == kInvalidTermId ||
          t.subject > max_id || t.object > max_id) {
        range_errors[r] = RangeError{
            i, Status::InvalidArgument(
                   "triple has resource id outside dictionary")};
        return;
      }
      ++local[t.predicate - 1];
    }
  });
  // Deterministic error selection: the bad triple earliest in input order
  // wins, matching what the old serial sweep reported.
  {
    const RangeError* first = nullptr;
    for (const RangeError& e : range_errors) {
      if (e.triple_index != SIZE_MAX &&
          (first == nullptr || e.triple_index < first->triple_index)) {
        first = &e;
      }
    }
    if (first != nullptr) return first->status;
  }

  // offsets[r][p] = write cursor for range r inside grouped[p].
  std::vector<std::vector<uint64_t>> offsets(
      range_count, std::vector<uint64_t>(predicate_count, 0));
  std::vector<uint64_t> totals(predicate_count, 0);
  for (size_t p = 0; p < predicate_count; ++p) {
    uint64_t running = 0;
    for (size_t r = 0; r < range_count; ++r) {
      offsets[r][p] = running;
      running += counts[r][p];
    }
    totals[p] = running;
  }
  std::vector<std::vector<std::pair<TermId, TermId>>> grouped(predicate_count);
  RunIndexed(pool, predicate_count, [&](size_t p) {
    grouped[p].resize(totals[p]);
  });
  RunIndexed(pool, range_count, [&](size_t r) {
    std::vector<uint64_t> cursor = offsets[r];
    for (size_t i = ranges[r].first; i < ranges[r].second; ++i) {
      const EncodedTriple& t = triples[i];
      grouped[t.predicate - 1][cursor[t.predicate - 1]++] =
          std::make_pair(t.subject, t.object);
    }
  });
  triples.clear();
  triples.shrink_to_fit();
  if (timings != nullptr) timings->group_millis = group_timer.ElapsedMillis();

  // --- Per-predicate tables: sort + dedup S-O, transpose to O-S -------
  Stopwatch tables_timer;
  db.entries_.resize(predicate_count);
  RunIndexed(pool, predicate_count, [&](size_t p) {
    db.entries_[p].table = PropertyTable::Build(std::move(grouped[p]));
  });
  if (timings != nullptr) {
    timings->tables_millis = tables_timer.ElapsedMillis();
  }
  db.Finish(pool, /*kept=*/{}, /*reuse=*/nullptr, timings);
  return db;
}

Result<Database> Database::FromSortedRuns(
    dict::Dictionary dict, std::vector<std::optional<SortedRuns>> runs,
    const DatabaseOptions& options, const Database* reuse,
    BuildTimings* timings) {
  Database db;
  db.options_ = options;
  db.dict_ = std::move(dict);
  const size_t predicate_count = db.dict_.predicate_count();
  const TermId max_id = db.dict_.resource_count();
  if (runs.size() != predicate_count) {
    return Status::InvalidArgument(
        std::to_string(runs.size()) + " S-O tables for " +
        std::to_string(predicate_count) + " predicates");
  }
  std::vector<bool> kept(predicate_count);
  for (size_t p = 0; p < predicate_count; ++p) {
    kept[p] = !runs[p].has_value();
    PARJ_CHECK(!kept[p] || (reuse != nullptr && p < reuse->entries_.size()))
        << "predicate " << p + 1 << " has no runs and nothing to reuse";
  }

  std::optional<server::ThreadPool> pool_storage;
  if (options.build_threads > 1) pool_storage.emplace(options.build_threads);
  server::ThreadPool* pool =
      pool_storage.has_value() ? &*pool_storage : nullptr;

  Stopwatch tables_timer;
  db.entries_.resize(predicate_count);
  std::vector<Status> errors(predicate_count);
  RunIndexed(pool, predicate_count, [&](size_t p) {
    PropertyEntry& entry = db.entries_[p];
    if (kept[p]) {
      const PropertyEntry& from = reuse->entries_[p];
      entry.table = from.table.Clone();
      for (const ReplicaKind kind : {ReplicaKind::kSO, ReplicaKind::kOS}) {
        const ReplicaMeta& src = from.meta(kind);
        ReplicaMeta& dst = entry.meta(kind);
        dst.has_index = src.has_index;
        if (src.has_index) {
          dst.id_index =
              src.id_index.universe() == max_id
                  ? src.id_index.Clone()
                  : index::IdPositionIndex::Build(
                        entry.table.replica(kind).keys(), max_id);
        }
        dst.window_binary = src.window_binary;
        dst.window_index = src.window_index;
        dst.threshold_binary = src.threshold_binary;
        dst.threshold_index = src.threshold_index;
      }
      return;
    }
    Result<PropertyTable> table =
        PropertyTable::FromSortedRuns(std::move(*runs[p]), max_id);
    runs[p].reset();
    if (!table.ok()) {
      errors[p] = table.status();
      return;
    }
    entry.table = std::move(table).value();
  });
  for (size_t p = 0; p < predicate_count; ++p) {
    if (!errors[p].ok()) {
      return Status::InvalidArgument("predicate " + std::to_string(p + 1) +
                                     ": " + errors[p].message());
    }
  }
  if (timings != nullptr) {
    timings->tables_millis = tables_timer.ElapsedMillis();
  }
  db.Finish(pool, kept, reuse, timings);
  return db;
}

void Database::Finish(server::ThreadPool* pool, const std::vector<bool>& kept,
                      const Database* reuse, BuildTimings* timings) {
  for (const PropertyEntry& entry : entries_) {
    total_triples_ += entry.table.triple_count();
  }

  // --- Replica metadata (ID index, default thresholds) -------------------
  Stopwatch meta_timer;
  const TermId max_id = dict_.resource_count();
  RunIndexed(pool, entries_.size() * 2, [&](size_t slot) {
    if (!kept.empty() && kept[slot / 2]) return;
    PropertyEntry& entry = entries_[slot / 2];
    const ReplicaKind kind =
        (slot % 2 == 0) ? ReplicaKind::kSO : ReplicaKind::kOS;
    InitReplicaMeta(entry.table.replica(kind), max_id, options_,
                    &entry.meta(kind));
  });
  if (timings != nullptr) timings->meta_millis = meta_timer.ElapsedMillis();

  // --- Derived statistics -----------------------------------------------
  Stopwatch pair_timer;
  ComputePairStats(options_.pairwise_max_columns, pool, kept, reuse);
  if (timings != nullptr) {
    timings->pair_stats_millis = pair_timer.ElapsedMillis();
  }
}

uint64_t Database::PairKey(PredicateId p1, Role role1, PredicateId p2,
                           Role role2) {
  uint64_t a = (static_cast<uint64_t>(p1) << 1) | static_cast<uint64_t>(role1);
  uint64_t b = (static_cast<uint64_t>(p2) << 1) | static_cast<uint64_t>(role2);
  if (a > b) std::swap(a, b);
  return (a << 32) | b;
}

void Database::ComputePairStats(size_t max_columns, server::ThreadPool* pool,
                                const std::vector<bool>& kept,
                                const Database* reuse) {
  const size_t columns = entries_.size() * 2;
  if (columns > max_columns) {
    PARJ_LOG(Info) << "skipping pairwise stats: " << columns
                   << " property columns exceed limit " << max_columns;
    return;
  }
  // Enumerate each unordered column pair once (column = (predicate, role)),
  // compute all intersections in parallel, then insert serially (the map
  // itself is not thread-safe; insertion is trivial next to the merges).
  struct ColumnPair {
    uint32_t col1;
    uint32_t col2;
  };
  auto key_of = [](const ColumnPair& pair) {
    return PairKey(static_cast<PredicateId>((pair.col1 >> 1) + 1),
                   static_cast<Role>(pair.col1 & 1),
                   static_cast<PredicateId>((pair.col2 >> 1) + 1),
                   static_cast<Role>(pair.col2 & 1));
  };
  // A pair whose two predicates were both kept from `reuse` holds the
  // same triples there, so its stat is copied, not re-intersected.
  const bool copy_kept =
      !kept.empty() && reuse != nullptr && reuse->has_pair_stats_;
  pair_stats_.reserve(columns * (columns + 1) / 2);
  std::vector<ColumnPair> pairs;
  pairs.reserve(columns * (columns + 1) / 2);
  for (uint32_t c1 = 0; c1 < columns; ++c1) {
    for (uint32_t c2 = c1; c2 < columns; ++c2) {
      const ColumnPair pair{c1, c2};
      if (copy_kept && kept[c1 >> 1] && kept[c2 >> 1]) {
        const auto it = reuse->pair_stats_.find(key_of(pair));
        if (it != reuse->pair_stats_.end()) {
          pair_stats_.emplace(it->first, it->second);
          continue;
        }
      }
      pairs.push_back(pair);
    }
  }
  std::vector<PairJoinStat> stats(pairs.size());
  RunIndexed(pool, pairs.size(), [&](size_t i) {
    const Role r1 = static_cast<Role>(pairs[i].col1 & 1);
    const Role r2 = static_cast<Role>(pairs[i].col2 & 1);
    const TableReplica& left =
        entries_[pairs[i].col1 >> 1].table.replica(ReplicaForKeyRole(r1));
    const TableReplica& right =
        entries_[pairs[i].col2 >> 1].table.replica(ReplicaForKeyRole(r2));
    stats[i] = IntersectColumns(left, right);
  });
  for (size_t i = 0; i < pairs.size(); ++i) {
    pair_stats_.emplace(key_of(pairs[i]), stats[i]);
  }
  has_pair_stats_ = true;
}

std::optional<PairJoinStat> Database::GetPairStat(PredicateId p1, Role role1,
                                                  PredicateId p2,
                                                  Role role2) const {
  if (!has_pair_stats_) return std::nullopt;
  auto it = pair_stats_.find(PairKey(p1, role1, p2, role2));
  if (it == pair_stats_.end()) return std::nullopt;
  PairJoinStat stat = it->second;
  // PairKey normalizes column order; flip the sums when the caller's
  // (p1, role1) is the bigger column.
  const uint64_t a =
      (static_cast<uint64_t>(p1) << 1) | static_cast<uint64_t>(role1);
  const uint64_t b =
      (static_cast<uint64_t>(p2) << 1) | static_cast<uint64_t>(role2);
  if (a > b) std::swap(stat.pairs_left, stat.pairs_right);
  return stat;
}

const PropertyEntry& Database::entry(PredicateId pid) const {
  PARJ_CHECK(pid != kInvalidPredicateId && pid <= entries_.size())
      << "predicate id out of range: " << pid;
  return entries_[pid - 1];
}

const PropertyEntry* Database::FindEntry(PredicateId pid) const {
  if (pid == kInvalidPredicateId || pid > entries_.size()) return nullptr;
  return &entries_[pid - 1];
}

void Database::Calibrate(const join::CalibrationOptions& options) {
  // Every (entry, replica) calibration is independent and writes only its
  // own ReplicaMeta, so the loop parallelizes directly.
  std::optional<server::ThreadPool> pool_storage;
  if (options.threads > 1) pool_storage.emplace(options.threads);
  server::ThreadPool* pool =
      pool_storage.has_value() ? &*pool_storage : nullptr;
  RunIndexed(pool, entries_.size() * 2, [&](size_t slot) {
    PropertyEntry& entry = entries_[slot / 2];
    const ReplicaKind kind =
        (slot % 2 == 0) ? ReplicaKind::kSO : ReplicaKind::kOS;
    const TableReplica& replica = entry.table.replica(kind);
    ReplicaMeta& meta = entry.meta(kind);
    if (replica.key_count() < 64) return;  // too small to measure
    const std::span<const TermId> keys = replica.keys();
    join::CalibrationResult binary = join::CalibrateWindow(
        keys, join::CalibrationMode::kVersusBinarySearch, nullptr, options);
    meta.window_binary = binary.window_positions;
    meta.threshold_binary = binary.threshold_value;
    if (meta.has_index) {
      join::CalibrationResult indexed = join::CalibrateWindow(
          keys, join::CalibrationMode::kVersusIndexLookup, &meta.id_index,
          options);
      meta.window_index = indexed.window_positions;
      meta.threshold_index = indexed.threshold_value;
    }
  });
}

size_t Database::TableMemoryUsage() const {
  size_t bytes = 0;
  for (const PropertyEntry& entry : entries_) {
    bytes += entry.table.MemoryUsage();
    bytes += entry.so_meta.id_index.MemoryUsage();
    bytes += entry.os_meta.id_index.MemoryUsage();
  }
  bytes += pair_stats_.size() * (sizeof(uint64_t) + sizeof(PairJoinStat) + 16);
  return bytes;
}

size_t Database::TableAllocatedUsage() const {
  size_t bytes = 0;
  for (const PropertyEntry& entry : entries_) {
    bytes += entry.table.AllocatedBytes();
    bytes += entry.so_meta.id_index.MemoryUsage();
    bytes += entry.os_meta.id_index.MemoryUsage();
  }
  bytes += pair_stats_.size() * (sizeof(uint64_t) + sizeof(PairJoinStat) + 16);
  return bytes;
}

}  // namespace parj::storage
