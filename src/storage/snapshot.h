#ifndef PARJ_STORAGE_SNAPSHOT_H_
#define PARJ_STORAGE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/status.h"
#include "storage/database.h"

namespace parj::storage {

/// Binary snapshot persistence. The paper's prototype keeps its data in
/// SQLite tables and rebuilds the in-memory structures at start-up; this
/// module provides the equivalent native path: a snapshot stores the
/// dictionary and each predicate's S-O replica in a compact binary
/// format, and loading decodes those straight back into S-O arrays,
/// derives O-S by transpose and rebuilds indexes and statistics (which is
/// fast and keeps O-S and the metadata out of the format).
///
/// Format v4 (little-endian; the only version read or written):
///   magic "PARJSNAP"  u32 version=4  u32 flags
///   section { u32 section_id, payload..., u32 crc32c(payload) }:
///     id 1 "dictionary": the resource, then the predicate dict::TermTable,
///                        each as its image: u32 term_count,
///                        u64 offsets[term_count + 1], u64 key_bytes,
///                        the keys back to back (each term's canonical
///                        key, i.e. its N-Triples form)
///     id 3 "tables":     u64 triple_count, u32 table_count, then one
///                        packed SO replica per predicate (DESIGN.md §13
///                        block codec: key/length/value columns with
///                        their block directories)
///   trailer: u32 id 0x524C5254 ("TRLR" in a little-endian dump),
///            u64 section_count,
///            u32 crc32c(per-section CRC words), then EOF
///
/// Loading a term table is two bulk reads and one pass
/// (dict::TermTable::FromImage) that checks the offsets and that every
/// key is canonical and distinct, and builds the slot array at its final
/// size; no term is re-interned.
///
/// The tables section is written through the deterministic block encoder
/// (storage/compressed.h), so a store always produces the same bytes.
/// Loading decodes each table into its S-O arrays and hands them to
/// Database::FromSortedRuns, which validates them (sorted, in range, offsets
/// covering the values), derives O-S by a counting transpose and rebuilds
/// indexes and statistics under the caller's DatabaseOptions, including
/// its build_threads. Nothing is re-sorted.
///
/// Every section payload is covered by a CRC-32C record; the reader
/// verifies each section as it streams past and returns
/// StatusCode::kDataLoss naming the failing section and byte offset on
/// any mismatch, or trailing garbage. A dictionary or table that fails a
/// structural check is reported as StatusCode::kParseError only after its
/// section CRC has passed, so corruption reads as kDataLoss; tables are
/// decoded only then. Arrays are read in bounded chunks, so a corrupt
/// count allocates no more than the bytes present. Any other version word
/// (v3 included) is StatusCode::kUnsupported.

/// The on-disk format version.
inline constexpr uint32_t kSnapshotVersion = 4;

/// Per-phase wall-clock breakdown of one snapshot load.
struct SnapshotLoadStats {
  double decode_millis = 0.0;  ///< stream + CRC + dictionary + table decode
  /// Database::FromSortedRuns on the decoded S-O runs: validate and
  /// transpose each table, then replica metadata and pair stats.
  double build_millis = 0.0;
};

/// Summary of a verified snapshot (also returned by VerifySnapshot).
struct SnapshotInfo {
  uint32_t version = 0;
  uint32_t resource_count = 0;
  uint32_t predicate_count = 0;
  uint64_t triple_count = 0;
  /// CRC-verified sections (dictionary, tables, trailer).
  uint64_t sections_verified = 0;
  /// Total bytes consumed.
  uint64_t bytes = 0;
};

/// Process-wide snapshot I/O counters (all relaxed atomics), surfaced in
/// `parj_cli serve` metrics output next to the serving registry.
struct SnapshotStats {
  std::atomic<uint64_t> snapshots_written{0};
  std::atomic<uint64_t> snapshots_loaded{0};
  std::atomic<uint64_t> crc_sections_verified{0};
  std::atomic<uint64_t> crc_mismatches{0};
};
SnapshotStats& GlobalSnapshotStats();

/// Writes `db`'s dictionary and packed tables to `out`.
Status WriteSnapshot(const Database& db, std::ostream& out);

/// Convenience file wrapper. Writes to `<path>.tmp` and renames into
/// place only after a fully successful write + flush, so a crash or
/// failure mid-write never leaves a truncated snapshot at `path`.
Status SaveSnapshot(const Database& db, const std::string& path);

/// Reads a snapshot and rebuilds a Database with `options`. CRC or
/// structural failures return kDataLoss/kParseError/kIoError — never a
/// partially-populated database. `stats` (optional) receives phase
/// timings.
Result<Database> ReadSnapshot(std::istream& in,
                              const DatabaseOptions& options = {},
                              SnapshotLoadStats* stats = nullptr);

/// Convenience file wrapper.
Result<Database> LoadSnapshot(const std::string& path,
                              const DatabaseOptions& options = {},
                              SnapshotLoadStats* stats = nullptr);

/// Walks and CRC-verifies a snapshot without building the database (the
/// dictionary gets the load's checks and is dropped; tables are read and
/// checked, not decoded). Cheap enough to run against every snapshot an
/// operator is about to trust.
Result<SnapshotInfo> VerifySnapshot(std::istream& in);

/// Convenience file wrapper (the CLI's `verify-snapshot` command).
Result<SnapshotInfo> VerifySnapshotFile(const std::string& path);

}  // namespace parj::storage

#endif  // PARJ_STORAGE_SNAPSHOT_H_
