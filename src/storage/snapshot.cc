#include "storage/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <vector>

#include "common/crc32c.h"
#include "common/durable_io.h"
#include "common/failpoint.h"
#include "common/timer.h"
#include "dict/term_table.h"
#include "storage/compressed.h"

namespace parj::storage {

SnapshotStats& GlobalSnapshotStats() {
  static SnapshotStats* stats = new SnapshotStats();
  return *stats;
}

namespace {

constexpr char kMagic[8] = {'P', 'A', 'R', 'J', 'S', 'N', 'A', 'P'};

// Section ids. The trailer id spells "TRLR" so a hex dump of a healthy
// snapshot ends recognizably.
constexpr uint32_t kSectionDictionary = 1;
constexpr uint32_t kSectionTables = 3;
constexpr uint32_t kSectionTrailer = 0x524C5254u;  // "TRLR" in an LE dump

/// Streaming writer: every byte goes straight to the ostream; while a
/// section is open its payload bytes are folded into a running CRC-32C,
/// which EndSection appends (and records for the trailer).
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::ostream& out) : out_(out) {}

  void WriteBytes(const void* data, size_t n) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
    if (crc_active_) crc_ = Crc32cExtend(crc_, data, n);
  }
  void WriteU32(uint32_t v) {
    char buf[4];
    std::memcpy(buf, &v, 4);
    WriteBytes(buf, 4);
  }
  void WriteU64(uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    WriteBytes(buf, 8);
  }
  void BeginSection(uint32_t id) {
    WriteU32(id);  // header, not covered by the section CRC
    crc_ = 0;
    crc_active_ = true;
  }
  void EndSection() {
    crc_active_ = false;
    section_crcs_.push_back(crc_);
    WriteU32(crc_);
  }
  void WriteTrailer() {
    WriteU32(kSectionTrailer);
    WriteU64(section_crcs_.size());
    WriteU32(Crc32c(section_crcs_.data(),
                    section_crcs_.size() * sizeof(uint32_t)));
  }

  bool good() const { return static_cast<bool>(out_); }

 private:
  std::ostream& out_;
  uint32_t crc_ = 0;
  bool crc_active_ = false;
  std::vector<uint32_t> section_crcs_;
};

/// Bytes from the read position to the end of `in`, or 0 when the stream
/// cannot seek.
uint64_t StreamBytesLeft(std::istream& in) {
  const std::streamoff here = in.tellg();
  if (here < 0) return 0;
  const std::streamoff end = in.seekg(0, std::ios::end).tellg();
  in.clear();
  in.seekg(here);
  return end < here ? 0 : static_cast<uint64_t>(end - here);
}

/// Streaming reader mirror: tracks the byte offset (for error messages)
/// and folds bytes read while a section is open into a running CRC.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::istream& in)
      : in_(in), size_(StreamBytesLeft(in)) {}

  Status ReadBytes(void* buf, size_t n, const char* what) {
    if (n > 0 &&
        !in_.read(static_cast<char*>(buf), static_cast<std::streamsize>(n))) {
      return Status::IoError("truncated snapshot (" + std::string(what) +
                             ") at offset " + std::to_string(offset_));
    }
    offset_ += n;
    if (crc_active_) crc_ = Crc32cExtend(crc_, buf, n);
    return Status::OK();
  }
  Result<uint32_t> ReadU32(const char* what) {
    char buf[4];
    PARJ_RETURN_NOT_OK(ReadBytes(buf, 4, what));
    uint32_t v;
    std::memcpy(&v, buf, 4);
    return v;
  }
  Result<uint64_t> ReadU64(const char* what) {
    char buf[8];
    PARJ_RETURN_NOT_OK(ReadBytes(buf, 8, what));
    uint64_t v;
    std::memcpy(&v, buf, 8);
    return v;
  }

  void BeginCrc() {
    crc_ = 0;
    crc_active_ = true;
  }
  uint32_t EndCrc() {
    crc_active_ = false;
    return crc_;
  }

  /// Reads the stored section CRC (not folded into any CRC) and compares
  /// it to the computed payload CRC.
  Status VerifySectionCrc(const char* section, uint32_t computed) {
    const uint64_t payload_end = offset_;
    PARJ_ASSIGN_OR_RETURN(uint32_t stored, ReadU32("section CRC"));
    if (stored != computed) {
      GlobalSnapshotStats().crc_mismatches.fetch_add(
          1, std::memory_order_relaxed);
      char detail[64];
      std::snprintf(detail, sizeof(detail), " (stored %08x, computed %08x)",
                    stored, computed);
      return Status::DataLoss("snapshot section '" + std::string(section) +
                              "' CRC mismatch at offset " +
                              std::to_string(payload_end) + detail);
    }
    GlobalSnapshotStats().crc_sections_verified.fetch_add(
        1, std::memory_order_relaxed);
    return Status::OK();
  }

  bool AtEof() {
    return in_.peek() == std::istream::traits_type::eof();
  }
  uint64_t offset() const { return offset_; }
  /// Bytes the stream is known to hold past the read position; 0 when it
  /// cannot seek.
  uint64_t bytes_left() const { return size_ > offset_ ? size_ - offset_ : 0; }

 private:
  std::istream& in_;
  const uint64_t size_;  // stream bytes from where reading began
  uint64_t offset_ = 0;
  uint32_t crc_ = 0;
  bool crc_active_ = false;
};

// --- payload helpers ------------------------------------------------------

/// Writes one term table as its image: term count, the count + 1 key
/// offsets, then the key bytes (TermTable::FromImage's input).
void WriteTermImage(SnapshotWriter& writer, const dict::TermTable& table) {
  writer.WriteU32(table.size());
  writer.WriteBytes(table.offsets().data(), table.offsets().size_bytes());
  writer.WriteU64(table.key_bytes());
  writer.WriteBytes(table.arena().data(), table.arena().size());
}

/// Serializes one bit-packed column: logical size, payload word count,
/// payload words, then the per-block word offsets and meta bytes (their
/// counts derive from the size).
void WritePackedColumn(SnapshotWriter& writer, const PackedColumn& col) {
  writer.WriteU32(col.size);
  writer.WriteU64(col.words.size());
  writer.WriteBytes(col.words.data(), col.words.size() * sizeof(uint64_t));
  writer.WriteBytes(col.block_word.data(),
                    col.block_word.size() * sizeof(uint32_t));
  writer.WriteBytes(col.meta.data(), col.meta.size());
}

/// Reads `count` elements into `*out` (a vector or string), growing it one
/// bounded chunk at a time. Section CRCs are checked only at section end,
/// so a count from a corrupt or truncated file must not size an
/// allocation up front: memory follows the bytes actually present. When
/// the stream is known to hold them all, the array is sized exactly once.
template <typename Array>
Status ReadArray(SnapshotReader& reader, uint64_t count, Array* out,
                 const char* what) {
  using T = typename Array::value_type;
  constexpr size_t kChunk = (size_t{1} << 20) / sizeof(T);  // 1 MiB
  out->clear();
  if (count <= reader.bytes_left() / sizeof(T)) out->reserve(count);
  while (out->size() < count) {
    const size_t begin = out->size();
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(kChunk, count - begin));
    out->resize(begin + n);
    PARJ_RETURN_NOT_OK(
        reader.ReadBytes(out->data() + begin, n * sizeof(T), what));
  }
  return Status::OK();
}

/// Reads one packed column. Only an implausible word count fails here,
/// since it would decide how many bytes to read; the decode-safety checks
/// wait for CheckPackedColumn.
Status ReadPackedColumn(SnapshotReader& reader, PackedColumn* col,
                        const char* what) {
  PARJ_ASSIGN_OR_RETURN(col->size, reader.ReadU32(what));
  PARJ_ASSIGN_OR_RETURN(uint64_t word_count, reader.ReadU64(what));
  const size_t blocks =
      (static_cast<size_t>(col->size) + kPackBlock - 1) / kPackBlock;
  // Widest legal encoding: 32-bit fields, word-aligned blocks, one zero
  // guard word.
  const uint64_t max_words =
      static_cast<uint64_t>(blocks) * (kPackBlock * 32 / 64 + 1) + 1;
  if (word_count > max_words) {
    return Status::ParseError("snapshot packed column '" + std::string(what) +
                              "' has implausible word count " +
                              std::to_string(word_count));
  }
  PARJ_RETURN_NOT_OK(ReadArray(reader, static_cast<size_t>(word_count),
                               &col->words, what));
  PARJ_RETURN_NOT_OK(ReadArray(reader, blocks, &col->block_word, what));
  PARJ_RETURN_NOT_OK(ReadArray(reader, blocks, &col->meta, what));
  return Status::OK();
}

/// Decode safety of one packed column: every width must be <= 32 and
/// every block's payload must sit inside the word array, ahead of the
/// column's zero guard word (the format keeps it, though no decoder reads
/// it), so a decoder can never read out of bounds even on data that
/// defeats the CRC.
Status CheckPackedColumn(const PackedColumn& col, const char* what) {
  for (size_t b = 0; b < col.block_count(); ++b) {
    const unsigned width = col.meta[b] & kPackWidthMask;
    if (width > 32) {
      return Status::ParseError("snapshot packed column '" +
                                std::string(what) + "' block " +
                                std::to_string(b) + " has width " +
                                std::to_string(width));
    }
    const uint64_t needed =
        (static_cast<uint64_t>(col.BlockLen(b)) * width + 63) / 64;
    if (static_cast<uint64_t>(col.block_word[b]) + needed + 1 >
        col.words.size()) {
      return Status::ParseError("snapshot packed column '" +
                                std::string(what) + "' block " +
                                std::to_string(b) +
                                " payload exceeds word array");
    }
  }
  return Status::OK();
}

/// Serializes one replica through the deterministic block encoder: key
/// count, pair count, then (for a non-empty replica) the key range and
/// the packed keys, lengths and values.
void WritePackedReplica(SnapshotWriter& writer, const TableReplica& replica) {
  const std::span<const TermId> keys = replica.keys();
  writer.WriteU32(static_cast<uint32_t>(keys.size()));
  writer.WriteU64(replica.pair_count());
  if (keys.empty()) return;
  writer.WriteU32(keys.front());
  writer.WriteU32(keys.back());
  const PackedKeys pk = PackKeys(keys);
  WritePackedColumn(writer, pk.col);
  writer.WriteBytes(pk.minima.data(), pk.minima.size() * sizeof(TermId));
  const PackedLengths pl = PackLengths(replica.offsets());
  WritePackedColumn(writer, pl.col);
  writer.WriteBytes(pl.base.data(), pl.base.size() * sizeof(uint64_t));
  writer.WriteBytes(pl.min_len.data(), pl.min_len.size() * sizeof(uint32_t));
  const PackedValues pv = PackValues(replica.values());
  WritePackedColumn(writer, pv.col);
  writer.WriteBytes(pv.minima.data(), pv.minima.size() * sizeof(TermId));
}

/// One replica as the tables section stores it.
struct PackedReplica {
  uint32_t key_count = 0;
  uint64_t pair_count = 0;
  PackedKeys keys;
  PackedLengths lengths;
  PackedValues values;
};

/// Reads one packed replica. Only what decides how many bytes to read is
/// checked here; CheckPackedReplica does the rest.
Status ReadPackedReplica(SnapshotReader& reader, PackedReplica* r) {
  PARJ_ASSIGN_OR_RETURN(r->key_count, reader.ReadU32("table key count"));
  PARJ_ASSIGN_OR_RETURN(r->pair_count, reader.ReadU64("table pair count"));
  if (r->key_count == 0) return Status::OK();
  // The key range (min, max) is redundant with the key column.
  char key_range[8];
  PARJ_RETURN_NOT_OK(
      reader.ReadBytes(key_range, sizeof(key_range), "table key range"));

  PackedKeys& pk = r->keys;
  PARJ_RETURN_NOT_OK(ReadPackedColumn(reader, &pk.col, "keys"));
  PARJ_RETURN_NOT_OK(
      ReadArray(reader, pk.col.block_count(), &pk.minima, "key minima"));

  PackedLengths& pl = r->lengths;
  pl.total = r->pair_count;
  PARJ_RETURN_NOT_OK(ReadPackedColumn(reader, &pl.col, "lengths"));
  PARJ_RETURN_NOT_OK(
      ReadArray(reader, pl.col.block_count(), &pl.base, "length bases"));
  PARJ_RETURN_NOT_OK(ReadArray(reader, pl.col.block_count(), &pl.min_len,
                               "length minima"));

  PackedValues& pv = r->values;
  PARJ_RETURN_NOT_OK(ReadPackedColumn(reader, &pv.col, "values"));
  PARJ_RETURN_NOT_OK(
      ReadArray(reader, pv.col.block_count(), &pv.minima, "value minima"));
  return Status::OK();
}

/// Decode safety of one replica. Keys strictly increase, so every key
/// gap is at least 1 and only a one-key block packs at width 0: rejecting
/// wider width-0 key blocks keeps a few file bytes from decoding to an
/// arbitrarily large key array. The decoded arrays are not trusted
/// either: PropertyTable::FromSortedRuns validates them.
Status CheckPackedReplica(const PackedReplica& r, PredicateId pid) {
  const std::string table = "snapshot table for predicate " +
                            std::to_string(pid);
  if (r.key_count == 0) {
    if (r.pair_count == 0) return Status::OK();
    return Status::ParseError(table + " has pairs but no keys");
  }
  if (r.keys.col.size != r.key_count || r.lengths.col.size != r.key_count ||
      r.values.col.size != r.pair_count) {
    return Status::ParseError(table + " has mismatched column sizes");
  }
  PARJ_RETURN_NOT_OK(CheckPackedColumn(r.keys.col, "keys"));
  PARJ_RETURN_NOT_OK(CheckPackedColumn(r.lengths.col, "lengths"));
  PARJ_RETURN_NOT_OK(CheckPackedColumn(r.values.col, "values"));
  for (size_t b = 0; b < r.keys.col.block_count(); ++b) {
    if ((r.keys.col.meta[b] & kPackWidthMask) == 0 &&
        r.keys.col.BlockLen(b) > 1) {
      return Status::ParseError(table + " key block " + std::to_string(b) +
                                " packs " +
                                std::to_string(r.keys.col.BlockLen(b)) +
                                " keys at width 0");
    }
  }
  return Status::OK();
}

/// Decodes a checked replica straight into its S-O arrays.
SortedRuns DecodeReplica(const PackedReplica& r) {
  SortedRuns so;
  so.offsets.assign(1, 0);
  if (r.key_count == 0) return so;
  const size_t key_blocks = r.keys.col.block_count();
  so.keys.resize(r.key_count);
  for (size_t b = 0; b < key_blocks; ++b) {
    DecodeKeyBlock(r.keys, b, so.keys.data() + b * kPackBlock);
  }
  so.offsets.resize(static_cast<size_t>(r.key_count) + 1);
  for (size_t b = 0; b < key_blocks; ++b) {
    DecodeLengthBlock(r.lengths, b, so.offsets.data() + b * kPackBlock);
  }
  so.values.resize(static_cast<size_t>(r.pair_count));
  for (size_t b = 0; b < r.values.col.block_count(); ++b) {
    DecodeValueBlock(r.values, b, so.values.data() + b * kPackBlock);
  }
  return so;
}

/// One term table's image as the dictionary section stores it.
struct TermImage {
  std::vector<uint64_t> offsets;
  std::string bytes;
};

/// Reads one term table image; `*count` receives its term count.
Status ReadTermImage(SnapshotReader& reader, TermImage* image,
                     uint32_t* count) {
  PARJ_ASSIGN_OR_RETURN(*count, reader.ReadU32("term count"));
  PARJ_RETURN_NOT_OK(ReadArray(reader, uint64_t{*count} + 1, &image->offsets,
                               "term offsets"));
  PARJ_ASSIGN_OR_RETURN(uint64_t key_bytes, reader.ReadU64("key bytes"));
  return ReadArray(reader, key_bytes, &image->bytes, "term keys");
}

/// The term table of a CRC-checked image (TermTable::FromImage's checks).
Result<dict::TermTable> BuildTermTable(TermImage image, const char* what) {
  Result<dict::TermTable> table = dict::TermTable::FromImage(
      std::move(image.bytes), std::move(image.offsets));
  if (!table.ok()) {
    return Status::ParseError("snapshot " + std::string(what) + " " +
                              table.status().message());
  }
  return table;
}

/// Shared walker behind ReadSnapshot (build == true: keep the dictionary
/// and decode each table into its S-O runs) and VerifySnapshot (build ==
/// false: the dictionary is checked the same way and dropped; tables are
/// read and checked, not decoded).
Status ParseSnapshot(std::istream& in, bool build, dict::Dictionary* dict,
                     std::vector<std::optional<SortedRuns>>* runs,
                     SnapshotInfo* info) {
  SnapshotReader reader(in);
  char magic[sizeof(kMagic)];
  PARJ_RETURN_NOT_OK(reader.ReadBytes(magic, sizeof(magic), "magic"));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("not a PARJ snapshot (bad magic)");
  }
  PARJ_FAILPOINT("snapshot.read.header");
  PARJ_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32("version"));
  if (version != kSnapshotVersion) {
    return Status::Unsupported("snapshot version " + std::to_string(version) +
                               " (supported: " +
                               std::to_string(kSnapshotVersion) + ")");
  }
  info->version = version;
  PARJ_ASSIGN_OR_RETURN(uint32_t flags, reader.ReadU32("flags"));
  if (flags != 0) {
    return Status::Unsupported("snapshot uses unknown flags");
  }
  std::vector<uint32_t> section_crcs;
  // Reads a section header and starts the payload CRC.
  const auto begin_section = [&](uint32_t expected,
                                 const char* name) -> Status {
    PARJ_ASSIGN_OR_RETURN(uint32_t id, reader.ReadU32("section id"));
    if (id != expected) {
      return Status::DataLoss("snapshot " + std::string(name) +
                              " section has wrong id " + std::to_string(id) +
                              " at offset " +
                              std::to_string(reader.offset() - 4));
    }
    reader.BeginCrc();
    return Status::OK();
  };
  // Checks the stored payload CRC and records it for the trailer.
  const auto end_section = [&](const char* name) -> Status {
    const uint32_t computed = reader.EndCrc();
    PARJ_RETURN_NOT_OK(reader.VerifySectionCrc(name, computed));
    section_crcs.push_back(computed);
    ++info->sections_verified;
    return Status::OK();
  };

  // --- dictionary section -----------------------------------------------
  PARJ_FAILPOINT("snapshot.read.dictionary");
  PARJ_RETURN_NOT_OK(begin_section(kSectionDictionary, "dictionary"));
  TermImage resources;
  TermImage predicates;
  PARJ_RETURN_NOT_OK(
      ReadTermImage(reader, &resources, &info->resource_count));
  PARJ_RETURN_NOT_OK(
      ReadTermImage(reader, &predicates, &info->predicate_count));
  PARJ_RETURN_NOT_OK(end_section("dictionary"));
  {
    PARJ_ASSIGN_OR_RETURN(dict::TermTable resource_table,
                          BuildTermTable(std::move(resources), "resource"));
    PARJ_ASSIGN_OR_RETURN(dict::TermTable predicate_table,
                          BuildTermTable(std::move(predicates), "predicate"));
    if (build) {
      *dict = dict::Dictionary(std::move(resource_table),
                               std::move(predicate_table));
    }
  }

  // --- tables section ---------------------------------------------------
  PARJ_FAILPOINT("snapshot.read.triples");
  PARJ_RETURN_NOT_OK(begin_section(kSectionTables, "tables"));
  PARJ_ASSIGN_OR_RETURN(uint64_t triple_count, reader.ReadU64("triple count"));
  info->triple_count = triple_count;
  PARJ_ASSIGN_OR_RETURN(uint32_t table_count, reader.ReadU32("table count"));
  if (table_count != info->predicate_count) {
    return Status::DataLoss("snapshot has " + std::to_string(table_count) +
                            " tables for " +
                            std::to_string(info->predicate_count) +
                            " predicates");
  }
  // Tables decode only once the section CRC has passed: a corrupt column
  // size never sizes a decoded array. A structural error is kept (the
  // first one) and reported after the CRC, so a flipped bit reads as
  // DataLoss.
  std::vector<PackedReplica> packed(table_count);
  Status structural = Status::OK();
  uint64_t pairs = 0;
  for (uint32_t p = 0; p < table_count; ++p) {
    PackedReplica& replica = packed[p];
    PARJ_RETURN_NOT_OK(ReadPackedReplica(reader, &replica));
    pairs += replica.pair_count;
    if (structural.ok()) {
      structural =
          CheckPackedReplica(replica, static_cast<PredicateId>(p + 1));
    }
  }
  if (pairs != triple_count) {
    return Status::DataLoss("snapshot tables hold " + std::to_string(pairs) +
                            " triples, header says " +
                            std::to_string(triple_count));
  }
  PARJ_RETURN_NOT_OK(end_section("tables"));
  PARJ_RETURN_NOT_OK(structural);
  if (build) {
    runs->resize(table_count);
    for (uint32_t p = 0; p < table_count; ++p) {
      (*runs)[p] = DecodeReplica(packed[p]);
      packed[p] = PackedReplica();
    }
  }

  // --- trailer ----------------------------------------------------------
  PARJ_FAILPOINT("snapshot.read.trailer");
  PARJ_ASSIGN_OR_RETURN(uint32_t trailer_id, reader.ReadU32("trailer id"));
  if (trailer_id != kSectionTrailer) {
    return Status::DataLoss("snapshot trailer has wrong id " +
                            std::to_string(trailer_id) + " at offset " +
                            std::to_string(reader.offset() - 4));
  }
  PARJ_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64("trailer count"));
  if (count != section_crcs.size()) {
    return Status::DataLoss("snapshot trailer records " +
                            std::to_string(count) + " sections, expected " +
                            std::to_string(section_crcs.size()));
  }
  PARJ_ASSIGN_OR_RETURN(uint32_t stored, reader.ReadU32("trailer CRC"));
  const uint32_t computed =
      Crc32c(section_crcs.data(), section_crcs.size() * sizeof(uint32_t));
  if (stored != computed) {
    GlobalSnapshotStats().crc_mismatches.fetch_add(1,
                                                   std::memory_order_relaxed);
    return Status::DataLoss("snapshot section 'trailer' CRC mismatch at "
                            "offset " + std::to_string(reader.offset() - 4));
  }
  GlobalSnapshotStats().crc_sections_verified.fetch_add(
      1, std::memory_order_relaxed);
  ++info->sections_verified;
  if (!reader.AtEof()) {
    return Status::DataLoss("snapshot has trailing bytes after trailer at "
                            "offset " + std::to_string(reader.offset()));
  }
  info->bytes = reader.offset();
  return Status::OK();
}

}  // namespace

Status WriteSnapshot(const Database& db, std::ostream& out) {
  SnapshotWriter writer(out);
  writer.WriteBytes(kMagic, sizeof(kMagic));
  writer.WriteU32(kSnapshotVersion);
  writer.WriteU32(0);  // flags, reserved

  writer.BeginSection(kSectionDictionary);
  WriteTermImage(writer, db.dictionary().resources());
  WriteTermImage(writer, db.dictionary().predicates());
  writer.EndSection();

  PARJ_FAILPOINT("snapshot.write.triples");
  // Each predicate's SO replica through the deterministic block encoder.
  writer.BeginSection(kSectionTables);
  writer.WriteU64(db.total_triples());
  writer.WriteU32(static_cast<uint32_t>(db.predicate_count()));
  for (PredicateId pid = 1; pid <= db.predicate_count(); ++pid) {
    WritePackedReplica(writer, db.entry(pid).table.so());
  }
  writer.EndSection();
  writer.WriteTrailer();
  if (!writer.good()) {
    return Status::IoError("write failure while saving snapshot");
  }
  GlobalSnapshotStats().snapshots_written.fetch_add(1,
                                                    std::memory_order_relaxed);
  return Status::OK();
}

Status SaveSnapshot(const Database& db, const std::string& path) {
  // Write-then-fsync-then-rename-then-fsync(dir): the snapshot
  // materializes at `path` only complete and durable; any failure
  // (including injected ones) leaves whatever was previously at `path`
  // untouched and removes the temporary. An ofstream flush alone only
  // moves bytes into the page cache — without the fsync of the temporary
  // a crash after rename could expose a *named* but empty snapshot, and
  // without the directory fsync the rename itself can be forgotten.
  const std::string tmp = path + ".tmp";
  {
    Status open_fp = failpoint::Check("snapshot.save.open");
    if (!open_fp.ok()) return open_fp;
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp + " for writing");
    Status written = WriteSnapshot(db, out);
    if (written.ok()) {
      out.flush();
      if (!out) written = Status::IoError("flush failure while saving " + tmp);
    }
    if (!written.ok()) {
      out.close();
      std::remove(tmp.c_str());
      return written;
    }
  }
  Status synced = io::FsyncFile(tmp);
  if (!synced.ok()) {
    std::remove(tmp.c_str());
    return synced;
  }
  Status rename_fp = failpoint::Check("snapshot.save.rename");
  if (!rename_fp.ok()) {
    std::remove(tmp.c_str());
    return rename_fp;
  }
  Status renamed = io::RenameDurable(tmp, path);
  if (!renamed.ok()) {
    std::remove(tmp.c_str());
    return renamed;
  }
  return Status::OK();
}

Result<Database> ReadSnapshot(std::istream& in, const DatabaseOptions& options,
                              SnapshotLoadStats* stats) {
  dict::Dictionary dict;
  std::vector<std::optional<SortedRuns>> runs;
  SnapshotInfo info;
  Stopwatch decode_timer;
  PARJ_RETURN_NOT_OK(ParseSnapshot(in, /*build=*/true, &dict, &runs, &info));
  if (stats != nullptr) stats->decode_millis = decode_timer.ElapsedMillis();
  GlobalSnapshotStats().snapshots_loaded.fetch_add(1,
                                                   std::memory_order_relaxed);
  Stopwatch build_timer;
  Result<Database> built =
      Database::FromSortedRuns(std::move(dict), std::move(runs), options);
  if (stats != nullptr) stats->build_millis = build_timer.ElapsedMillis();
  if (!built.ok()) {
    // The CRCs passed, so the writer produced a malformed table.
    return Status::ParseError("snapshot " + built.status().message());
  }
  return built;
}

Result<Database> LoadSnapshot(const std::string& path,
                              const DatabaseOptions& options,
                              SnapshotLoadStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  return ReadSnapshot(in, options, stats);
}

Result<SnapshotInfo> VerifySnapshot(std::istream& in) {
  SnapshotInfo info;
  PARJ_RETURN_NOT_OK(ParseSnapshot(in, /*build=*/false, nullptr, nullptr,
                                   &info));
  return info;
}

Result<SnapshotInfo> VerifySnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  return VerifySnapshot(in);
}

}  // namespace parj::storage
