#include "mutable/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <utility>

#include "common/crc32c.h"
#include "common/durable_io.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/timer.h"

namespace parj::mut {
namespace {

namespace fs = std::filesystem;

constexpr char kSegmentMagic[8] = {'P', 'A', 'R', 'J', 'W', 'S', 'E', 'G'};
constexpr char kManifestMagic[8] = {'P', 'A', 'R', 'J', 'W', 'M', 'A', 'N'};
constexpr uint32_t kWalFormatVersion = 1;
constexpr size_t kSegmentHeaderBytes = 24;
constexpr size_t kFrameHeaderBytes = 8;  // u32 payload_len + u32 crc
constexpr uint8_t kRecordMutationBatch = 1;
/// Caps that bound any length field a corrupted file can present, so a
/// flipped length byte can never drive a multi-gigabyte allocation.
constexpr uint64_t kMaxPayloadBytes = 1ull << 30;
constexpr uint64_t kMaxStringBytes = 1ull << 28;
constexpr uint64_t kMaxMutationsPerRecord = 1ull << 27;

constexpr char kManifestName[] = "MANIFEST";

// ---- little-endian primitives (matches the snapshot format) ----

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Bounds-checked cursor over an untrusted byte range; every getter
/// returns false instead of reading past the end.
struct Cursor {
  const char* p;
  size_t remaining;

  bool U8(uint8_t* out) {
    if (remaining < 1) return false;
    *out = static_cast<uint8_t>(*p);
    ++p;
    --remaining;
    return true;
  }
  bool U32(uint32_t* out) {
    if (remaining < 4) return false;
    *out = GetU32(p);
    p += 4;
    remaining -= 4;
    return true;
  }
  bool U64(uint64_t* out) {
    if (remaining < 8) return false;
    *out = GetU64(p);
    p += 8;
    remaining -= 8;
    return true;
  }
  bool String(std::string* out) {
    uint32_t len;
    if (!U32(&len)) return false;
    if (len > kMaxStringBytes || len > remaining) return false;
    out->assign(p, len);
    p += len;
    remaining -= len;
    return true;
  }
};

std::string SegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08llu.seg",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string SnapshotFileName(uint64_t epoch) {
  return "snapshot-" + std::to_string(epoch) + ".parj";
}

std::string SegmentHeaderBytes(uint64_t seq) {
  std::string out;
  out.append(kSegmentMagic, sizeof(kSegmentMagic));
  PutU32(&out, kWalFormatVersion);
  PutU32(&out, 0);  // reserved
  PutU64(&out, seq);
  return out;
}

struct Manifest {
  uint64_t snapshot_epoch = 0;
  uint64_t first_segment = 0;
  std::string snapshot_file;
};

std::string EncodeManifest(const Manifest& m) {
  std::string out;
  out.append(kManifestMagic, sizeof(kManifestMagic));
  PutU32(&out, kWalFormatVersion);
  PutU64(&out, m.snapshot_epoch);
  PutU64(&out, m.first_segment);
  PutString(&out, m.snapshot_file);
  PutU32(&out, Crc32c(out.data() + sizeof(kManifestMagic),
                      out.size() - sizeof(kManifestMagic)));
  return out;
}

Result<Manifest> DecodeManifest(const std::string& bytes,
                                const std::string& path) {
  if (bytes.empty()) {
    return Status::DataLoss("WAL manifest '" + path + "' is empty");
  }
  if (bytes.size() < sizeof(kManifestMagic) + 4 ||
      std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::DataLoss("WAL manifest '" + path +
                            "' has a bad magic number");
  }
  const size_t body = bytes.size() - sizeof(kManifestMagic) - 4;
  const uint32_t stored = GetU32(bytes.data() + bytes.size() - 4);
  const uint32_t actual =
      Crc32c(bytes.data() + sizeof(kManifestMagic), body);
  if (stored != actual) {
    return Status::DataLoss("WAL manifest '" + path + "' failed its CRC");
  }
  Cursor cur{bytes.data() + sizeof(kManifestMagic), body};
  Manifest m;
  uint32_t version;
  if (!cur.U32(&version) || version != kWalFormatVersion) {
    return Status::DataLoss("WAL manifest '" + path +
                            "' has an unsupported version");
  }
  if (!cur.U64(&m.snapshot_epoch) || !cur.U64(&m.first_segment) ||
      !cur.String(&m.snapshot_file) || cur.remaining != 0 ||
      m.first_segment == 0 || m.snapshot_file.empty()) {
    return Status::DataLoss("WAL manifest '" + path + "' is malformed");
  }
  return m;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("read failure on '" + path + "'");
  return bytes;
}

void PutTerm(std::string* out, const rdf::Term& term) {
  PutU8(out, static_cast<uint8_t>(term.kind()));
  PutString(out, term.lexical());
  PutString(out, term.datatype());
  PutString(out, term.lang());
}

bool GetTerm(Cursor* cur, rdf::Term* out) {
  uint8_t kind;
  std::string lexical, datatype, lang;
  if (!cur->U8(&kind) || !cur->String(&lexical) || !cur->String(&datatype) ||
      !cur->String(&lang)) {
    return false;
  }
  // A term the writer never emits means the payload is corrupt despite a
  // matching CRC.
  Result<rdf::Term> term = rdf::Term::FromParts(
      kind, std::move(lexical), std::move(datatype), std::move(lang));
  if (!term.ok()) return false;
  *out = std::move(term).value();
  return true;
}

struct DecodedRecord {
  uint64_t sequence = 0;
  std::vector<Mutation> mutations;
};

Result<DecodedRecord> DecodeRecordPayload(const char* data, size_t size,
                                          const std::string& context) {
  Cursor cur{data, size};
  DecodedRecord record;
  uint8_t type;
  uint32_t count;
  if (!cur.U8(&type) || type != kRecordMutationBatch ||
      !cur.U64(&record.sequence) || !cur.U32(&count) ||
      count > kMaxMutationsPerRecord) {
    return Status::DataLoss("malformed WAL record header in " + context);
  }
  record.mutations.reserve(std::min<uint64_t>(count, cur.remaining));
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t flags;
    Mutation m;
    if (!cur.U8(&flags) || flags > 1 || !GetTerm(&cur, &m.triple.subject) ||
        !GetTerm(&cur, &m.triple.predicate) ||
        !GetTerm(&cur, &m.triple.object)) {
      return Status::DataLoss("malformed mutation " + std::to_string(i) +
                              " in " + context);
    }
    m.remove = flags != 0;
    record.mutations.push_back(std::move(m));
  }
  if (cur.remaining != 0) {
    return Status::DataLoss("trailing garbage after mutation batch in " +
                            context);
  }
  return record;
}

/// Lists `dir`'s wal-<seq>.seg files, sorted ascending by sequence.
Result<std::vector<std::pair<uint64_t, std::string>>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 9 || name.rfind("wal-", 0) != 0 ||
        name.substr(name.size() - 4) != ".seg") {
      continue;
    }
    const std::string digits = name.substr(4, name.size() - 8);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    segments.emplace_back(std::stoull(digits), entry.path().string());
  }
  if (ec) {
    return Status::IoError("cannot list WAL directory '" + dir +
                           "': " + ec.message());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

struct SegmentScan {
  uint64_t records = 0;
  uint64_t mutations = 0;
  uint64_t valid_bytes = 0;  ///< header + frames up to the first bad one
  uint64_t torn_bytes = 0;   ///< bytes past valid_bytes (last segment only)
};

/// Walks one segment's frames. Frame-level damage (short frame, absurd
/// length, CRC mismatch) in the last segment is a torn tail: scanning
/// stops and `torn_bytes` reports the unusable suffix. The same damage in
/// a non-last segment — or a payload that parses wrong despite a valid
/// CRC, anywhere — is corruption and returns kDataLoss naming the segment
/// file and byte offset.
Status ScanSegmentFile(
    const std::string& path, uint64_t expect_seq, bool is_last,
    const std::function<Status(DecodedRecord)>& sink, SegmentScan* out) {
  PARJ_ASSIGN_OR_RETURN(std::string data, ReadFileBytes(path));
  if (data.size() < kSegmentHeaderBytes) {
    if (is_last) {
      out->torn_bytes = data.size();
      return Status::OK();
    }
    return Status::DataLoss("WAL segment '" + path +
                            "' is shorter than its header");
  }
  if (std::memcmp(data.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return Status::DataLoss("WAL segment '" + path +
                            "' has a bad magic number");
  }
  const uint32_t version = GetU32(data.data() + 8);
  const uint64_t header_seq = GetU64(data.data() + 16);
  if (version != kWalFormatVersion) {
    return Status::DataLoss("WAL segment '" + path +
                            "' has an unsupported version");
  }
  if (header_seq != expect_seq) {
    // A copied or renamed segment file: the name says one sequence, the
    // header another. Replaying it would reorder history.
    return Status::DataLoss(
        "WAL segment '" + path + "' header claims sequence " +
        std::to_string(header_seq) + " but its file name implies " +
        std::to_string(expect_seq));
  }
  size_t off = kSegmentHeaderBytes;
  while (off < data.size()) {
    std::string reason;
    uint32_t len = 0;
    if (data.size() - off < kFrameHeaderBytes) {
      reason = "truncated frame header";
    } else {
      len = GetU32(data.data() + off);
      const uint32_t crc = GetU32(data.data() + off + 4);
      if (len > kMaxPayloadBytes ||
          len > data.size() - off - kFrameHeaderBytes) {
        reason = "frame length overruns the file";
      } else if (Crc32c(data.data() + off + kFrameHeaderBytes, len) != crc) {
        reason = "frame CRC mismatch";
      }
    }
    if (!reason.empty()) {
      if (is_last) {
        out->torn_bytes = data.size() - off;
        break;
      }
      return Status::DataLoss("WAL segment '" + path + "' offset " +
                              std::to_string(off) + ": " + reason);
    }
    const std::string context =
        "WAL segment '" + path + "' offset " + std::to_string(off);
    PARJ_ASSIGN_OR_RETURN(
        DecodedRecord record,
        DecodeRecordPayload(data.data() + off + kFrameHeaderBytes, len,
                            context));
    ++out->records;
    out->mutations += record.mutations.size();
    if (sink) PARJ_RETURN_NOT_OK(sink(std::move(record)));
    off += kFrameHeaderBytes + len;
  }
  out->valid_bytes = data.size() - out->torn_bytes;
  return Status::OK();
}

/// Rewrites the last segment so it ends exactly at its valid prefix. A
/// header-torn segment (crash during rotation) is reset to a bare header
/// rather than deleted, keeping the manifest's segment range contiguous.
Status RepairTornTail(const std::string& path, uint64_t seq,
                      const SegmentScan& scan) {
  if (scan.torn_bytes == 0) return Status::OK();
  if (scan.valid_bytes < kSegmentHeaderBytes) {
    const std::string header = SegmentHeaderBytes(seq);
    PARJ_RETURN_NOT_OK(io::WriteFileDurable(path, header));
    return Status::OK();
  }
  int fd;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path + "' to truncate its tail");
  }
  Status status;
  if (::ftruncate(fd, static_cast<off_t>(scan.valid_bytes)) != 0) {
    status = Status::IoError("cannot truncate '" + path + "'");
  }
  if (status.ok()) status = io::FsyncFd(fd, path);
  ::close(fd);
  return status;
}

}  // namespace

const char* WalSyncName(WalSync sync) {
  switch (sync) {
    case WalSync::kNone:
      return "none";
    case WalSync::kBatch:
      return "batch";
    case WalSync::kAlways:
      return "always";
  }
  return "unknown";
}

Result<WalSync> ParseWalSync(const std::string& name) {
  if (name == "none") return WalSync::kNone;
  if (name == "batch") return WalSync::kBatch;
  if (name == "always") return WalSync::kAlways;
  return Status::InvalidArgument("unknown WAL sync policy '" + name +
                                 "' (want none|batch|always)");
}

std::string EncodeWalRecord(std::span<const Mutation> mutations,
                            uint64_t sequence) {
  std::string payload;
  payload.reserve(16 + mutations.size() * 64);
  PutU8(&payload, kRecordMutationBatch);
  PutU64(&payload, sequence);
  PutU32(&payload, static_cast<uint32_t>(mutations.size()));
  for (const Mutation& m : mutations) {
    PutU8(&payload, m.remove ? 1 : 0);
    PutTerm(&payload, m.triple.subject);
    PutTerm(&payload, m.triple.predicate);
    PutTerm(&payload, m.triple.object);
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32c(payload.data(), payload.size()));
  frame.append(payload);
  return frame;
}

Wal::Wal(WalOptions options) : options_(std::move(options)) {}

Wal::~Wal() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (fd_ >= 0) ::close(fd_);
}

Status Wal::OpenSegment(uint64_t seq) {
  const std::string path = options_.dir + "/" + SegmentFileName(seq);
  int fd;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::IoError("cannot create WAL segment '" + path + "'");
  }
  const std::string header = SegmentHeaderBytes(seq);
  if (const auto torn = failpoint::ConsumeTorn("wal.rotate")) {
    const size_t k = std::min(*torn, header.size());
    (void)io::WriteFully(fd, header.data(), k, path);
    ::close(fd);
    return Status::IoError("torn segment header after " + std::to_string(k) +
                           " bytes (injected by failpoint 'wal.rotate')");
  }
  Status fp = failpoint::Check("wal.rotate");
  if (!fp.ok()) {
    ::close(fd);
    return fp;
  }
  Status status = io::WriteFully(fd, header.data(), header.size(), path);
  if (status.ok()) status = io::FsyncFd(fd, path);
  if (status.ok()) status = io::FsyncParentDir(path);
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  current_segment_ = seq;
  current_segment_bytes_ = kSegmentHeaderBytes;
  synced_since_last_write_ = true;
  return Status::OK();
}

Status Wal::SyncSegment() {
  if (synced_since_last_write_) return Status::OK();
  PARJ_RETURN_NOT_OK(io::FsyncFd(
      fd_, options_.dir + "/" + SegmentFileName(current_segment_)));
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  synced_since_last_write_ = true;
  return Status::OK();
}

Status Wal::Rotate() {
  PARJ_RETURN_NOT_OK(SyncSegment());
  PARJ_RETURN_NOT_OK(OpenSegment(current_segment_ + 1));
  rotations_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Wal::WriteRecord(const std::string& bytes) {
  const std::string path =
      options_.dir + "/" + SegmentFileName(current_segment_);
  // Torn interception must precede the generic evaluation: a torn-armed
  // point makes plain Check fail with IoError (for sites that can't
  // tear), which would shadow the partial write this site knows how to
  // simulate.
  if (const auto torn = failpoint::ConsumeTorn("wal.append")) {
    const size_t k = std::min(*torn, bytes.size());
    (void)io::WriteFully(fd_, bytes.data(), k, path);
    current_segment_bytes_ += k;
    synced_since_last_write_ = false;
    return Status::IoError("torn record after " + std::to_string(k) +
                           " bytes (injected by failpoint 'wal.append')");
  }
  Status fp = failpoint::Check("wal.append");
  if (!fp.ok()) return fp;
  if (current_segment_bytes_ > kSegmentHeaderBytes &&
      current_segment_bytes_ + bytes.size() > options_.segment_bytes) {
    PARJ_RETURN_NOT_OK(Rotate());
  }
  PARJ_RETURN_NOT_OK(io::WriteFully(fd_, bytes.data(), bytes.size(), path));
  current_segment_bytes_ += bytes.size();
  synced_since_last_write_ = false;
  records_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  return Status::OK();
}

void Wal::StartWriter() {
  writer_ = std::thread([this] { WriterLoop(); });
}

void Wal::WriterLoop() {
  for (;;) {
    std::deque<Item> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty() && stop_) return;
      batch.swap(queue_);
    }
    Stopwatch commit_timer;
    Status status;  // first failure; everything after it is skipped
    uint64_t last_written_lsn = 0;   // highest lsn written so far
    uint64_t last_durable_lsn = 0;   // highest lsn already synced (kAlways)
    uint64_t drained_bytes = 0;
    bool dirty = false;  // records written since the last fsync (kBatch)
    for (Item& item : batch) {
      drained_bytes += item.bytes.size();
      if (item.checkpoint) {
        // Everything before the checkpoint must be durable in the old
        // chain before the fresh segment becomes the manifest's first:
        // sync, rotate, re-log the compaction tail, sync again.
        Status ck = status;
        if (ck.ok()) ck = SyncSegment();
        if (ck.ok()) {
          if (dirty) last_durable_lsn = last_written_lsn;
          dirty = false;
          ck = Rotate();
        }
        if (ck.ok() && !item.bytes.empty()) ck = WriteRecord(item.bytes);
        if (ck.ok()) ck = SyncSegment();
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (ck.ok()) pending_first_segment_ = current_segment_;
          *item.done_status = ck;
          *item.done_flag = true;
        }
        durable_cv_.notify_all();
        if (!ck.ok() && status.ok()) status = ck;
        continue;
      }
      if (!status.ok()) continue;
      Status wr = WriteRecord(item.bytes);
      if (wr.ok()) {
        if (item.lsn != 0) last_written_lsn = item.lsn;
        switch (options_.sync) {
          case WalSync::kNone:
            last_durable_lsn = last_written_lsn;
            break;
          case WalSync::kAlways:
            wr = SyncSegment();
            if (wr.ok()) last_durable_lsn = last_written_lsn;
            break;
          case WalSync::kBatch:
            dirty = true;
            break;
        }
      }
      if (!wr.ok()) status = wr;
    }
    if (status.ok() && dirty) {
      // Group commit: one fsync makes every record of the drained batch
      // durable at once.
      Status sync = SyncSegment();
      if (sync.ok()) {
        last_durable_lsn = last_written_lsn;
        group_commits_.fetch_add(1, std::memory_order_relaxed);
        group_commit_micros_.fetch_add(
            static_cast<uint64_t>(commit_timer.ElapsedMicros()),
            std::memory_order_relaxed);
      } else {
        status = sync;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_bytes_ -= std::min(queue_bytes_, drained_bytes);
      if (last_durable_lsn > durable_lsn_) durable_lsn_ = last_durable_lsn;
      if (!status.ok() && writer_error_.ok()) {
        writer_error_ = status;
        PARJ_LOG(Warning) << "WAL writer failed (log is now read-only): "
                          << status.ToString();
      }
    }
    durable_cv_.notify_all();
    space_cv_.notify_all();
  }
}

Result<Wal::Ticket> Wal::Append(std::span<const Mutation> mutations,
                                uint64_t sequence) {
  std::string bytes = EncodeWalRecord(mutations, sequence);
  std::unique_lock<std::mutex> lock(mu_);
  if (!writer_error_.ok()) return writer_error_;
  if (queue_bytes_ + bytes.size() > options_.max_backlog_bytes) {
    backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
    space_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.backlog_timeout_millis),
        [&] {
          return !writer_error_.ok() ||
                 queue_bytes_ + bytes.size() <= options_.max_backlog_bytes;
        });
    if (!writer_error_.ok()) return writer_error_;
    if (queue_bytes_ + bytes.size() > options_.max_backlog_bytes) {
      return Status::ResourceExhausted(
          "WAL backlog of " + std::to_string(queue_bytes_) +
          " bytes did not drain within " +
          std::to_string(options_.backlog_timeout_millis) + " ms");
    }
  }
  const uint64_t lsn = ++next_lsn_;
  queue_bytes_ += bytes.size();
  queue_.push_back(Item{std::move(bytes), lsn, false, nullptr, nullptr});
  lock.unlock();
  work_cv_.notify_one();
  return Ticket{lsn};
}

Status Wal::WaitDurable(Ticket ticket) {
  if (ticket.lsn == 0) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  durable_cv_.wait(lock, [&] {
    return durable_lsn_ >= ticket.lsn || !writer_error_.ok();
  });
  if (durable_lsn_ >= ticket.lsn) return Status::OK();
  return writer_error_;
}

Status Wal::BeginCheckpoint(std::span<const Mutation> tail,
                            uint64_t sequence) {
  Status done_status;
  bool done_flag = false;
  Item item;
  if (!tail.empty()) item.bytes = EncodeWalRecord(tail, sequence);
  item.checkpoint = true;
  item.done_status = &done_status;
  item.done_flag = &done_flag;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!writer_error_.ok()) return writer_error_;
    queue_bytes_ += item.bytes.size();
    queue_.push_back(std::move(item));
    work_cv_.notify_one();
    durable_cv_.wait(lock, [&] { return done_flag; });
  }
  return done_status;
}

Status Wal::FinishCheckpoint(std::shared_ptr<const storage::Database> base,
                             uint64_t epoch) {
  auto finish = [&]() -> Status {
    // Torn interception must precede the generic evaluation: a torn-armed
    // point makes plain Check fail with IoError, which would shadow the
    // torn-manifest simulation at the write below.
    const std::optional<size_t> torn =
        failpoint::ConsumeTorn("compactor.checkpoint");
    if (!torn) {
      Status fp = failpoint::Check("compactor.checkpoint");
      if (!fp.ok()) return fp;
    }
    const std::string snapshot_file = SnapshotFileName(epoch);
    PARJ_RETURN_NOT_OK(
        storage::SaveSnapshot(*base, options_.dir + "/" + snapshot_file));
    Manifest manifest;
    manifest.snapshot_epoch = epoch;
    manifest.snapshot_file = snapshot_file;
    {
      std::lock_guard<std::mutex> lock(mu_);
      manifest.first_segment = pending_first_segment_;
    }
    const std::string bytes = EncodeManifest(manifest);
    const std::string manifest_path = options_.dir + "/" + kManifestName;
    if (torn) {
      // Tear the manifest's temporary: the rename never happens, so the
      // previous manifest must keep recovery correct.
      const size_t k = std::min(*torn, bytes.size());
      std::ofstream out(manifest_path + ".tmp",
                        std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(k));
      return Status::IoError(
          "torn manifest after " + std::to_string(k) +
          " bytes (injected by failpoint 'compactor.checkpoint')");
    }
    PARJ_RETURN_NOT_OK(io::WriteFileDurable(manifest_path, bytes));
    {
      std::lock_guard<std::mutex> lock(mu_);
      manifest_first_segment_ = manifest.first_segment;
    }
    // Prune segments and snapshots the new manifest no longer needs.
    // Best-effort: leftovers are ignored by recovery and re-pruned by the
    // next checkpoint.
    auto segments = ListSegments(options_.dir);
    if (segments.ok()) {
      for (const auto& [seq, path] : *segments) {
        if (seq < manifest.first_segment) ::unlink(path.c_str());
      }
    }
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("snapshot-", 0) == 0 && name != snapshot_file &&
          name.size() > 14 && name.substr(name.size() - 5) == ".parj") {
        ::unlink(entry.path().string().c_str());
      }
    }
    (void)io::FsyncParentDir(manifest_path);
    return Status::OK();
  };
  Status status = finish();
  if (status.ok()) {
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
  } else {
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

WalStats Wal::stats() const {
  WalStats stats;
  stats.records = records_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  stats.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  stats.group_commits = group_commits_.load(std::memory_order_relaxed);
  stats.group_commit_micros =
      group_commit_micros_.load(std::memory_order_relaxed);
  stats.rotations = rotations_.load(std::memory_order_relaxed);
  stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  stats.checkpoint_failures =
      checkpoint_failures_.load(std::memory_order_relaxed);
  stats.backpressure_waits =
      backpressure_waits_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  stats.backlog_bytes = queue_bytes_;
  const uint64_t current = current_segment_;
  if (current >= manifest_first_segment_ && manifest_first_segment_ > 0) {
    stats.segments = current - manifest_first_segment_ + 1;
  }
  return stats;
}

Result<std::unique_ptr<Wal>> Wal::Initialize(const storage::Database& base,
                                             uint64_t epoch,
                                             const WalOptions& options) {
  if (!options.enabled()) {
    return Status::InvalidArgument("WAL directory not set");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::IoError("cannot create WAL directory '" + options.dir +
                           "': " + ec.message());
  }
  const std::string manifest_path = options.dir + "/" + kManifestName;
  if (fs::exists(manifest_path)) {
    return Status::AlreadyExists("WAL directory '" + options.dir +
                                 "' already has a manifest; recover from it "
                                 "instead of initializing over it");
  }
  const std::string snapshot_file = SnapshotFileName(epoch);
  PARJ_RETURN_NOT_OK(
      storage::SaveSnapshot(base, options.dir + "/" + snapshot_file));
  std::unique_ptr<Wal> wal(new Wal(options));
  PARJ_RETURN_NOT_OK(wal->OpenSegment(1));
  Manifest manifest;
  manifest.snapshot_epoch = epoch;
  manifest.first_segment = 1;
  manifest.snapshot_file = snapshot_file;
  PARJ_RETURN_NOT_OK(
      io::WriteFileDurable(manifest_path, EncodeManifest(manifest)));
  wal->manifest_first_segment_ = 1;
  wal->pending_first_segment_ = 1;
  wal->StartWriter();
  return wal;
}

Result<std::unique_ptr<Wal>> Wal::Open(const WalOptions& options,
                                       uint64_t next_segment) {
  if (!options.enabled()) {
    return Status::InvalidArgument("WAL directory not set");
  }
  if (next_segment == 0) {
    return Status::InvalidArgument("WAL segment sequences start at 1");
  }
  std::unique_ptr<Wal> wal(new Wal(options));
  const std::string manifest_path = options.dir + "/" + kManifestName;
  PARJ_ASSIGN_OR_RETURN(std::string manifest_bytes,
                        ReadFileBytes(manifest_path));
  PARJ_ASSIGN_OR_RETURN(Manifest manifest,
                        DecodeManifest(manifest_bytes, manifest_path));
  PARJ_RETURN_NOT_OK(wal->OpenSegment(next_segment));
  wal->manifest_first_segment_ = manifest.first_segment;
  wal->pending_first_segment_ = manifest.first_segment;
  wal->StartWriter();
  return wal;
}

Result<Wal::Recovered> Wal::Recover(const WalOptions& options,
                                    const storage::DatabaseOptions& database) {
  if (!options.enabled()) {
    return Status::InvalidArgument("WAL directory not set");
  }
  const std::string manifest_path = options.dir + "/" + kManifestName;
  if (!fs::exists(manifest_path)) {
    // Distinguish "fresh directory" (NotFound: caller should Initialize)
    // from "WAL files with no manifest" (kDataLoss: history existed and
    // its control file is gone). One corner is provably fresh: a crash
    // inside Initialize, after segment 1 was created but before the
    // manifest landed, leaves a single record-free segment 1 — nothing
    // was ever acknowledged, so re-initializing is safe.
    auto segments = ListSegments(options.dir);
    if (segments.ok() && !segments->empty()) {
      if (segments->size() == 1 && segments->front().first == 1) {
        std::error_code ec;
        const auto size = fs::file_size(segments->front().second, ec);
        if (!ec && size <= kSegmentHeaderBytes) {
          return Status::NotFound("no WAL manifest in '" + options.dir +
                                  "' (interrupted initialization)");
        }
      }
      return Status::DataLoss("WAL directory '" + options.dir +
                              "' has segments but no manifest");
    }
    return Status::NotFound("no WAL manifest in '" + options.dir + "'");
  }
  PARJ_ASSIGN_OR_RETURN(std::string manifest_bytes,
                        ReadFileBytes(manifest_path));
  PARJ_ASSIGN_OR_RETURN(Manifest manifest,
                        DecodeManifest(manifest_bytes, manifest_path));

  RecoveryStats stats;
  stats.snapshot_epoch = manifest.snapshot_epoch;
  Stopwatch load_timer;
  PARJ_ASSIGN_OR_RETURN(
      storage::Database base,
      storage::LoadSnapshot(options.dir + "/" + manifest.snapshot_file,
                            database));
  stats.snapshot_load_millis = load_timer.ElapsedMillis();

  PARJ_ASSIGN_OR_RETURN(auto segments, ListSegments(options.dir));
  // Segments below the manifest's first are pruning leftovers from a
  // checkpoint that crashed before its unlinks; drop them now.
  std::vector<std::pair<uint64_t, std::string>> live;
  for (auto& [seq, path] : segments) {
    if (seq < manifest.first_segment) {
      ::unlink(path.c_str());
    } else {
      live.emplace_back(seq, std::move(path));
    }
  }
  if (live.empty() || live.front().first != manifest.first_segment) {
    return Status::DataLoss(
        "WAL manifest names segment " +
        std::to_string(manifest.first_segment) + " as first but '" +
        options.dir + "' does not contain it");
  }
  for (size_t i = 1; i < live.size(); ++i) {
    if (live[i].first != live[i - 1].first + 1) {
      return Status::DataLoss("WAL segment sequence gap between " +
                              std::to_string(live[i - 1].first) + " and " +
                              std::to_string(live[i].first) + " in '" +
                              options.dir + "'");
    }
  }

  Recovered recovered;
  recovered.base = std::move(base);
  recovered.epoch = manifest.snapshot_epoch;
  recovered.next_segment = live.back().first + 1;
  Stopwatch replay_timer;
  for (size_t i = 0; i < live.size(); ++i) {
    const bool is_last = i + 1 == live.size();
    SegmentScan scan;
    PARJ_RETURN_NOT_OK(ScanSegmentFile(
        live[i].second, live[i].first, is_last,
        [&](DecodedRecord record) -> Status {
          recovered.batches.push_back(std::move(record.mutations));
          return Status::OK();
        },
        &scan));
    ++stats.segments_scanned;
    stats.records_replayed += scan.records;
    stats.mutations_replayed += scan.mutations;
    if (is_last && scan.torn_bytes > 0) {
      stats.truncated_bytes = scan.torn_bytes;
      PARJ_RETURN_NOT_OK(
          RepairTornTail(live[i].second, live[i].first, scan));
      PARJ_LOG(Warning) << "WAL recovery truncated a torn tail of "
                        << scan.torn_bytes << " bytes from '"
                        << live[i].second << "'";
    }
  }
  stats.replay_millis = replay_timer.ElapsedMillis();
  recovered.stats = stats;
  return recovered;
}

Result<WalInfo> Wal::VerifyWal(const std::string& dir) {
  const std::string manifest_path = dir + "/" + kManifestName;
  if (!fs::exists(manifest_path)) {
    auto segments = ListSegments(dir);
    if (segments.ok() && !segments->empty()) {
      return Status::DataLoss("WAL directory '" + dir +
                              "' has segments but no manifest");
    }
    return Status::NotFound("no WAL manifest in '" + dir + "'");
  }
  PARJ_ASSIGN_OR_RETURN(std::string manifest_bytes,
                        ReadFileBytes(manifest_path));
  PARJ_ASSIGN_OR_RETURN(Manifest manifest,
                        DecodeManifest(manifest_bytes, manifest_path));
  WalInfo info;
  info.snapshot_epoch = manifest.snapshot_epoch;
  info.snapshot_file = manifest.snapshot_file;
  info.first_segment = manifest.first_segment;
  PARJ_RETURN_NOT_OK(
      storage::VerifySnapshotFile(dir + "/" + manifest.snapshot_file)
          .status());
  PARJ_ASSIGN_OR_RETURN(auto segments, ListSegments(dir));
  std::vector<std::pair<uint64_t, std::string>> live;
  for (auto& [seq, path] : segments) {
    if (seq >= manifest.first_segment) live.emplace_back(seq, path);
  }
  if (live.empty() || live.front().first != manifest.first_segment) {
    return Status::DataLoss(
        "WAL manifest names segment " +
        std::to_string(manifest.first_segment) + " as first but '" + dir +
        "' does not contain it");
  }
  for (size_t i = 1; i < live.size(); ++i) {
    if (live[i].first != live[i - 1].first + 1) {
      return Status::DataLoss("WAL segment sequence gap between " +
                              std::to_string(live[i - 1].first) + " and " +
                              std::to_string(live[i].first) + " in '" + dir +
                              "'");
    }
  }
  for (size_t i = 0; i < live.size(); ++i) {
    const bool is_last = i + 1 == live.size();
    SegmentScan scan;
    PARJ_RETURN_NOT_OK(
        ScanSegmentFile(live[i].second, live[i].first, is_last, nullptr,
                        &scan));
    ++info.segments;
    info.records += scan.records;
    info.mutations += scan.mutations;
    info.bytes += scan.valid_bytes + scan.torn_bytes;
    if (is_last) {
      info.last_segment = live[i].first;
      info.torn_tail_bytes = scan.torn_bytes;
    }
  }
  return info;
}

}  // namespace parj::mut
