#include "storage/snapshot.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "engine/parj_engine.h"
#include "storage/compressed.h"
#include "test_util.h"
#include "workload/lubm.h"

namespace parj::storage {
namespace {

using test::MakeDatabase;
using test::Spec;

const Spec kData = {
    {"ProfessorA", "teaches", "Mathematics"},
    {"ProfessorA", "worksFor", "University1"},
    {"ProfessorB", "teaches", "Chemistry"},
};

uint32_t ReadU32At(const std::string& bytes, size_t at) {
  uint32_t v;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

/// Appends `n` raw bytes, as the snapshot writer lays them down.
void AppendBytes(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}
template <typename T>
void AppendValue(std::string* out, T v) {
  AppendBytes(out, &v, sizeof(v));
}
template <typename T>
void AppendVector(std::string* out, const std::vector<T>& v) {
  AppendBytes(out, v.data(), v.size() * sizeof(T));
}

/// A term table image as the dictionary section stores it.
struct TermImage {
  std::vector<uint64_t> offsets;
  std::string keys;
};

TermImage ImageOf(const std::vector<std::string>& keys) {
  TermImage image;
  image.offsets.push_back(0);
  for (const std::string& key : keys) {
    image.keys += key;
    image.offsets.push_back(image.keys.size());
  }
  return image;
}

std::vector<std::string> KeysOf(const TermImage& image) {
  std::vector<std::string> keys;
  for (size_t i = 1; i < image.offsets.size(); ++i) {
    keys.push_back(image.keys.substr(
        image.offsets[i - 1], image.offsets[i] - image.offsets[i - 1]));
  }
  return keys;
}

/// magic(8) version(4) flags(4) section id(4), then the dictionary payload.
constexpr size_t kDictionaryPayload = 20;

/// A snapshot's two term table images, and the offset of the dictionary
/// CRC word that follows them.
struct DictionarySection {
  TermImage resources;
  TermImage predicates;
  size_t crc_at = 0;
};

DictionarySection ParseDictionary(const std::string& bytes) {
  DictionarySection section;
  size_t pos = kDictionaryPayload;
  for (TermImage* image : {&section.resources, &section.predicates}) {
    const uint32_t count = ReadU32At(bytes, pos);
    pos += 4;
    image->offsets.resize(size_t{count} + 1);
    std::memcpy(image->offsets.data(), bytes.data() + pos,
                image->offsets.size() * sizeof(uint64_t));
    pos += image->offsets.size() * sizeof(uint64_t);
    uint64_t key_bytes;
    std::memcpy(&key_bytes, bytes.data() + pos, sizeof(key_bytes));
    pos += sizeof(key_bytes);
    image->keys = bytes.substr(pos, key_bytes);
    pos += key_bytes;
  }
  section.crc_at = pos;
  return section;
}

/// `bytes` with its dictionary section replaced by the two images and
/// every CRC recomputed, so only the images can be wrong. The term count
/// written is offsets.size() - 1 and the key byte count keys.size().
std::string WithDictionary(const std::string& bytes,
                           const TermImage& resources,
                           const TermImage& predicates) {
  std::string payload;
  for (const TermImage* image : {&resources, &predicates}) {
    AppendValue(&payload, static_cast<uint32_t>(image->offsets.size() - 1));
    AppendVector(&payload, image->offsets);
    AppendValue<uint64_t>(&payload, image->keys.size());
    payload += image->keys;
  }
  const size_t old_crc_at = ParseDictionary(bytes).crc_at;
  const uint32_t section_crcs[2] = {Crc32c(payload.data(), payload.size()),
                                    ReadU32At(bytes, bytes.size() - 16 - 4)};
  std::string out = bytes.substr(0, kDictionaryPayload) + payload;
  AppendValue(&out, section_crcs[0]);
  out += bytes.substr(old_crc_at + 4, bytes.size() - 4 - (old_crc_at + 4));
  AppendValue(&out, Crc32c(section_crcs, sizeof(section_crcs)));
  return out;
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());

  auto restored = ReadSnapshot(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->total_triples(), original.total_triples());
  EXPECT_EQ(restored->predicate_count(), original.predicate_count());
  EXPECT_EQ(restored->dictionary().resource_count(),
            original.dictionary().resource_count());
  // IDs and decoded terms are identical.
  for (TermId id = 1; id <= original.dictionary().resource_count(); ++id) {
    EXPECT_EQ(restored->dictionary().DecodeResource(id),
              original.dictionary().DecodeResource(id));
  }
  // Table contents are identical.
  for (PredicateId pid = 1; pid <= original.predicate_count(); ++pid) {
    const TableReplica& a = original.entry(pid).table.so();
    const TableReplica& b = restored->entry(pid).table.so();
    ASSERT_EQ(a.key_count(), b.key_count());
    for (size_t k = 0; k < a.key_count(); ++k) {
      EXPECT_EQ(a.KeyAt(k), b.KeyAt(k));
      ASSERT_EQ(a.RunLength(k), b.RunLength(k));
    }
  }
}

TEST(SnapshotTest, RoundTripPreservesLiteralKinds) {
  std::vector<rdf::Triple> triples = {
      {rdf::Term::Iri("s"), rdf::Term::Iri("p"), rdf::Term::Literal("plain")},
      {rdf::Term::Iri("s"), rdf::Term::Iri("p"),
       rdf::Term::LangLiteral("bonjour", "fr")},
      {rdf::Term::Iri("s"), rdf::Term::Iri("p"),
       rdf::Term::TypedLiteral("5", "http://dt")},
      {rdf::Term::Iri("s"), rdf::Term::Iri("p"),
       rdf::Term::Literal("esc \" \\ \n \r \t end")},
      {rdf::Term::Blank("b0"), rdf::Term::Iri("q"), rdf::Term::Iri("o")},
  };
  auto engine = engine::ParjEngine::FromTriples(triples);
  ASSERT_TRUE(engine.ok());
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(engine->database(), buffer).ok());
  auto restored = ReadSnapshot(buffer);
  ASSERT_TRUE(restored.ok());
  const auto& dict = restored->dictionary();
  EXPECT_NE(dict.LookupResource(rdf::Term::LangLiteral("bonjour", "fr")),
            kInvalidTermId);
  EXPECT_NE(dict.LookupResource(rdf::Term::TypedLiteral("5", "http://dt")),
            kInvalidTermId);
  EXPECT_NE(dict.LookupResource(rdf::Term::Blank("b0")), kInvalidTermId);
  EXPECT_NE(
      dict.LookupResource(rdf::Term::Literal("esc \" \\ \n \r \t end")),
      kInvalidTermId);
}

TEST(SnapshotTest, QueriesAgreeAfterRoundTrip) {
  workload::GeneratedData data =
      workload::GenerateLubm({.universities = 1, .seed = 9});
  auto engine = engine::ParjEngine::FromEncoded(std::move(data.dict),
                                                std::move(data.triples));
  ASSERT_TRUE(engine.ok());

  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(engine->database(), buffer).ok());
  auto restored_db = ReadSnapshot(buffer);
  ASSERT_TRUE(restored_db.ok());
  // Rebuild an engine around the restored database via a second snapshot
  // pass through FromEncoded-equivalent path: reuse Database directly.
  for (const auto& q : workload::LubmQueries()) {
    engine::QueryOptions opts;
    opts.mode = join::ResultMode::kCount;
    auto original = engine->Execute(q.sparql, opts);
    ASSERT_TRUE(original.ok());

    // Execute against the restored database with the lower-level API.
    auto ast = query::ParseQuery(q.sparql);
    ASSERT_TRUE(ast.ok());
    auto enc = query::EncodeQuery(*ast, *restored_db);
    ASSERT_TRUE(enc.ok());
    auto plan = query::Optimize(*enc, *restored_db);
    ASSERT_TRUE(plan.ok());
    join::Executor executor(&*restored_db);
    join::ExecOptions exec;
    exec.mode = join::ResultMode::kCount;
    auto restored = executor.Execute(*plan, exec);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored->row_count, original->row_count) << q.name;
  }
}

TEST(SnapshotTest, FileRoundTrip) {
  Database original = MakeDatabase(kData);
  const std::string path = ::testing::TempDir() + "/parj_snapshot_test.bin";
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  auto restored = LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->total_triples(), 3u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFile) {
  auto restored = LoadSnapshot("/nonexistent/snapshot.bin");
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kIoError);
}

TEST(SnapshotTest, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOTASNAP-and-some-more-bytes";
  EXPECT_EQ(ReadSnapshot(buffer).status().code(), StatusCode::kParseError);
}

TEST(SnapshotTest, RejectsTruncation) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  std::string bytes = buffer.str();
  // Chop the file at several points; every prefix must fail cleanly.
  for (size_t cut : {size_t{4}, size_t{12}, size_t{20}, bytes.size() / 2,
                     bytes.size() - 1}) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_FALSE(ReadSnapshot(truncated).ok()) << "cut at " << cut;
  }
}

TEST(SnapshotTest, RejectsFutureVersion) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  // Retired versions 1 and 2 are as unreadable as a future one.
  for (char version : {char{1}, char{2}, char{99}}) {
    std::string bytes = buffer.str();
    bytes[8] = version;  // low byte of the version field
    std::stringstream patched(bytes);
    EXPECT_EQ(ReadSnapshot(patched).status().code(), StatusCode::kUnsupported)
        << "version " << int{version};
  }
}

TEST(SnapshotTest, VerifyReportsSectionsAndCounts) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  auto info = VerifySnapshot(buffer);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kSnapshotVersion);
  EXPECT_EQ(info->triple_count, original.total_triples());
  EXPECT_EQ(info->resource_count, original.dictionary().resource_count());
  EXPECT_EQ(info->predicate_count, original.dictionary().predicate_count());
  EXPECT_EQ(info->sections_verified, 3u);  // dictionary, triples, trailer
  EXPECT_EQ(info->bytes, buffer.str().size());
}

TEST(SnapshotTest, CorruptDictionaryNamedInDataLoss) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  std::string bytes = buffer.str();
  // Flip a byte inside the first term's lexical text: structurally the
  // file still parses, so only the CRC can catch it.
  bytes[30] ^= 0x40;
  std::stringstream corrupted(bytes);
  Status status = ReadSnapshot(corrupted).status();
  ASSERT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("dictionary"), std::string::npos);
  EXPECT_NE(status.message().find("offset"), std::string::npos);
}

TEST(SnapshotTest, CorruptDataSectionNamedInDataLoss) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  std::string bytes = buffer.str();
  // The last 16 bytes are the trailer, 4 more the tables-section CRC;
  // flip a payload byte just before them.
  bytes[bytes.size() - 16 - 4 - 2] ^= 0x01;
  std::stringstream corrupted(bytes);
  Status status = VerifySnapshot(corrupted).status();
  ASSERT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("tables"), std::string::npos)
      << status.ToString();
}

// A key no writer emits — here a literal with an empty datatype — is
// rejected even when every CRC matches.
TEST(SnapshotTest, CrcValidMalformedTermIsParseError) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  const std::string bytes = buffer.str();
  const DictionarySection dict = ParseDictionary(bytes);
  // The re-encoder reproduces the writer byte for byte.
  ASSERT_EQ(WithDictionary(bytes, dict.resources, dict.predicates), bytes);

  std::vector<std::string> keys = KeysOf(dict.resources);
  ASSERT_EQ(keys.size(), original.dictionary().resource_count());
  keys[0] = "\"v\"^^<>";
  const std::string forged =
      WithDictionary(bytes, ImageOf(keys), dict.predicates);

  std::stringstream in(forged);
  Status status = ReadSnapshot(in).status();
  ASSERT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find("malformed key"), std::string::npos)
      << status.ToString();
  std::stringstream verify_in(forged);
  EXPECT_EQ(VerifySnapshot(verify_in).status().code(),
            StatusCode::kParseError);
}

// Every CRC matches, yet a term table image is not one a writer emits:
// both the load and the verifier fail with ParseError, never an abort.
TEST(SnapshotTest, CrcValidBadDictionaryImagesAreParseErrors) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  const std::string bytes = buffer.str();
  const DictionarySection dict = ParseDictionary(bytes);
  const std::vector<std::string> keys = KeysOf(dict.resources);
  ASSERT_GE(keys.size(), 3u);

  struct Case {
    std::string name;
    TermImage resources;
    TermImage predicates;
  };
  std::vector<Case> cases;
  const auto with_first_key = [&](const std::string& name,
                                  const std::string& key) {
    std::vector<std::string> bad = keys;
    bad[0] = key;
    cases.push_back({name, ImageOf(bad), dict.predicates});
  };
  with_first_key("empty key", "");
  with_first_key("IRI without a closing >", "<a");
  with_first_key("dangling backslash", "\"a\\");
  with_first_key("unknown escape", "\"a\\x\"");
  with_first_key("raw quote in a literal value", "\"a\"b\"");
  with_first_key("raw newline in a literal value", "\"a\nb\"");
  with_first_key("raw tab in a literal value", "\"a\tb\"");
  with_first_key("empty language tag", "\"v\"@");
  with_first_key("empty datatype", "\"v\"^^<>");
  with_first_key("blank node without a colon", "_b");
  with_first_key("unquoted literal", "v");
  with_first_key("duplicate key", keys[1]);
  {
    TermImage image = dict.resources;
    image.offsets[0] = 1;
    cases.push_back({"offsets not from 0", image, dict.predicates});
  }
  {
    TermImage image = dict.resources;
    std::swap(image.offsets[1], image.offsets[2]);
    cases.push_back({"falling offsets", image, dict.predicates});
  }
  {
    TermImage image = dict.resources;
    image.offsets.back() -= 1;
    cases.push_back({"last offset short of the keys", image,
                     dict.predicates});
  }
  {
    std::vector<std::string> predicates = KeysOf(dict.predicates);
    predicates[0] = "<a";
    cases.push_back({"malformed predicate", dict.resources,
                     ImageOf(predicates)});
  }

  for (const Case& c : cases) {
    const std::string forged =
        WithDictionary(bytes, c.resources, c.predicates);
    std::stringstream in(forged);
    const Status read = ReadSnapshot(in).status();
    EXPECT_EQ(read.code(), StatusCode::kParseError)
        << c.name << ": " << read.ToString();
    std::stringstream verify_in(forged);
    const Status verify = VerifySnapshot(verify_in).status();
    EXPECT_EQ(verify.code(), StatusCode::kParseError)
        << c.name << ": " << verify.ToString();
  }
}

TEST(SnapshotTest, TrailingGarbageRejected) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  std::string bytes = buffer.str() + "extra";
  std::stringstream padded(bytes);
  Status status = ReadSnapshot(padded).status();
  ASSERT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("trailing"), std::string::npos);
}

TEST(SnapshotTest, CorruptTrailerRejected) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  std::string bytes = buffer.str();
  bytes[bytes.size() - 1] ^= 0xFF;  // trailer's crc-of-crcs
  std::stringstream corrupted(bytes);
  EXPECT_EQ(VerifySnapshot(corrupted).status().code(),
            StatusCode::kDataLoss);
}

TEST(SnapshotTest, CrcMismatchCountsInGlobalStats) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  std::string bytes = buffer.str();
  bytes[30] ^= 0x40;
  const uint64_t before = GlobalSnapshotStats().crc_mismatches.load();
  std::stringstream corrupted(bytes);
  ASSERT_FALSE(ReadSnapshot(corrupted).ok());
  EXPECT_GT(GlobalSnapshotStats().crc_mismatches.load(), before);
}

TEST(SnapshotTest, ParallelLoadMatchesSerialByteForByte) {
  workload::GeneratedData data =
      workload::GenerateLubm({.universities = 1, .seed = 3});
  auto engine = engine::ParjEngine::FromEncoded(std::move(data.dict),
                                                std::move(data.triples));
  ASSERT_TRUE(engine.ok());
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(engine->database(), buffer).ok());
  const std::string bytes = buffer.str();

  auto rewrite = [](const Database& db) {
    std::stringstream out;
    PARJ_CHECK(WriteSnapshot(db, out).ok());
    return out.str();
  };
  // The one reader decodes serially; the store build behind it runs on
  // build_threads workers and must rebuild a byte-identical store.
  for (int threads : {2, 8}) {
    std::stringstream in(bytes);
    DatabaseOptions db_options;
    db_options.build_threads = threads;
    SnapshotLoadStats stats;
    auto parallel = ReadSnapshot(in, db_options, &stats);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(rewrite(*parallel), bytes) << threads << " threads";
    EXPECT_GE(stats.decode_millis, 0.0);
    EXPECT_GE(stats.build_millis, 0.0);
  }
}

TEST(SnapshotTest, SaveIsAtomicUnderRenameFault) {
  Database original = MakeDatabase(kData);
  const std::string path = ::testing::TempDir() + "/parj_atomic_test.bin";
  ASSERT_TRUE(SaveSnapshot(original, path).ok());

  // A failure at the rename step must leave the previous snapshot intact
  // and clean up the temporary.
  ASSERT_TRUE(failpoint::Arm("snapshot.save.rename", "io:1").ok());
  Status st = SaveSnapshot(original, path);
  failpoint::DisarmAll();
  ASSERT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  auto survivor = LoadSnapshot(path);
  EXPECT_TRUE(survivor.ok()) << survivor.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotTest, SaveWriteFaultLeavesNoFile) {
  Database original = MakeDatabase(kData);
  const std::string path = ::testing::TempDir() + "/parj_writefault_test.bin";
  std::remove(path.c_str());
  ASSERT_TRUE(failpoint::Arm("snapshot.write.triples", "io:1").ok());
  Status st = SaveSnapshot(original, path);
  failpoint::DisarmAll();
  ASSERT_FALSE(st.ok());
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

TEST(SnapshotTest, ReadFailpointsInjectCleanly) {
  Database original = MakeDatabase(kData);
  for (const char* point :
       {"snapshot.read.header", "snapshot.read.dictionary",
        "snapshot.read.triples", "snapshot.read.trailer"}) {
    std::stringstream buffer;
    ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
    ASSERT_TRUE(failpoint::Arm(point, "dataloss:1").ok());
    Status status = ReadSnapshot(buffer).status();
    failpoint::DisarmAll();
    ASSERT_EQ(status.code(), StatusCode::kDataLoss) << point;
    EXPECT_NE(status.message().find(point), std::string::npos);
  }
}

/// Peak resident set size of this process, in KiB.
long PeakRssKib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Byte offset of the first table's key count: past the dictionary
/// section's CRC, the tables id, triple count and table count.
size_t FirstTableOffset(const std::string& bytes) {
  return ParseDictionary(bytes).crc_at + 4 + 4 + 8 + 4;
}

// Section CRCs are checked only at section end, so a corrupt column
// header must not size an allocation before its bytes arrive.
TEST(SnapshotTest, CorruptColumnSizeDoesNotAllocateUpFront) {
  workload::GeneratedData data =
      workload::GenerateLubm({.universities = 1, .seed = 5});
  auto db = Database::Build(std::move(data.dict), std::move(data.triples));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(*db, buffer).ok());
  std::string bytes = buffer.str();

  // First table: u32 key count, u64 pair count, u32 min key, u32 max key,
  // then the key column's u32 size and u64 word count.
  const size_t table = FirstTableOffset(bytes);
  const uint32_t key_count = ReadU32At(bytes, table);
  ASSERT_GT(key_count, 0u);
  ASSERT_EQ(key_count, db->entry(1).table.so().key_count());
  const size_t column = table + 4 + 8 + 4 + 4;
  ASSERT_EQ(ReadU32At(bytes, column), key_count);

  // 2^28 keys in 2^21 blocks; the plausible maximum is 65 words per
  // block plus the guard word, about 1.09 GB of zero-filled words.
  const uint32_t size = uint32_t{1} << 28;
  const uint64_t word_count = (uint64_t{1} << 21) * 65 + 1;
  ASSERT_EQ(word_count, 136314881u);
  std::memcpy(bytes.data() + column, &size, sizeof(size));
  std::memcpy(bytes.data() + column + 4, &word_count, sizeof(word_count));
  bytes.resize(column + 4 + 8);

  const long before = PeakRssKib();
  std::stringstream read_in(bytes);
  EXPECT_FALSE(ReadSnapshot(read_in).ok());
  std::stringstream verify_in(bytes);
  EXPECT_FALSE(VerifySnapshot(verify_in).ok());
  EXPECT_LT(PeakRssKib() - before, 64 * 1024);
}

void AppendColumn(std::string* out, const PackedColumn& col) {
  AppendValue(out, col.size);
  AppendValue<uint64_t>(out, col.words.size());
  AppendVector(out, col.words);
  AppendVector(out, col.block_word);
  AppendVector(out, col.meta);
}

/// Appends one packed replica as the writer lays it down.
void AppendReplica(std::string* out, uint64_t pairs, TermId min_key,
                   TermId max_key, const PackedKeys& pk,
                   const PackedLengths& pl, const PackedValues& pv) {
  AppendValue(out, pk.col.size);
  AppendValue(out, pairs);
  AppendValue(out, min_key);
  AppendValue(out, max_key);
  AppendColumn(out, pk.col);
  AppendVector(out, pk.minima);
  AppendColumn(out, pl.col);
  AppendVector(out, pl.base);
  AppendVector(out, pl.min_len);
  AppendColumn(out, pv.col);
  AppendVector(out, pv.minima);
}

/// `bytes` with its tables section replaced by `table_count` replicas
/// (`replicas`, back to back) holding `triples` pairs, and every CRC
/// recomputed.
std::string WithTablesPayload(const std::string& bytes, uint64_t triples,
                              uint32_t table_count,
                              const std::string& replicas) {
  const size_t first_table = FirstTableOffset(bytes);
  const size_t dict_crc_at = first_table - 4 - 8 - 4 - 4;
  const size_t payload_at = first_table - 8 - 4;
  std::string payload;
  AppendValue(&payload, triples);
  AppendValue(&payload, table_count);
  payload += replicas;
  const uint32_t section_crcs[2] = {ReadU32At(bytes, dict_crc_at),
                                    Crc32c(payload.data(), payload.size())};
  std::string out = bytes.substr(0, payload_at) + payload;
  AppendValue(&out, section_crcs[1]);
  AppendValue<uint32_t>(&out, 0x524C5254u);  // trailer id "TRLR"
  AppendValue<uint64_t>(&out, 2);
  AppendValue(&out, Crc32c(section_crcs, sizeof(section_crcs)));
  return out;
}

/// Appends `so` packed by the snapshot's own block encoder, which
/// round-trips unsorted arrays too.
void AppendRuns(std::string* out, const SortedRuns& so) {
  if (so.keys.empty()) {
    AppendValue(out, uint32_t{0});
    AppendValue<uint64_t>(out, so.values.size());
    return;
  }
  AppendReplica(out, so.values.size(), so.keys.front(), so.keys.back(),
                PackKeys(so.keys), PackLengths(so.offsets),
                PackValues(so.values));
}

/// `bytes` with its tables section replaced by `tables` (one S-O replica
/// per predicate) and every CRC recomputed, so only the table contents
/// can be wrong.
std::string WithTables(const std::string& bytes,
                       const std::vector<SortedRuns>& tables) {
  std::string replicas;
  uint64_t triples = 0;
  for (const SortedRuns& so : tables) {
    AppendRuns(&replicas, so);
    triples += so.values.size();
  }
  return WithTablesPayload(bytes, triples,
                           static_cast<uint32_t>(tables.size()), replicas);
}

SortedRuns SubjectObjectRuns(const TableReplica& so) {
  return SortedRuns{{so.keys().begin(), so.keys().end()},
                    {so.offsets().begin(), so.offsets().end()},
                    {so.values().begin(), so.values().end()}};
}

// Every CRC matches, yet the tables break the S-O contract: the load must
// fail with a Status and never hand out a store. (VerifySnapshot checks
// integrity only and does not decode tables.)
TEST(SnapshotTest, CrcValidMalformedTableFailsToLoad) {
  const Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  const std::string bytes = buffer.str();
  std::vector<SortedRuns> tables;
  for (PredicateId pid = 1; pid <= original.predicate_count(); ++pid) {
    tables.push_back(SubjectObjectRuns(original.entry(pid).table.so()));
  }
  // The re-encoder reproduces the writer byte for byte.
  ASSERT_EQ(WithTables(bytes, tables), bytes);
  const TermId resources = original.dictionary().resource_count();

  std::vector<std::pair<std::string, std::vector<SortedRuns>>> cases;
  {
    std::vector<SortedRuns> unsorted_run = tables;
    unsorted_run[0] = SortedRuns{{1}, {0, 2}, {5, 2}};
    cases.emplace_back("unsorted run", std::move(unsorted_run));
  }
  {
    std::vector<SortedRuns> key_past_dictionary = tables;
    key_past_dictionary[1].keys.back() = resources + 1;
    cases.emplace_back("key past dictionary", std::move(key_past_dictionary));
  }
  {
    std::vector<SortedRuns> unsorted_keys = tables;
    unsorted_keys[0] = SortedRuns{{4, 1}, {0, 1, 2}, {2, 5}};
    cases.emplace_back("unsorted keys", std::move(unsorted_keys));
  }
  for (const auto& [name, malformed] : cases) {
    const std::string rewritten = WithTables(bytes, malformed);
    std::stringstream verify_in(rewritten);
    ASSERT_TRUE(VerifySnapshot(verify_in).ok()) << name;
    std::stringstream in(rewritten);
    Result<Database> loaded = ReadSnapshot(in);
    ASSERT_FALSE(loaded.ok()) << name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << name << ": " << loaded.status().ToString();
    DatabaseOptions parallel;
    parallel.build_threads = 3;
    std::stringstream parallel_in(rewritten);
    EXPECT_FALSE(ReadSnapshot(parallel_in, parallel).ok()) << name;
  }
}

// Keys strictly increase, so only a one-key block packs at width 0; a
// width-0 block of 128 keys costs 9 file bytes but decodes to 512 (and
// 1 KiB of offsets). A forged column of them is rejected before any
// decode, whether its CRC matches (ParseError) or not (DataLoss).
TEST(SnapshotTest, WidthZeroKeyColumnDoesNotDecode) {
  const Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  const std::string bytes = buffer.str();

  // 2^24 keys: 64 MiB of keys and 128 MiB of offsets if decoded, from
  // about 3.4 MB of width-0 blocks (every run empty, so no values).
  const uint32_t key_count = uint32_t{1} << 24;
  const size_t blocks = key_count / kPackBlock;
  PackedKeys pk;
  pk.col.size = key_count;
  pk.col.words.assign(1, 0);  // the guard word
  pk.col.block_word.assign(blocks, 0);
  pk.col.meta.assign(blocks, kPackDeltaFlag);  // width 0
  pk.minima.assign(blocks, 1);
  PackedLengths pl;
  pl.col = pk.col;
  pl.col.meta.assign(blocks, 0);
  pl.base.assign(blocks, 0);
  pl.min_len.assign(blocks, 0);
  std::string replicas;
  AppendReplica(&replicas, 0, 1, 1, pk, pl, PackValues({}));
  for (PredicateId pid = 2; pid <= original.predicate_count(); ++pid) {
    AppendRuns(&replicas, SubjectObjectRuns(original.entry(pid).table.so()));
  }
  uint64_t triples = 0;
  for (PredicateId pid = 2; pid <= original.predicate_count(); ++pid) {
    triples += original.entry(pid).table.so().pair_count();
  }
  const std::string forged = WithTablesPayload(
      bytes, triples, original.predicate_count(), replicas);
  std::string stale = forged;
  stale[stale.size() - 16 - 4] ^= 0x01;  // the tables CRC word

  const long before = PeakRssKib();
  std::stringstream read_in(forged);
  const Status read = ReadSnapshot(read_in).status();
  EXPECT_EQ(read.code(), StatusCode::kParseError) << read.ToString();
  EXPECT_NE(read.message().find("width 0"), std::string::npos)
      << read.ToString();
  std::stringstream verify_in(forged);
  EXPECT_EQ(VerifySnapshot(verify_in).status().code(),
            StatusCode::kParseError);
  std::stringstream stale_in(stale);
  EXPECT_EQ(ReadSnapshot(stale_in).status().code(), StatusCode::kDataLoss);
  EXPECT_LT(PeakRssKib() - before, 64 * 1024);
}

/// A graph with enough keys per predicate to span several packed blocks.
Spec MultiBlockSpec() {
  Spec spec;
  Rng rng(271828);
  for (int i = 0; i < 3000; ++i) {
    const int a = static_cast<int>(rng.Uniform(260));
    const int b = static_cast<int>(rng.Uniform(260));
    spec.push_back({"n" + std::to_string(a), "p0", "n" + std::to_string(b)});
  }
  for (int i = 0; i < 1500; ++i) {
    const int a = static_cast<int>(rng.Uniform(260));
    const int b = static_cast<int>(rng.Uniform(90));
    spec.push_back({"n" + std::to_string(a), "p1", "m" + std::to_string(b)});
  }
  for (int i = 0; i < 700; ++i) {
    const int a = static_cast<int>(rng.Uniform(90));
    const int b = static_cast<int>(rng.Uniform(40));
    spec.push_back({"m" + std::to_string(a), "p2", "k" + std::to_string(b)});
  }
  return spec;
}

TEST(CompressedSnapshot, V3Verifies) {
  Database db = MakeDatabase(MultiBlockSpec());
  std::stringstream v3;
  ASSERT_TRUE(WriteSnapshot(db, v3).ok());
  auto info = VerifySnapshot(v3);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_EQ(info->version, kSnapshotVersion);
  ASSERT_EQ(info->triple_count, db.total_triples());
  ASSERT_EQ(info->sections_verified, 3u);
}

TEST(CompressedSnapshot, CorruptPackedSectionIsDataLoss) {
  Database db = MakeDatabase(MultiBlockSpec());
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(db, buffer).ok());
  std::string bytes = buffer.str();
  // The tables section sits just before the 4-byte section CRC and the
  // trailer (4 + 8 + 4 bytes): flip a packed payload byte inside it.
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() - 40] ^= 0x20;
  std::stringstream corrupted(bytes);
  const Status read = ReadSnapshot(corrupted).status();
  ASSERT_EQ(read.code(), StatusCode::kDataLoss) << read.ToString();
  std::stringstream corrupted2(bytes);
  const Status verify = VerifySnapshot(corrupted2).status();
  ASSERT_EQ(verify.code(), StatusCode::kDataLoss) << verify.ToString();
}

}  // namespace
}  // namespace parj::storage
