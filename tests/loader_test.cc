// Bulk-load pipeline determinism (DESIGN.md §10): the chunked parallel
// parser and the engine-level parallel load must be indistinguishable from
// the serial path — same triples, same error lines, byte-identical stores
// — at every thread count and chunk size.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "engine/parj_engine.h"
#include "rdf/ntriples.h"
#include "server/thread_pool.h"
#include "storage/export.h"
#include "storage/snapshot.h"
#include "workload/lubm.h"

namespace parj::rdf {
namespace {

/// A document exercising every term shape, long and short lines, comments
/// and blank lines, so chunk boundaries land in interesting places.
std::string MakeDocument(int lines) {
  std::string text;
  for (int i = 0; i < lines; ++i) {
    const std::string n = std::to_string(i);
    switch (i % 5) {
      case 0:
        text += "<http://example.org/s" + n + "> <http://example.org/p> "
                "<http://example.org/o" + n + "> .\n";
        break;
      case 1:
        text += "_:b" + n + " <http://example.org/q> \"plain value " + n +
                "\" .\n";
        break;
      case 2:
        text += "<http://example.org/s" + n + "> <http://example.org/r> \"" +
                n + "\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
        break;
      case 3:
        text += "# comment line " + n + "\n";
        break;
      default:
        text += "<http://example.org/s" + n + "> <http://example.org/q> "
                "\"label " + n + "\"@en .\n";
        break;
    }
    if (i % 7 == 0) text += "\n";  // blank line
  }
  return text;
}

std::vector<Triple> Flatten(const std::vector<ParsedChunk>& chunks) {
  std::vector<Triple> out;
  for (const ParsedChunk& chunk : chunks) {
    out.insert(out.end(), chunk.triples.begin(), chunk.triples.end());
  }
  return out;
}

TEST(LoaderTest, ChunkedParseMatchesSerialAcrossChunkSizes) {
  const std::string text = MakeDocument(200);
  auto serial = NTriplesParser().ParseToVector(text);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  server::ThreadPool pool(4);
  for (size_t chunk_bytes : {size_t{1}, size_t{64}, size_t{256},
                             size_t{4096}, text.size() * 2}) {
    ParallelParseOptions options;
    options.chunk_bytes = chunk_bytes;
    options.pool = &pool;
    auto chunks = ParseTextParallel(text, options);
    ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
    EXPECT_EQ(Flatten(*chunks), *serial) << "chunk_bytes=" << chunk_bytes;

    // Chunks tile the input and the line accounting is consistent.
    size_t offset = 0;
    uint64_t line = 1;
    for (const ParsedChunk& chunk : *chunks) {
      EXPECT_EQ(chunk.begin_offset, offset);
      EXPECT_EQ(chunk.first_line, line);
      offset = chunk.end_offset;
      line += chunk.line_count;
    }
    EXPECT_EQ(offset, text.size());
  }
}

TEST(LoaderTest, ChunkedParseWithoutPoolIsIdentical) {
  const std::string text = MakeDocument(50);
  ParallelParseOptions small;
  small.chunk_bytes = 128;  // no pool: serial walk of the same chunking
  auto chunks = ParseTextParallel(text, small);
  ASSERT_TRUE(chunks.ok());
  auto serial = NTriplesParser().ParseToVector(text);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(Flatten(*chunks), *serial);
  EXPECT_GT(chunks->size(), 1u);
}

TEST(LoaderTest, EmptyInputYieldsZeroChunks) {
  auto chunks = ParseTextParallel("");
  ASSERT_TRUE(chunks.ok());
  EXPECT_TRUE(chunks->empty());
}

TEST(LoaderTest, MissingTrailingNewlineStillParses) {
  std::string text = "<s1> <p> <o1> .\n<s2> <p> <o2> .";  // no final '\n'
  ParallelParseOptions options;
  options.chunk_bytes = 8;
  auto chunks = ParseTextParallel(text, options);
  ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
  EXPECT_EQ(Flatten(*chunks).size(), 2u);
}

TEST(LoaderTest, StrictErrorMatchesSerialLineNumber) {
  std::string text = MakeDocument(40);
  text += "this is not a triple\n";
  const uint64_t bad_line =
      static_cast<uint64_t>(std::count(text.begin(), text.end(), '\n'));
  text += MakeDocument(10);  // more valid lines after the bad one

  NTriplesParser parser;
  Status serial = parser.ParseDocument(text, [](Triple) {});
  ASSERT_FALSE(serial.ok());

  server::ThreadPool pool(4);
  for (size_t chunk_bytes : {size_t{32}, size_t{1024}, text.size() * 2}) {
    ParallelParseOptions options;
    options.chunk_bytes = chunk_bytes;
    options.pool = &pool;
    Status parallel = ParseTextParallel(text, options).status();
    ASSERT_FALSE(parallel.ok()) << "chunk_bytes=" << chunk_bytes;
    // Identical message, including the real file line number.
    EXPECT_EQ(parallel.message(), serial.message());
    EXPECT_NE(parallel.message().find("line " + std::to_string(bad_line)),
              std::string::npos)
        << parallel.message();
  }
}

TEST(LoaderTest, NonStrictRecordsRealErrorLines) {
  // Malformed lines 2 and 5 of a 6-line document.
  const std::string text =
      "<s1> <p> <o1> .\n"
      "garbage one\n"
      "<s2> <p> <o2> .\n"
      "<s3> <p> <o3> .\n"
      "garbage two\n"
      "<s4> <p> <o4> .\n";
  ParallelParseOptions options;
  options.strict = false;
  options.chunk_bytes = 20;  // force several chunks
  auto chunks = ParseTextParallel(text, options);
  ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
  EXPECT_EQ(Flatten(*chunks).size(), 4u);

  uint64_t skipped = 0;
  std::vector<uint64_t> error_lines;
  for (const ParsedChunk& chunk : *chunks) {
    skipped += chunk.skipped_lines;
    for (const auto& error : chunk.errors) error_lines.push_back(error.line);
  }
  EXPECT_EQ(skipped, 2u);
  EXPECT_EQ(error_lines, (std::vector<uint64_t>{2, 5}));
}

TEST(LoaderTest, ParseFileParallelMatchesTextParse) {
  const std::string text = MakeDocument(60);
  const std::string path = ::testing::TempDir() + "/parj_loader_test.nt";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  ParallelParseOptions options;
  options.chunk_bytes = 512;
  double read_millis = -1.0;
  auto from_file = ParseFileParallel(path, options, &read_millis);
  std::remove(path.c_str());
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  auto from_text = ParseTextParallel(text, options);
  ASSERT_TRUE(from_text.ok());
  EXPECT_EQ(Flatten(*from_file), Flatten(*from_text));
  EXPECT_GE(read_millis, 0.0);
}

}  // namespace
}  // namespace parj::rdf

namespace parj::engine {
namespace {

std::string SnapshotBytes(const storage::Database& db) {
  std::ostringstream out;  // snapshot bytes pin IDs, order, spellings
  Status written = storage::WriteSnapshot(db, out);
  PARJ_CHECK(written.ok()) << written.ToString();
  return std::move(out).str();
}

std::string LubmText() {
  workload::GeneratedData data =
      workload::GenerateLubm({.universities = 1, .seed = 7});
  auto seed = ParjEngine::FromEncoded(std::move(data.dict),
                                      std::move(data.triples));
  PARJ_CHECK(seed.ok()) << seed.status().ToString();
  std::ostringstream nt;
  Status exported = storage::ExportNTriples(seed->database(), nt);
  PARJ_CHECK(exported.ok()) << exported.ToString();
  return std::move(nt).str();
}

TEST(LoaderTest, ParallelLoadIsByteIdenticalToSerial) {
  const std::string text = LubmText();
  auto serial = ParjEngine::FromNTriplesText(text);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::string reference = SnapshotBytes(serial->database());

  for (int threads : {2, 8}) {
    for (size_t chunk_bytes : {size_t{1} << 12, size_t{1} << 16,
                               text.size() * 2}) {
      EngineOptions options;
      options.load.threads = threads;
      options.load.chunk_bytes = chunk_bytes;
      auto parallel = ParjEngine::FromNTriplesText(text, options);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(SnapshotBytes(parallel->database()), reference)
          << threads << " threads, chunk_bytes=" << chunk_bytes;
      EXPECT_EQ(parallel->load_stats().threads, threads);
      EXPECT_GT(parallel->load_stats().chunks, 0u);
    }
  }
}

TEST(LoaderTest, ParallelLoadAnswersQueriesIdentically) {
  const std::string text = LubmText();
  auto serial = ParjEngine::FromNTriplesText(text);
  ASSERT_TRUE(serial.ok());
  EngineOptions options;
  options.load.threads = 4;
  options.load.chunk_bytes = size_t{1} << 14;
  auto parallel = ParjEngine::FromNTriplesText(text, options);
  ASSERT_TRUE(parallel.ok());

  for (const workload::NamedQuery& query : workload::LubmQueries()) {
    QueryOptions opts;
    opts.num_threads = 1;
    auto a = serial->Execute(query.sparql, opts);
    auto b = parallel->Execute(query.sparql, opts);
    ASSERT_TRUE(a.ok()) << query.name;
    ASSERT_TRUE(b.ok()) << query.name;
    EXPECT_EQ(a->row_count, b->row_count) << query.name;
    EXPECT_EQ(a->rows, b->rows) << query.name;
  }
}

TEST(LoaderTest, MidChunkParseErrorStrictAndLenient) {
  std::string text = LubmText();
  // Inject a malformed line roughly mid-file, at a line boundary.
  const size_t mid = text.find('\n', text.size() / 2);
  ASSERT_NE(mid, std::string::npos);
  text.insert(mid + 1, "broken line without a dot\n");

  EngineOptions strict;
  strict.load.threads = 4;
  strict.load.chunk_bytes = size_t{1} << 12;
  auto failed = ParjEngine::FromNTriplesText(text, strict);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kParseError);
  EXPECT_NE(failed.status().message().find("line "), std::string::npos);

  EngineOptions lenient = strict;
  lenient.load.strict = false;
  auto loaded = ParjEngine::FromNTriplesText(text, lenient);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->load_stats().skipped_lines, 1u);
}

TEST(LoaderTest, FromSnapshotFileParallelMatchesDirectLoad) {
  const std::string text = LubmText();
  auto original = ParjEngine::FromNTriplesText(text);
  ASSERT_TRUE(original.ok());
  const std::string path =
      ::testing::TempDir() + "/parj_loader_snapshot_test.bin";
  ASSERT_TRUE(storage::SaveSnapshot(original->database(), path).ok());

  EngineOptions options;
  options.load.threads = 4;
  auto restored = ParjEngine::FromSnapshotFile(path, options);
  std::remove(path.c_str());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SnapshotBytes(restored->database()),
            SnapshotBytes(original->database()));
  EXPECT_GT(restored->load_stats().total_millis, 0.0);
}

}  // namespace
}  // namespace parj::engine
