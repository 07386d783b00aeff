// Bulk-load pipeline determinism (DESIGN.md §10): the fused text load
// (scan and encode straight from N-Triples text, per chunk, on the load
// pool) must be indistinguishable from parsing the whole document with
// NTriplesParser and loading the triples through FromTriples — a
// reference that never touches the fused scanner — at every thread count
// and chunk size: byte-identical stores, identical error lines, identical
// strict/lenient behaviour.

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
#include "storage/export.h"
#include "storage/snapshot.h"
#include "workload/lubm.h"

namespace parj::engine {
namespace {

std::string SnapshotBytes(const storage::Database& db) {
  std::ostringstream out;  // snapshot bytes pin IDs, order, spellings
  Status written = storage::WriteSnapshot(db, out);
  PARJ_CHECK(written.ok()) << written.ToString();
  return std::move(out).str();
}

/// The independent reference: a whole-document parse into rdf::Triples,
/// then the triple loader. Also reports the parser's skipped lines.
std::string ReferenceSnapshot(std::string_view text, bool strict = true,
                              uint64_t* skipped_lines = nullptr) {
  rdf::NTriplesParser parser(rdf::NTriplesParser::Options{.strict = strict});
  auto triples = parser.ParseToVector(text);
  PARJ_CHECK(triples.ok()) << triples.status().ToString();
  if (skipped_lines != nullptr) *skipped_lines = parser.skipped_lines();
  auto engine = ParjEngine::FromTriples(*triples);
  PARJ_CHECK(engine.ok()) << engine.status().ToString();
  return SnapshotBytes(engine->database());
}

EngineOptions TextLoad(int threads, size_t chunk_bytes, bool strict = true) {
  EngineOptions options;
  options.load.threads = threads;
  options.load.chunk_bytes = chunk_bytes;
  options.load.strict = strict;
  return options;
}

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

/// Every spelling the fused scanner must key exactly as the parsed Term
/// would: escapes, a raw tab, non-ASCII, tags, datatypes, blank nodes
/// (one ending right at the dot), comments, blank lines and CRLF. The
/// block repeats, so at small chunk sizes each term recurs in many
/// chunks; there is no final newline.
std::string EscapeCorpus() {
  const std::string block =
      "# escapes and spellings\n"
      "<http://ex/s1> <http://ex/says> \"she said \\\"hi\\\"\" .\n"
      "<http://ex/s1> <http://ex/path> \"C:\\\\dir\\\\file\" .\n"
      "<http://ex/s2> <http://ex/text> \"two\\nlines\" .\n"
      "<http://ex/s2> <http://ex/text> \"escaped\\ttab\" .\n"
      "<http://ex/s2> <http://ex/text> \"raw\ttab\" .\n"
      "<http://ex/s3> <http://ex/name> \"café\"@fr .\n"
      "<http://ex/s3> <http://ex/name> \"café\" .\n"
      "<http://ex/s3> <http://ex/name> \"cafe\"@en-GB.\n"
      "\n"
      "<http://ex/s4> <http://ex/age> \"42\"^^<http://www.w3.org/2001/"
      "XMLSchema#integer> .\n"
      "<http://ex/s4> <http://ex/age> \"42\" .\n"
      "_:b1 <http://ex/knows> _:b2.\n"
      "_:b2 <http://ex/knows> _:b.1 .\n"
      "  \t<http://ex/s5> <http://ex/link> <http://ex/s1> .  \r\n"
      "<http://ex/s5>\t<http://ex/text>\t\"crlf line\" .\r\n"
      "\r\n";
  std::string text;
  for (int i = 0; i < 6; ++i) {
    text += block;
    text += "<http://ex/round" + std::to_string(i) +
            "> <http://ex/text> \"two\\nlines\" .\n";
  }
  text += "<http://ex/last> <http://ex/says> \"no final newline\\\"\" .";
  return text;
}

TEST(LoaderTest, FusedTextLoadMatchesParsedReference) {
  for (const std::string& text : {EscapeCorpus(), MakeDocument(120)}) {
    const std::string reference = ReferenceSnapshot(text);
    for (int threads : {1, 4}) {
      for (size_t chunk_bytes :
           {size_t{1}, size_t{7}, size_t{64}, LoadOptions{}.chunk_bytes}) {
        auto loaded =
            ParjEngine::FromNTriplesText(text, TextLoad(threads, chunk_bytes));
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        EXPECT_EQ(SnapshotBytes(loaded->database()), reference)
            << threads << " threads, chunk_bytes=" << chunk_bytes;
      }
    }
  }
}

TEST(LoaderTest, FusedLenientLoadMatchesParsedReference) {
  // Malformed lines among valid ones, including two the scanner must
  // reject exactly as the parser does: a bad escape and a literal subject.
  std::string text = EscapeCorpus();
  text.insert(text.find('\n', text.size() / 3) + 1,
              "\"lit\" <http://ex/p> <http://ex/o> .\n");
  text += "\nnot a triple\n<http://ex/s9> <http://ex/p> \"bad \\q\" .\n";
  uint64_t reference_skipped = 0;
  const std::string reference =
      ReferenceSnapshot(text, /*strict=*/false, &reference_skipped);
  ASSERT_EQ(reference_skipped, 3u);
  for (int threads : {1, 4}) {
    for (size_t chunk_bytes : {size_t{1}, size_t{7}, size_t{64}}) {
      auto loaded = ParjEngine::FromNTriplesText(
          text, TextLoad(threads, chunk_bytes, /*strict=*/false));
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(loaded->load_stats().skipped_lines, reference_skipped);
      EXPECT_EQ(SnapshotBytes(loaded->database()), reference)
          << threads << " threads, chunk_bytes=" << chunk_bytes;
    }
  }
}

TEST(LoaderTest, ChunkedParseMatchesSerialAcrossChunkSizes) {
  const std::string text = MakeDocument(200);
  const std::string reference = ReferenceSnapshot(text);
  for (size_t chunk_bytes : {size_t{1}, size_t{64}, size_t{256},
                             size_t{4096}, text.size() * 2}) {
    auto loaded = ParjEngine::FromNTriplesText(text, TextLoad(4, chunk_bytes));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(SnapshotBytes(loaded->database()), reference)
        << "chunk_bytes=" << chunk_bytes;
    // The chunks tile the input at line boundaries.
    const std::vector<std::string_view> chunks =
        rdf::SplitNewlineChunks(text, chunk_bytes);
    EXPECT_EQ(loaded->load_stats().chunks, chunks.size());
    size_t offset = 0;
    for (std::string_view chunk : chunks) {
      EXPECT_EQ(chunk.data(), text.data() + offset);
      EXPECT_EQ(chunk.back(), '\n');
      offset += chunk.size();
    }
    EXPECT_EQ(offset, text.size());
  }
}

TEST(LoaderTest, ChunkedParseWithoutPoolIsIdentical) {
  const std::string text = MakeDocument(50);
  // One thread: no pool, a serial walk of the same chunking.
  auto loaded = ParjEngine::FromNTriplesText(text, TextLoad(1, 128));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SnapshotBytes(loaded->database()), ReferenceSnapshot(text));
  EXPECT_GT(loaded->load_stats().chunks, 1u);
}

TEST(LoaderTest, EmptyInputYieldsZeroChunks) {
  auto loaded = ParjEngine::FromNTriplesText("");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->load_stats().chunks, 0u);
  EXPECT_EQ(loaded->load_stats().triples, 0u);
}

TEST(LoaderTest, MissingTrailingNewlineStillParses) {
  const std::string text =
      "<s1> <p> <o1> .\n<s2> <p> <o2> .";  // no final '\n'
  auto loaded = ParjEngine::FromNTriplesText(text, TextLoad(1, 8));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->load_stats().triples, 2u);
  EXPECT_EQ(loaded->load_stats().chunks, 2u);
}

TEST(LoaderTest, StrictErrorMatchesSerialLineNumber) {
  std::string text = MakeDocument(40);
  text += "this is not a triple\n";
  const uint64_t bad_line =
      static_cast<uint64_t>(std::count(text.begin(), text.end(), '\n'));
  text += MakeDocument(10);      // more valid lines after the bad one
  text += "another bad line\n";  // a later error must not win

  rdf::NTriplesParser parser;
  Status serial = parser.ParseDocument(text, [](rdf::Triple) {});
  ASSERT_FALSE(serial.ok());

  for (int threads : {1, 4}) {
    for (size_t chunk_bytes :
         {size_t{1}, size_t{32}, size_t{1024}, text.size() * 2}) {
      Status fused =
          ParjEngine::FromNTriplesText(text, TextLoad(threads, chunk_bytes))
              .status();
      ASSERT_FALSE(fused.ok()) << "chunk_bytes=" << chunk_bytes;
      // Identical message, including the real file line number.
      EXPECT_EQ(fused, serial);
      EXPECT_NE(fused.message().find("line " + std::to_string(bad_line)),
                std::string::npos)
          << fused.message();
    }
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
  // Small chunks put each malformed line in a later chunk than line 1.
  auto loaded = ParjEngine::FromNTriplesText(text, TextLoad(4, 20, false));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(loaded->load_stats().chunks, 2u);
  EXPECT_EQ(loaded->load_stats().triples, 4u);
  EXPECT_EQ(loaded->load_stats().skipped_lines, 2u);
  EXPECT_EQ(loaded->load_stats().first_skipped_line, 2u);

  // With line 2 repaired, the first skipped line is the real line 5.
  std::string repaired = text;
  repaired.replace(repaired.find("garbage one"), 11, "<s9> <p> <o9> .");
  auto later = ParjEngine::FromNTriplesText(repaired, TextLoad(4, 20, false));
  ASSERT_TRUE(later.ok()) << later.status().ToString();
  EXPECT_EQ(later->load_stats().skipped_lines, 1u);
  EXPECT_EQ(later->load_stats().first_skipped_line, 5u);
  const Status strict =
      ParjEngine::FromNTriplesText(repaired, TextLoad(4, 20)).status();
  EXPECT_EQ(strict.message(),
            "line 5: unexpected character 'g' at start of term");
}

TEST(LoaderTest, FileLoadMatchesTextLoad) {
  const std::string text = EscapeCorpus();
  const std::string path = ::testing::TempDir() + "/parj_loader_test.nt";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  auto from_file = ParjEngine::FromNTriplesFile(path, TextLoad(4, 512));
  std::remove(path.c_str());
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  EXPECT_EQ(SnapshotBytes(from_file->database()), ReferenceSnapshot(text));
  EXPECT_GE(from_file->load_stats().read_millis, 0.0);
  EXPECT_GT(from_file->load_stats().chunks, 1u);
  EXPECT_EQ(ParjEngine::FromNTriplesFile(path).status().code(),
            StatusCode::kIoError);
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
  EXPECT_EQ(reference, ReferenceSnapshot(text));

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
