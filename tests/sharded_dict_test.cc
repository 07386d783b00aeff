// Sharded dictionary encoding (dict/sharded_encoder.h): chunk-local
// provisional IDs merged in chunk order must reproduce the serial
// first-occurrence encoding exactly, for any chunking and thread count.

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dict/sharded_encoder.h"
#include "engine/parj_engine.h"
#include "rdf/ntriples.h"
#include "server/thread_pool.h"
#include "storage/export.h"
#include "workload/lubm.h"

namespace parj::dict {
namespace {

using rdf::Term;
using rdf::Triple;

/// A delta table's keys in ID order.
std::vector<std::string> Keys(const TermTable& table) {
  std::vector<std::string> keys;
  for (uint32_t id = 1; id <= table.size(); ++id) {
    keys.emplace_back(table.Key(id));
  }
  return keys;
}

/// Triples with heavy term overlap across the input, so most chunks see a
/// mix of base hits, chunk-local repeats, and cross-chunk duplicates.
std::vector<Triple> MakeTriples(int count) {
  std::vector<Triple> triples;
  for (int i = 0; i < count; ++i) {
    triples.push_back(Triple{
        Term::Iri("http://example.org/s" + std::to_string(i % 17)),
        Term::Iri("http://example.org/p" + std::to_string(i % 5)),
        (i % 3 == 0)
            ? Term::Literal("value " + std::to_string(i % 11))
            : Term::Iri("http://example.org/o" + std::to_string(i % 23))});
  }
  return triples;
}

/// Serial reference: one dictionary, first-occurrence order.
std::pair<Dictionary, std::vector<EncodedTriple>> SerialEncode(
    const std::vector<Triple>& triples) {
  Dictionary dict;
  std::vector<EncodedTriple> encoded;
  encoded.reserve(triples.size());
  for (const Triple& t : triples) encoded.push_back(dict.Encode(t));
  return {std::move(dict), std::move(encoded)};
}

std::vector<std::span<const Triple>> Chunk(const std::vector<Triple>& triples,
                                           size_t chunk_size) {
  std::vector<std::span<const Triple>> chunks;
  for (size_t i = 0; i < triples.size(); i += chunk_size) {
    chunks.emplace_back(triples.data() + i,
                        std::min(chunk_size, triples.size() - i));
  }
  return chunks;
}

void ExpectSameDictionary(const Dictionary& a, const Dictionary& b) {
  ASSERT_EQ(a.resource_count(), b.resource_count());
  ASSERT_EQ(a.predicate_count(), b.predicate_count());
  for (TermId id = 1; id <= a.resource_count(); ++id) {
    EXPECT_EQ(a.DecodeResource(id), b.DecodeResource(id)) << "resource " << id;
  }
  for (PredicateId id = 1; id <= a.predicate_count(); ++id) {
    EXPECT_EQ(a.DecodePredicate(id), b.DecodePredicate(id))
        << "predicate " << id;
  }
}

bool operator_eq(const EncodedTriple& x, const EncodedTriple& y) {
  return x.subject == y.subject && x.predicate == y.predicate &&
         x.object == y.object;
}

void ExpectSameTriples(const std::vector<EncodedTriple>& a,
                       const std::vector<EncodedTriple>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(operator_eq(a[i], b[i]))
        << "triple " << i << ": (" << a[i].subject << "," << a[i].predicate
        << "," << a[i].object << ") vs (" << b[i].subject << ","
        << b[i].predicate << "," << b[i].object << ")";
  }
}

TEST(ShardedDictTest, MergeReproducesSerialOrderForAnyChunking) {
  const std::vector<Triple> triples = MakeTriples(400);
  auto [serial_dict, serial_encoded] = SerialEncode(triples);

  for (size_t chunk_size : {size_t{1}, size_t{7}, size_t{64}, size_t{1000}}) {
    Dictionary base;
    std::vector<EncodedChunk> encoded;
    for (std::span<const Triple> chunk : Chunk(triples, chunk_size)) {
      encoded.push_back(EncodeChunk(base, chunk));
    }
    auto merged = MergeEncodedChunks(&base, std::move(encoded));
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ExpectSameDictionary(base, serial_dict);
    ExpectSameTriples(*merged, serial_encoded);
  }
}

TEST(ShardedDictTest, BaseHitsAreFinalAndAllocateNoDeltas) {
  Dictionary base;
  const Triple known{Term::Iri("s"), Term::Iri("p"), Term::Iri("o")};
  base.Encode(known);

  EncodedChunk chunk = EncodeChunk(base, std::span<const Triple>(&known, 1));
  ASSERT_EQ(chunk.triples.size(), 1u);
  EXPECT_TRUE(chunk.delta_resources.empty());
  EXPECT_TRUE(chunk.delta_predicates.empty());
  // All IDs final (no provisional tag) and equal to the base's.
  EXPECT_EQ(chunk.triples[0].subject, base.LookupResource(Term::Iri("s")));
  EXPECT_EQ(chunk.triples[0].predicate, base.LookupPredicate(Term::Iri("p")));
  EXPECT_EQ(chunk.triples[0].object, base.LookupResource(Term::Iri("o")));
  EXPECT_EQ(chunk.triples[0].subject & kDeltaTag, 0u);
}

TEST(ShardedDictTest, UnknownTermsGetTaggedProvisionalIds) {
  Dictionary base;
  const std::vector<Triple> triples = {
      {Term::Iri("a"), Term::Iri("p"), Term::Iri("b")},
      {Term::Iri("b"), Term::Iri("p"), Term::Iri("a")},
  };
  EncodedChunk chunk =
      EncodeChunk(base, std::span<const Triple>(triples.data(), 2));
  // Delta lists hold first occurrences in (s, p, o) scan order.
  ASSERT_EQ(chunk.delta_resources.size(), 2u);
  EXPECT_EQ(chunk.delta_resources.Decode(1), Term::Iri("a"));
  EXPECT_EQ(chunk.delta_resources.Decode(2), Term::Iri("b"));
  ASSERT_EQ(chunk.delta_predicates.size(), 1u);
  // Every ID is provisional: kDeltaTag | (delta table ID - 1).
  EXPECT_EQ(chunk.triples[0].subject, kDeltaTag | 0u);
  EXPECT_EQ(chunk.triples[0].object, kDeltaTag | 1u);
  EXPECT_EQ(chunk.triples[1].subject, kDeltaTag | 1u);
  EXPECT_EQ(chunk.triples[1].object, kDeltaTag | 0u);
  EXPECT_EQ(chunk.triples[0].predicate, kDeltaTag | 0u);
  // The chunk did not touch the frozen base.
  EXPECT_EQ(base.resource_count(), 0u);
}

TEST(ShardedDictTest, CrossChunkDuplicatesKeepFirstChunkId) {
  // "shared" first appears in chunk 0; chunk 1 re-introduces it in its own
  // delta. The merged ID must be chunk 0's (first occurrence overall).
  const std::vector<Triple> triples = {
      {Term::Iri("shared"), Term::Iri("p"), Term::Iri("x")},
      {Term::Iri("y"), Term::Iri("p"), Term::Iri("shared")},
  };
  auto [serial_dict, serial_encoded] = SerialEncode(triples);

  Dictionary base;
  std::vector<EncodedChunk> encoded;
  encoded.push_back(
      EncodeChunk(base, std::span<const Triple>(triples.data(), 1)));
  encoded.push_back(
      EncodeChunk(base, std::span<const Triple>(triples.data() + 1, 1)));
  // Both chunks saw "shared" as a fresh delta term.
  EXPECT_EQ(encoded[0].delta_resources.Key(1), "<shared>");
  EXPECT_EQ(encoded[1].delta_resources.Key(2), "<shared>");

  auto merged = MergeEncodedChunks(&base, std::move(encoded));
  ASSERT_TRUE(merged.ok());
  ExpectSameDictionary(base, serial_dict);
  ExpectSameTriples(*merged, serial_encoded);
  EXPECT_EQ(base.LookupResource(Term::Iri("shared")), 1u);
}

TEST(ShardedDictTest, ConcurrentChunkEncodingIsDeterministic) {
  // Phase 1 runs concurrently against the frozen base (the TSan target);
  // the merged result must still equal the serial encoding.
  const std::vector<Triple> triples = MakeTriples(600);

  Dictionary base;  // pre-populate so chunks mix base hits with deltas
  for (size_t i = 0; i < triples.size(); i += 5) base.Encode(triples[i]);
  // Serial reference: same pre-pass, then every triple in order.
  Dictionary serial_dict;
  for (size_t i = 0; i < triples.size(); i += 5) serial_dict.Encode(triples[i]);
  for (const Triple& t : triples) serial_dict.Encode(t);

  server::ThreadPool pool(8);
  const std::vector<std::span<const Triple>> chunks = Chunk(triples, 37);
  std::vector<EncodedChunk> encoded(chunks.size());
  pool.ParallelFor(chunks.size(), [&](size_t i) {
    encoded[i] = EncodeChunk(base, chunks[i]);
  });
  auto merged = MergeEncodedChunks(&base, std::move(encoded), &pool);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  ExpectSameDictionary(base, serial_dict);
  // Triple encodings agree with the serially-built dictionary.
  std::vector<EncodedTriple> expected;
  for (const Triple& t : triples) expected.push_back(serial_dict.Encode(t));
  ExpectSameTriples(*merged, expected);
}

TEST(ShardedDictTest, TextChunksEncodeLikeTripleChunks) {
  // EncodeTextChunk keys terms by their text; EncodeChunk by the parsed
  // Term. Against a frozen base holding some of the terms (so both base
  // hits and delta misses occur, on the raw-text and the escaped-literal
  // key routes alike), every chunk must come out identical, concurrently.
  std::vector<Triple> triples = MakeTriples(400);
  for (int i = 0; i < 60; ++i) {
    triples.push_back(Triple{
        Term::Blank("b" + std::to_string(i % 7)), Term::Iri("http://ex/esc"),
        (i % 2 == 0) ? Term::Literal("tab\there \"" + std::to_string(i % 5))
                     : Term::LangLiteral("raw\\" + std::to_string(i % 3),
                                         "en")});
  }
  std::ostringstream out;
  rdf::WriteNTriples(triples, out);
  std::string text = std::move(out).str();
  // Spellings whose text is not their key: a raw tab and an empty
  // datatype. The base knows both terms, so keying either by its text
  // would turn a base hit into a delta entry.
  text += "<http://ex/s> <http://ex/p> \"raw\ttab\" .\n";
  text += "<http://ex/s> <http://ex/p> \"typed\"^^<> .\n";

  Dictionary base;
  for (size_t i = 0; i < triples.size(); i += 4) base.Encode(triples[i]);
  base.EncodeResource(Term::Literal("raw\ttab"));
  base.EncodeResource(Term::Literal("typed"));
  const std::vector<std::string_view> pieces =
      rdf::SplitNewlineChunks(text, 97);
  std::vector<EncodedChunk> from_text(pieces.size());
  std::vector<ChunkLines> lines(pieces.size());
  server::ThreadPool pool(8);
  pool.ParallelFor(pieces.size(), [&](size_t c) {
    from_text[c] = EncodeTextChunk(base, pieces[c], true, &lines[c]);
  });

  for (size_t c = 0; c < pieces.size(); ++c) {
    auto parsed = rdf::NTriplesParser().ParseToVector(pieces[c]);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const EncodedChunk expected = EncodeChunk(base, *parsed);
    ExpectSameTriples(from_text[c].triples, expected.triples);
    EXPECT_EQ(Keys(from_text[c].delta_resources),
              Keys(expected.delta_resources));
    EXPECT_EQ(Keys(from_text[c].delta_predicates),
              Keys(expected.delta_predicates));
    EXPECT_EQ(lines[c].first_error_line, 0u);
    EXPECT_EQ(lines[c].count,
              static_cast<uint64_t>(
                  std::count(pieces[c].begin(), pieces[c].end(), '\n')));
  }
}

TEST(ShardedDictTest, TextChunkReportsItsFirstMalformedLine) {
  const Dictionary base;
  const std::string text =
      "<a> <p> <b> .\n"
      "# comment\n"
      "bad line\n"
      "<b> <p> <c> .\n"
      "<c> \"p\" <d> .\n"
      "<d> <p> <e> .";
  ChunkLines lenient;
  EncodedChunk all = EncodeTextChunk(base, text, false, &lenient);
  EXPECT_EQ(all.triples.size(), 3u);
  EXPECT_EQ(lenient.count, 6u);
  EXPECT_EQ(lenient.skipped, 2u);
  EXPECT_EQ(lenient.first_error_line, 3u);
  EXPECT_EQ(lenient.first_error, "unexpected character 'b' at start of term");

  // Strict stops at the first malformed line.
  ChunkLines strict;
  EncodedChunk head = EncodeTextChunk(base, text, true, &strict);
  EXPECT_EQ(head.triples.size(), 1u);
  EXPECT_EQ(strict.count, 3u);
  EXPECT_EQ(strict.skipped, 0u);
  EXPECT_EQ(strict.first_error_line, 3u);
  EXPECT_EQ(strict.first_error, lenient.first_error);
}

TEST(ShardedDictTest, EmptyChunksMergeToNothing) {
  Dictionary base;
  base.EncodeResource(Term::Iri("existing"));
  auto merged = MergeEncodedChunks(&base, {});
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->empty());
  EXPECT_EQ(base.resource_count(), 1u);
}

// The merge reserves the dictionary for the sum of the chunk deltas, so a
// term that recurs across chunks is reserved once per chunk. A load cut
// into many chunks on four threads must still hold about the dictionary a
// one-chunk load holds.
TEST(ShardedDictTest, ManyChunkLoadHoldsAboutTheOneChunkDictionary) {
  workload::GeneratedData data =
      workload::GenerateLubm({.universities = 1, .seed = 42});
  auto seed = engine::ParjEngine::FromEncoded(std::move(data.dict),
                                              std::move(data.triples));
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();
  std::ostringstream text;
  ASSERT_TRUE(storage::ExportNTriples(seed->database(), text).ok());

  const auto dictionary_bytes = [&](int threads, size_t chunk_bytes) {
    engine::EngineOptions options;
    options.load.threads = threads;
    options.load.chunk_bytes = chunk_bytes;
    auto loaded = engine::ParjEngine::FromNTriplesText(text.str(), options);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return loaded.ok() ? loaded->database().DictionaryMemoryUsage() : 0;
  };
  const double one_chunk =
      static_cast<double>(dictionary_bytes(1, text.str().size() + 1));
  const size_t chunk = size_t{64} << 10;
  ASSERT_GT(text.str().size() / chunk, 100u);
  const double many_chunks = static_cast<double>(dictionary_bytes(4, chunk));
  EXPECT_GT(one_chunk, 0.0);
  EXPECT_LE(many_chunks, 1.10 * one_chunk);
  EXPECT_GE(many_chunks, 0.90 * one_chunk);
}

}  // namespace
}  // namespace parj::dict
