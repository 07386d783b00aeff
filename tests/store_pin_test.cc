// Byte-level pins of the store's observable output: the snapshot bytes of
// generated and text-loaded stores, and the decoded rows of a fixed query.
// A change to the dictionary's layout must leave every one of these
// unchanged, so these tests fail on any drift in dictionary IDs, triple
// order, snapshot bytes or row decoding.

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/parj_engine.h"
#include "rdf/ntriples.h"
#include "storage/export.h"
#include "storage/snapshot.h"
#include "test_util.h"
#include "workload/lubm.h"
#include "workload/watdiv.h"

namespace parj {
namespace {

using test::EveryKindObjects;

/// FNV-1a-64 over `bytes`, continuing from `h`.
uint64_t Fnv1a(std::string_view bytes,
               uint64_t h = 1469598103934665603ull) {
  for (const char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  return h;
}

std::string SnapshotBytes(const engine::ParjEngine& engine) {
  std::ostringstream out;
  EXPECT_TRUE(storage::WriteSnapshot(engine.database(), out).ok());
  return out.str();
}

engine::ParjEngine FromGenerated(workload::GeneratedData data) {
  auto engine = engine::ParjEngine::FromEncoded(std::move(data.dict),
                                                std::move(data.triples));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

struct Pin {
  size_t bytes;
  uint64_t hash;
};

void ExpectPinned(const std::string& bytes, const Pin& pin,
                  const char* what) {
  EXPECT_EQ(bytes.size(), pin.bytes) << what;
  EXPECT_EQ(Fnv1a(bytes), pin.hash) << what;
}

std::vector<rdf::Triple> AsTriples(const std::vector<rdf::Term>& objects) {
  std::vector<rdf::Triple> triples;
  for (const rdf::Term& o : objects) {
    triples.push_back({rdf::Term::Iri("http://ex/s"), rdf::Term::Iri("p"), o});
  }
  return triples;
}

TEST(StorePinTest, SnapshotBytesArePinned) {
  const engine::ParjEngine lubm =
      FromGenerated(workload::GenerateLubm({.universities = 1, .seed = 42}));
  ExpectPinned(SnapshotBytes(lubm), Pin{1002595, 0xc992bba9e8003fceull},
               "lubm 1");

  const engine::ParjEngine watdiv =
      FromGenerated(workload::GenerateWatdiv({.scale = 1, .seed = 7}));
  ExpectPinned(SnapshotBytes(watdiv), Pin{512192, 0x129339bcdff52a5bull},
               "watdiv 1");

  // The same WatDiv store as N-Triples text, loaded through the sharded
  // text encoder with several chunks: IDs follow first occurrence in the
  // exported text, so these bytes differ from the generated store's.
  std::ostringstream text;
  ASSERT_TRUE(storage::ExportNTriples(watdiv.database(), text).ok());
  engine::EngineOptions options;
  options.load.threads = 4;
  options.load.chunk_bytes = size_t{64} << 10;
  auto loaded = engine::ParjEngine::FromNTriplesText(text.str(), options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectPinned(SnapshotBytes(*loaded), Pin{513136, 0xb4ab2cb95d135ad0ull},
               "watdiv 1 text");

  // Escaped literals are stored escaped in the dictionary, and the
  // snapshot writes the dictionary's keys as they are.
  auto every_kind = engine::ParjEngine::FromTriples(
      AsTriples(EveryKindObjects()));
  ASSERT_TRUE(every_kind.ok()) << every_kind.status().ToString();
  ExpectPinned(SnapshotBytes(*every_kind), Pin{406, 0x34ce28547dd73983ull}, "every kind");
}

TEST(StorePinTest, DecodedRowsArePinned) {
  // WatDiv S1 binds IRIs, plain literals and xsd:integer literals.
  const engine::ParjEngine watdiv =
      FromGenerated(workload::GenerateWatdiv({.scale = 1, .seed = 7}));
  std::string sparql;
  for (const workload::NamedQuery& q : workload::WatdivBasicQueries()) {
    if (q.name == "S1") sparql = q.sparql;
  }
  ASSERT_FALSE(sparql.empty());
  auto result = watdiv.Execute(sparql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<std::string> rows;
  for (size_t r = 0; r < result->row_count; ++r) {
    std::string row;
    for (const std::string& cell : watdiv.DecodeRow(*result, r)) {
      row += cell;
      row.push_back('\t');
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  uint64_t h = 1469598103934665603ull;
  for (const std::string& row : rows) h = Fnv1a(row + "\n", h);
  EXPECT_EQ(rows.size(), 276u);
  EXPECT_EQ(h, 0x633c8bb9fe5eec09ull);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front(),
            "<http://db.uwaterloo.ca/~galuc/wsdbm/Offer102>\t"
            "<http://db.uwaterloo.ca/~galuc/wsdbm/Product37>\t"
            "\"1545\"^^<http://www.w3.org/2001/XMLSchema#integer>\t"
            "\"2020-06\"\t"
            "\"100102\"^^<http://www.w3.org/2001/XMLSchema#integer>\t"
            "\"caption37\"\t"
            "<http://db.uwaterloo.ca/~galuc/wsdbm/Genre4>\t"
            "\"label37\"\t");
}

TEST(StorePinTest, DecodeRowIsNTriplesForEveryTermKind) {
  // DecodeRow must print exactly ToNTriples(), whether the store was
  // loaded from triples or from their text (whose keys come straight
  // from the text bytes).
  const std::vector<rdf::Term> objects = EveryKindObjects();
  const std::vector<rdf::Triple> triples = AsTriples(objects);
  std::ostringstream text;
  rdf::WriteNTriples(triples, text);
  auto from_triples = engine::ParjEngine::FromTriples(triples);
  ASSERT_TRUE(from_triples.ok()) << from_triples.status().ToString();
  auto from_text = engine::ParjEngine::FromNTriplesText(text.str());
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();

  std::vector<std::string> expected;
  for (const rdf::Term& o : objects) expected.push_back(o.ToNTriples());
  std::sort(expected.begin(), expected.end());
  for (const engine::ParjEngine* engine : {&*from_triples, &*from_text}) {
    auto result = engine->Execute("SELECT ?o WHERE { <http://ex/s> <p> ?o }");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> decoded;
    for (size_t r = 0; r < result->row_count; ++r) {
      decoded.push_back(engine->DecodeRow(*result, r).at(0));
    }
    std::sort(decoded.begin(), decoded.end());
    EXPECT_EQ(decoded, expected);
  }
}

}  // namespace
}  // namespace parj
