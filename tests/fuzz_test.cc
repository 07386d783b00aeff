// Robustness suite: random and adversarial inputs must produce clean
// Status errors (or valid parses), never crashes, hangs or UB. Runs the
// SPARQL parser, the N-Triples parser and the snapshot reader over
// generated garbage, mutated valid inputs and structured near-misses.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/parj_engine.h"
#include "query/parser.h"
#include "rdf/ntriples.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace parj {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  const size_t len = rng->Uniform(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng->Uniform(256)));
  }
  return out;
}

std::string RandomTokenSoup(Rng* rng, size_t max_tokens) {
  static const char* kTokens[] = {
      "SELECT", "WHERE",  "DISTINCT", "FILTER", "UNION", "LIMIT", "PREFIX",
      "?x",     "?y",     "<iri>",    "\"lit\"", "a",    "{",     "}",
      "(",      ")",      ".",        ";",       ",",    "*",     "=",
      "!=",     "<",      ">",        "<=",      ">=",   "&&",    "42",
      "ns:p",   "@en",    "^^",       "$v",
  };
  std::string out;
  const size_t n = 1 + rng->Uniform(max_tokens);
  for (size_t i = 0; i < n; ++i) {
    out += kTokens[rng->Uniform(std::size(kTokens))];
    out += ' ';
  }
  return out;
}

std::string SnapshotBytes(const storage::Database& db) {
  std::ostringstream out;
  Status written = storage::WriteSnapshot(db, out);
  EXPECT_TRUE(written.ok()) << written.ToString();
  return std::move(out).str();
}

/// Differential check of the fused text load against the parser: in
/// strict and lenient mode, FromNTriplesText must agree with
/// ParseToVector -> FromTriples on ok vs error, on the strict error
/// message, on the skipped-line count and on the loaded store's bytes.
void ExpectFusedLoadMatchesParser(const std::string& doc, size_t chunk_bytes) {
  for (const bool strict : {true, false}) {
    rdf::NTriplesParser parser(rdf::NTriplesParser::Options{.strict = strict});
    auto parsed = parser.ParseToVector(doc);
    engine::EngineOptions options;
    options.load.strict = strict;
    options.load.chunk_bytes = chunk_bytes;
    auto fused = engine::ParjEngine::FromNTriplesText(doc, options);
    ASSERT_EQ(fused.ok(), parsed.ok())
        << (strict ? "strict" : "lenient") << " load of: " << doc;
    if (!parsed.ok()) {
      EXPECT_EQ(fused.status(), parsed.status()) << doc;
      continue;
    }
    auto reference = engine::ParjEngine::FromTriples(*parsed);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(fused->load_stats().skipped_lines, parser.skipped_lines())
        << doc;
    EXPECT_EQ(SnapshotBytes(fused->database()),
              SnapshotBytes(reference->database()))
        << (strict ? "strict" : "lenient") << " load of: " << doc;
  }
}

/// A small valid document covering every term shape and the spellings
/// whose dictionary key differs from (or equals) their text.
constexpr const char* kNTriplesSeed =
    "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
    "_:x <http://ex/p> \"lit \\\"q\\\" \\\\ \\n\"@en-GB .\n"
    "# comment\n"
    "<http://ex/b> <http://ex/q> \"5\"^^<http://ex/int> .\r\n"
    "\n"
    "_:y.z <http://ex/q> \"tab\there é\" .\n"
    "<http://ex/a> <http://ex/p> _:x.\n"
    "<http://ex/b> <http://ex/q> \"5\" .";

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, SparqlParserNeverCrashesOnGarbage) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    std::string input = RandomBytes(&rng, 200);
    auto result = query::ParseQuery(input);
    // ok() or a clean error — either is fine; reaching here is the test.
    if (result.ok()) {
      EXPECT_FALSE(result->patterns.empty());
    }
  }
}

TEST_P(FuzzTest, SparqlParserNeverCrashesOnTokenSoup) {
  Rng rng(GetParam() * 17 + 1);
  for (int i = 0; i < 2000; ++i) {
    std::string input = RandomTokenSoup(&rng, 30);
    (void)query::ParseQuery(input);
  }
}

TEST_P(FuzzTest, MutatedValidQueriesParseOrFailCleanly) {
  Rng rng(GetParam() * 31 + 5);
  const std::string base =
      "PREFIX ub: <http://ex/> SELECT DISTINCT ?x ?y WHERE { ?x ub:p ?y . "
      "?y a ub:C . FILTER(?x != ?y) } LIMIT 10";
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.Uniform(256));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.Uniform(128)));
      }
    }
    (void)query::ParseQuery(mutated);
  }
}

TEST_P(FuzzTest, NTriplesParserNeverCrashes) {
  Rng rng(GetParam() * 7 + 3);
  rdf::NTriplesParser::Options lenient;
  lenient.strict = false;
  for (int i = 0; i < 500; ++i) {
    std::string input = RandomBytes(&rng, 300);
    rdf::NTriplesParser strict_parser;
    (void)strict_parser.ParseToVector(input);
    rdf::NTriplesParser lenient_parser(lenient);
    auto result = lenient_parser.ParseToVector(input);
    EXPECT_TRUE(result.ok());  // lenient mode only skips, never fails
    ExpectFusedLoadMatchesParser(input, 1 + rng.Uniform(64));
  }
}

TEST_P(FuzzTest, MutatedNTriplesLoadLikeTheParser) {
  constexpr std::string_view kSyntax = "<>\"\\_:.@^# \t\r\n";
  Rng rng(GetParam() * 43 + 19);
  const std::string base = kNTriplesSeed;
  ExpectFusedLoadMatchesParser(base, 16);
  for (int i = 0; i < 400; ++i) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(4)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.Uniform(256));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        case 2:
          // Syntax characters, so mutations reach deep scanner states.
          mutated.insert(pos, 1, kSyntax[rng.Uniform(kSyntax.size())]);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.Uniform(128)));
      }
    }
    ExpectFusedLoadMatchesParser(mutated, 1 + rng.Uniform(96));
  }
}

TEST_P(FuzzTest, MutatedSnapshotsFailCleanly) {
  storage::Database db = test::MakeDatabase({
      {"a", "p", "b"},
      {"b", "q", "éü"},  // non-ASCII survives the format
  });
  std::stringstream buffer;
  ASSERT_TRUE(storage::WriteSnapshot(db, buffer).ok());
  const std::string bytes = buffer.str();

  Rng rng(GetParam() * 13 + 11);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = bytes;
    const int flips = 1 + static_cast<int>(rng.Uniform(8));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<char>(1 + rng.Uniform(255));
    }
    if (mutated == bytes) continue;
    // With per-section CRC-32C coverage, any altered byte — header,
    // payload, CRC record or trailer — must be rejected.
    std::stringstream in(mutated);
    auto result = storage::ReadSnapshot(in);
    EXPECT_FALSE(result.ok()) << "iteration " << i;
  }
}

TEST_P(FuzzTest, TruncatedSnapshotsAlwaysFailCleanly) {
  storage::Database db = test::MakeDatabase({
      {"a", "p", "b"},
      {"b", "q", "c"},
  });
  std::stringstream buffer;
  ASSERT_TRUE(storage::WriteSnapshot(db, buffer).ok());
  const std::string bytes = buffer.str();

  Rng rng(GetParam() * 29 + 17);
  for (int i = 0; i < 200; ++i) {
    // Every proper prefix is missing at least the trailer.
    const size_t cut = rng.Uniform(bytes.size());
    std::stringstream in(bytes.substr(0, cut));
    EXPECT_FALSE(storage::ReadSnapshot(in).ok()) << "cut at " << cut;
  }
}

TEST_P(FuzzTest, EngineSurvivesRandomQueriesOverRealData) {
  Rng rng(GetParam() * 41 + 7);
  auto engine = test::MakeEngine({
      {"a", "p", "b"},
      {"b", "q", "c"},
      {"c", "r", "a"},
  });
  for (int i = 0; i < 300; ++i) {
    std::string input = RandomTokenSoup(&rng, 25);
    auto result = engine.Execute(input);
    if (result.ok()) {
      EXPECT_GE(result->column_count, 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace parj
