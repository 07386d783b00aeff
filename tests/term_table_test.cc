// dict::TermTable: each term stored once as its canonical key. Keys must
// decode back to the exact term, equal the term's N-Triples form, and map
// distinct terms to distinct IDs across growth, clones and concurrent
// readers.

#include "dict/term_table.h"

#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"

namespace parj::dict {
namespace {

using rdf::Term;

std::string KeyOf(const Term& term) {
  std::string key;
  term.AppendDictionaryKey(&key);
  return key;
}

/// Terms whose keys are easy to split wrongly.
std::vector<Term> TrickyTerms() {
  return {
      Term::Iri("http://example.org/a"),
      Term::Iri("http://ex/with \"quote\" > and space"),
      Term::Iri(""),
      Term::Literal(""),
      Term::Literal("plain"),
      Term::Literal("say \"hi\""),
      Term::Literal("back\\slash"),
      Term::Literal("line\nbreak"),
      Term::Literal("carriage\rreturn"),
      Term::Literal("tab\there"),
      Term::Literal("\\\"\n\r\t all five"),
      Term::Literal("ends with backslash\\"),
      Term::Literal("ends with quote\""),
      Term::Literal("raw UTF-8: caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac"),
      Term::Literal("@en"),
      Term::Literal("^^<x>"),
      Term::LangLiteral("bonjour", "fr"),
      Term::LangLiteral("quote \" in lang literal", "en-GB"),
      Term::LangLiteral("", "de"),
      Term::TypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
      Term::TypedLiteral("odd", "http://ex/dt>with>angles"),
      Term::TypedLiteral("esc\\aped\"", "http://ex/dt"),
      Term::TypedLiteral("", "http://ex/empty"),
      Term::Blank("b0"),
      Term::Blank("node-with.dots_and_underscores"),
  };
}

TEST(TermTableTest, KeyIsNTriplesAndDecodeRoundTrips) {
  TermTable table;
  const std::vector<Term> terms = TrickyTerms();
  std::vector<uint32_t> ids;
  for (const Term& term : terms) {
    ids.push_back(table.FindOrInsert(KeyOf(term)));
  }
  ASSERT_EQ(table.size(), terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    EXPECT_EQ(ids[i], i + 1) << terms[i].ToNTriples();
    EXPECT_EQ(table.Key(ids[i]), terms[i].ToNTriples());
    EXPECT_EQ(table.Decode(ids[i]), terms[i]) << terms[i].ToNTriples();
    EXPECT_EQ(table.Find(KeyOf(terms[i])), ids[i]);
    // Re-inserting finds the same ID and stores nothing.
    EXPECT_EQ(table.FindOrInsert(KeyOf(terms[i])), ids[i]);
  }
  EXPECT_EQ(table.size(), terms.size());
  EXPECT_EQ(table.Find("<absent>"), 0u);
}

TEST(TermTableTest, SplitKeyViewsTheParts) {
  const std::string typed_key =
      KeyOf(Term::TypedLiteral("a\\b", "http://ex/dt>x"));
  const KeyParts typed = SplitKey(typed_key);
  EXPECT_EQ(typed.kind, rdf::TermKind::kLiteral);
  EXPECT_TRUE(typed.escaped);
  EXPECT_EQ(typed.lexical, "a\\\\b");
  EXPECT_EQ(typed.datatype, "http://ex/dt>x");
  EXPECT_TRUE(typed.lang.empty());

  const std::string lang_key = KeyOf(Term::LangLiteral("x", "en"));
  const KeyParts lang = SplitKey(lang_key);
  EXPECT_FALSE(lang.escaped);
  EXPECT_EQ(lang.lexical, "x");
  EXPECT_EQ(lang.lang, "en");
  EXPECT_TRUE(lang.datatype.empty());

  const KeyParts iri = SplitKey("<http://ex/\"q\">");
  EXPECT_EQ(iri.kind, rdf::TermKind::kIri);
  EXPECT_EQ(iri.lexical, "http://ex/\"q\"");

  const KeyParts blank = SplitKey("_:b7");
  EXPECT_EQ(blank.kind, rdf::TermKind::kBlank);
  EXPECT_EQ(blank.lexical, "b7");
}

/// A random term of any kind, drawing characters that need escaping.
Term RandomTerm(Rng* rng) {
  static constexpr char kAlphabet[] = "ab\"\\\n\r\t <>@^_:.\xc3\xa9";
  std::string text;
  const size_t length = rng->Uniform(8);
  for (size_t i = 0; i < length; ++i) {
    text.push_back(kAlphabet[rng->Uniform(sizeof(kAlphabet) - 1)]);
  }
  switch (rng->Uniform(5)) {
    case 0:
      return Term::Iri(text);
    case 1:
      return Term::Blank("b" + std::to_string(rng->Uniform(1000)));
    case 2:
      return Term::Literal(text);
    case 3:
      return Term::LangLiteral(text, rng->Uniform(2) == 0 ? "en" : "fr");
    default:
      return Term::TypedLiteral(text, rng->Uniform(2) == 0 ? "http://dt/a"
                                                           : "http://dt/b>");
  }
}

TEST(TermTableTest, RandomTermsGetDistinctIds) {
  Rng rng(20260417);
  TermTable table;
  std::unordered_map<std::string, uint32_t> expected;  // N-Triples -> ID
  for (int i = 0; i < 10000; ++i) {
    const Term term = RandomTerm(&rng);
    const std::string nt = term.ToNTriples();
    const uint32_t id = table.FindOrInsert(KeyOf(term));
    auto [it, fresh] = expected.emplace(nt, id);
    if (fresh) {
      EXPECT_EQ(id, expected.size()) << nt;  // dense, in insertion order
    } else {
      EXPECT_EQ(id, it->second) << nt;
    }
    EXPECT_EQ(table.Decode(id), term) << nt;
  }
  EXPECT_EQ(table.size(), expected.size());
  for (const auto& [nt, id] : expected) {
    EXPECT_EQ(table.Key(id), nt);
    EXPECT_EQ(table.Find(nt), id);
  }
}

/// What IsCanonicalKey must decide: the key decodes (its escapes are
/// valid, so TermFromKey cannot abort) and its term writes it back.
bool RoundTrips(std::string_view key) {
  const KeyParts parts = SplitKey(key);
  if (parts.escaped && !rdf::UnescapeLiteral(parts.lexical).ok()) {
    return false;
  }
  return KeyOf(TermFromKey(key)) == key;
}

TEST(TermTableTest, CanonicalKeysAreExactlyTheOnesThatRoundTrip) {
  std::vector<std::string> keys;
  for (const Term& term : test::EveryKindObjects()) keys.push_back(KeyOf(term));
  for (const Term& term : TrickyTerms()) keys.push_back(KeyOf(term));
  // Every prefix of a real key: unterminated values, cut suffixes.
  const size_t real = keys.size();
  for (size_t k = 0; k < real; ++k) {
    for (size_t n = 0; n < keys[k].size(); ++n) {
      keys.push_back(keys[k].substr(0, n));
    }
  }
  // Random byte strings, half of them opened like a key of some kind.
  static constexpr char kAlphabet[] = "ab\"\\\n\r\tnrtx<>@^_:\xc3";
  static constexpr const char* kOpeners[] = {"", "<", "_:", "\"", "_"};
  Rng rng(20261019);
  for (int i = 0; i < 20000; ++i) {
    std::string key = kOpeners[rng.Uniform(5)];
    const size_t length = rng.Uniform(10);
    for (size_t j = 0; j < length; ++j) {
      key.push_back(kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)]);
    }
    keys.push_back(key);
  }
  size_t accepted = 0;
  for (const std::string& key : keys) {
    const bool canonical = IsCanonicalKey(key);
    EXPECT_EQ(canonical, RoundTrips(key)) << rdf::EscapeLiteral(key);
    accepted += canonical;
  }
  for (size_t k = 0; k < real; ++k) EXPECT_TRUE(IsCanonicalKey(keys[k]));
  EXPECT_GT(accepted, real);
  EXPECT_LT(accepted, keys.size());
}

TEST(TermTableTest, FromImageRebuildsTheTable) {
  TermTable table;
  for (const Term& term : TrickyTerms()) table.FindOrInsert(KeyOf(term));
  Result<TermTable> image = TermTable::FromImage(
      std::string(table.arena()),
      std::vector<uint64_t>(table.offsets().begin(), table.offsets().end()));
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  ASSERT_EQ(image->size(), table.size());
  for (uint32_t id = 1; id <= table.size(); ++id) {
    EXPECT_EQ(image->Key(id), table.Key(id));
    EXPECT_EQ(image->Find(table.Key(id)), id);
  }
  EXPECT_EQ(image->Find("<absent>"), 0u);
  // Holds exactly its keys and offsets, plus the slot array.
  EXPECT_LT(image->MemoryUsage(), table.MemoryUsage());
  EXPECT_EQ(image->FindOrInsert("<new>"), table.size() + 1);

  Result<TermTable> empty = TermTable::FromImage("", {0});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0u);
}

TEST(TermTableTest, FromImageRejectsBadImages) {
  const std::string keys = "<a><b>\"c\"";
  const std::vector<std::pair<std::string, std::vector<uint64_t>>> bad = {
      {"no offsets", {}},
      {"offsets not from 0", {1, 3, 6, 9}},
      {"falling offsets", {0, 6, 3, 9}},
      {"last offset short of the keys", {0, 3, 6, 8}},
      {"last offset past the keys", {0, 3, 6, 10}},
      {"malformed key", {0, 2, 6, 9}},
  };
  for (const auto& [name, offsets] : bad) {
    EXPECT_EQ(TermTable::FromImage(keys, offsets).status().code(),
              StatusCode::kParseError)
        << name;
  }
  EXPECT_EQ(TermTable::FromImage("<a><a>", {0, 3, 6}).status().code(),
            StatusCode::kParseError);
  EXPECT_TRUE(TermTable::FromImage(keys, {0, 3, 6, 9}).ok());
}

TEST(TermTableTest, GrowsAcrossRehashes) {
  TermTable table;
  const size_t initial = table.MemoryUsage();
  constexpr uint32_t kTerms = 50000;  // from 16 slots: a dozen rehashes
  for (uint32_t i = 0; i < kTerms; ++i) {
    ASSERT_EQ(table.FindOrInsert("<r" + std::to_string(i) + ">"), i + 1);
  }
  EXPECT_GT(table.MemoryUsage(), initial);
  for (uint32_t i = 0; i < kTerms; ++i) {
    ASSERT_EQ(table.Find("<r" + std::to_string(i) + ">"), i + 1);
    ASSERT_EQ(table.Key(i + 1), "<r" + std::to_string(i) + ">");
  }
  EXPECT_EQ(table.Find("<r" + std::to_string(kTerms) + ">"), 0u);
}

TEST(TermTableTest, ReserveKeepsIdsAndCapacity) {
  TermTable table;
  table.FindOrInsert("<first>");
  table.Reserve(1000, 1000 * 16);
  const size_t reserved = table.MemoryUsage();
  EXPECT_GE(reserved, 1000 * 16 + 1000 * sizeof(uint64_t));
  for (int i = 0; i < 999; ++i) {
    table.FindOrInsert("<k" + std::to_string(1000 + i) + ">");  // 7 bytes
  }
  EXPECT_EQ(table.MemoryUsage(), reserved);  // no regrowth, no rehash
  EXPECT_EQ(table.Find("<first>"), 1u);
  EXPECT_EQ(table.size(), 1000u);
}

TEST(TermTableTest, TrimSlackGivesBackOnlyLargeSpareCapacity) {
  TermTable table;
  table.Reserve(10000, 10000 * 16);
  for (int i = 0; i < 100; ++i) {
    table.FindOrInsert("<k" + std::to_string(1000 + i) + ">");
  }
  const size_t reserved = table.MemoryUsage();
  table.TrimSlack();
  EXPECT_LT(table.MemoryUsage(), reserved / 10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(table.Find("<k" + std::to_string(1000 + i) + ">"),
              static_cast<uint32_t>(i + 1));
  }
  // A table sized to its contents keeps its buffers.
  const size_t trimmed = table.MemoryUsage();
  table.TrimSlack();
  EXPECT_EQ(table.MemoryUsage(), trimmed);
}

TEST(TermTableTest, CloneIsIndependent) {
  TermTable table;
  table.FindOrInsert("<a>");
  table.FindOrInsert("\"b\"");
  TermTable copy = table.Clone();
  copy.FindOrInsert("<c>");
  table.FindOrInsert("<d>");
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy.Find("<c>"), 3u);
  EXPECT_EQ(copy.Find("<d>"), 0u);
  EXPECT_EQ(table.Find("<d>"), 3u);
  EXPECT_EQ(table.Find("<c>"), 0u);
  EXPECT_EQ(copy.Key(2), "\"b\"");
  EXPECT_EQ(copy.key_bytes(), table.key_bytes());
}

TEST(TermTableTest, MemoryUsageCountsEveryBuffer) {
  TermTable table;
  size_t key_bytes = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string key = "<http://example.org/" + std::to_string(i) + ">";
    key_bytes += key.size();
    table.FindOrInsert(key);
  }
  EXPECT_EQ(table.key_bytes(), key_bytes);
  // Arena + offsets (N + 1 u64) + a power-of-two slot array of 8-byte
  // slots at most 3/4 full.
  size_t slots = 16;
  while (slots * 3 < table.size() * 4) slots *= 2;
  EXPECT_GE(table.MemoryUsage(),
            key_bytes + (table.size() + 1) * sizeof(uint64_t) + slots * 8);
}

TEST(TermTableTest, ConcurrentFindOnFrozenTable) {
  TermTable table;
  constexpr int kTerms = 20000;
  for (int i = 0; i < kTerms; ++i) {
    table.FindOrInsert("\"v" + std::to_string(i) + "\"@en");
  }
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&table, &mismatches, t] {
      for (int i = t; i < kTerms; i += 2) {
        const std::string key = "\"v" + std::to_string(i) + "\"@en";
        const uint32_t id = table.Find(key);
        if (id != static_cast<uint32_t>(i + 1) || table.Key(id) != key ||
            table.Find("<missing" + std::to_string(i) + ">") != 0) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "reader " << t;
}

TEST(TermTableTest, MovedFromTableIsEmptyAndReusable) {
  TermTable table;
  table.FindOrInsert("<a>");
  TermTable moved = std::move(table);
  EXPECT_EQ(moved.Find("<a>"), 1u);
  EXPECT_EQ(table.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(table.Find("<a>"), 0u);
  EXPECT_EQ(table.FindOrInsert("<b>"), 1u);
}

}  // namespace
}  // namespace parj::dict
