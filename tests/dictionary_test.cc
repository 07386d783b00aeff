#include "dict/dictionary.h"

#include <gtest/gtest.h>

namespace parj::dict {
namespace {

using rdf::Term;

TEST(DictionaryTest, AssignsDenseIdsFromOne) {
  Dictionary dict;
  EXPECT_EQ(dict.EncodeResource(Term::Iri("a")), 1u);
  EXPECT_EQ(dict.EncodeResource(Term::Iri("b")), 2u);
  EXPECT_EQ(dict.EncodeResource(Term::Iri("c")), 3u);
  EXPECT_EQ(dict.resource_count(), 3u);
}

TEST(DictionaryTest, EncodeIsIdempotent) {
  Dictionary dict;
  TermId a = dict.EncodeResource(Term::Iri("a"));
  EXPECT_EQ(dict.EncodeResource(Term::Iri("a")), a);
  EXPECT_EQ(dict.resource_count(), 1u);
}

TEST(DictionaryTest, PredicatesUseSeparateIdSpace) {
  Dictionary dict;
  TermId r = dict.EncodeResource(Term::Iri("same"));
  PredicateId p = dict.EncodePredicate(Term::Iri("same"));
  EXPECT_EQ(r, 1u);
  EXPECT_EQ(p, 1u);  // independent numbering
  EXPECT_EQ(dict.resource_count(), 1u);
  EXPECT_EQ(dict.predicate_count(), 1u);
}

TEST(DictionaryTest, SubjectsAndObjectsShareIdSpace) {
  Dictionary dict;
  rdf::Triple t{Term::Iri("x"), Term::Iri("p"), Term::Iri("x")};
  EncodedTriple enc = dict.Encode(t);
  EXPECT_EQ(enc.subject, enc.object);
}

TEST(DictionaryTest, LookupWithoutInsert) {
  Dictionary dict;
  dict.EncodeResource(Term::Iri("a"));
  EXPECT_EQ(dict.LookupResource(Term::Iri("a")), 1u);
  EXPECT_EQ(dict.LookupResource(Term::Iri("zzz")), kInvalidTermId);
  EXPECT_EQ(dict.resource_count(), 1u);  // lookup did not insert
  EXPECT_EQ(dict.LookupPredicate(Term::Iri("p")), kInvalidPredicateId);
}

TEST(DictionaryTest, DistinguishesTermKinds) {
  Dictionary dict;
  TermId iri = dict.EncodeResource(Term::Iri("x"));
  TermId lit = dict.EncodeResource(Term::Literal("x"));
  TermId blank = dict.EncodeResource(Term::Blank("x"));
  TermId lang = dict.EncodeResource(Term::LangLiteral("x", "en"));
  TermId typed = dict.EncodeResource(Term::TypedLiteral("x", "http://dt"));
  EXPECT_NE(iri, lit);
  EXPECT_NE(iri, blank);
  EXPECT_NE(lit, lang);
  EXPECT_NE(lit, typed);
  EXPECT_NE(lang, typed);
}

TEST(DictionaryTest, DecodeRoundTrip) {
  Dictionary dict;
  Term original = Term::LangLiteral("hello", "en");
  TermId id = dict.EncodeResource(original);
  EXPECT_EQ(dict.DecodeResource(id), original);

  Term pred = Term::Iri("http://p");
  PredicateId pid = dict.EncodePredicate(pred);
  EXPECT_EQ(dict.DecodePredicate(pid), pred);
}

TEST(DictionaryTest, EncodeDecodeTripleRoundTrip) {
  Dictionary dict;
  rdf::Triple t{Term::Iri("s"), Term::Iri("p"), Term::Literal("o")};
  EncodedTriple enc = dict.Encode(t);
  EXPECT_EQ(dict.Decode(enc), t);
}

TEST(DictionaryTest, EncodeExisting) {
  Dictionary dict;
  rdf::Triple known{Term::Iri("s"), Term::Iri("p"), Term::Iri("o")};
  dict.Encode(known);
  auto enc = dict.EncodeExisting(known);
  ASSERT_TRUE(enc.ok());

  rdf::Triple unknown_subject{Term::Iri("zz"), Term::Iri("p"), Term::Iri("o")};
  EXPECT_EQ(dict.EncodeExisting(unknown_subject).status().code(),
            StatusCode::kNotFound);
  rdf::Triple unknown_pred{Term::Iri("s"), Term::Iri("qq"), Term::Iri("o")};
  EXPECT_EQ(dict.EncodeExisting(unknown_pred).status().code(),
            StatusCode::kNotFound);
  rdf::Triple unknown_object{Term::Iri("s"), Term::Iri("p"), Term::Iri("zz")};
  EXPECT_EQ(dict.EncodeExisting(unknown_object).status().code(),
            StatusCode::kNotFound);
}

TEST(DictionaryTest, MemoryUsageGrows) {
  Dictionary dict;
  size_t empty = dict.MemoryUsage();
  for (int i = 0; i < 100; ++i) {
    dict.EncodeResource(Term::Iri("http://example.org/r" + std::to_string(i)));
  }
  EXPECT_GT(dict.MemoryUsage(), empty);
}

TEST(DictionaryTest, LookupByPrecomputedKey) {
  Dictionary dict;
  dict.EncodeResource(Term::Iri("a"));
  dict.EncodePredicate(Term::Iri("p"));
  EXPECT_EQ(dict.LookupResourceByKey(Term::Iri("a").DictionaryKey()), 1u);
  EXPECT_EQ(dict.LookupResourceByKey(Term::Iri("nope").DictionaryKey()),
            kInvalidTermId);
  EXPECT_EQ(dict.LookupPredicateByKey(Term::Iri("p").DictionaryKey()), 1u);
  EXPECT_EQ(dict.LookupPredicateByKey(Term::Iri("a").DictionaryKey()),
            kInvalidPredicateId);  // separate ID space
}

TEST(DictionaryTest, CloneIsDeepAndIndependent) {
  Dictionary dict;
  dict.EncodeResource(Term::Iri("a"));
  Dictionary copy = dict.Clone();
  copy.EncodeResource(Term::Iri("b"));
  EXPECT_EQ(dict.resource_count(), 1u);
  EXPECT_EQ(copy.resource_count(), 2u);
  EXPECT_EQ(copy.LookupResource(Term::Iri("a")), 1u);
}

TEST(DictionaryTest, ManyTermsKeepDistinctIds) {
  Dictionary dict;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(dict.EncodeResource(Term::Iri("r" + std::to_string(i))),
              static_cast<TermId>(i + 1));
  }
  EXPECT_EQ(dict.resource_count(), 10000u);
  EXPECT_EQ(dict.LookupResource(Term::Iri("r9999")), 10000u);
}

}  // namespace
}  // namespace parj::dict
