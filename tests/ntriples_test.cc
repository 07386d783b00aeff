#include "rdf/ntriples.h"

#include <sstream>

#include <gtest/gtest.h>

namespace parj::rdf {
namespace {

Result<Term> ParseSingleTerm(std::string_view text) {
  size_t pos = 0;
  return ParseTerm(text, &pos);
}

TEST(ParseTermTest, Iri) {
  auto t = ParseSingleTerm("<http://example.org/x>");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->is_iri());
  EXPECT_EQ(t->lexical(), "http://example.org/x");
}

TEST(ParseTermTest, PlainLiteral) {
  auto t = ParseSingleTerm("\"hello world\"");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->is_literal());
  EXPECT_EQ(t->lexical(), "hello world");
}

TEST(ParseTermTest, EscapedLiteral) {
  auto t = ParseSingleTerm(R"("a\"b\nc")");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->lexical(), "a\"b\nc");
}

TEST(ParseTermTest, LangLiteral) {
  auto t = ParseSingleTerm("\"chat\"@fr-CA");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->lang(), "fr-CA");
}

TEST(ParseTermTest, TypedLiteral) {
  auto t = ParseSingleTerm("\"5\"^^<http://www.w3.org/2001/XMLSchema#int>");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->datatype(), "http://www.w3.org/2001/XMLSchema#int");
}

TEST(ParseTermTest, BlankNode) {
  auto t = ParseSingleTerm("_:node42");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->is_blank());
  EXPECT_EQ(t->lexical(), "node42");
}

TEST(ParseTermTest, Errors) {
  EXPECT_FALSE(ParseSingleTerm("<unterminated").ok());
  EXPECT_FALSE(ParseSingleTerm("<>").ok());
  EXPECT_FALSE(ParseSingleTerm("\"unterminated").ok());
  EXPECT_FALSE(ParseSingleTerm("_x").ok());
  EXPECT_FALSE(ParseSingleTerm("_:").ok());
  EXPECT_FALSE(ParseSingleTerm("plainword").ok());
  EXPECT_FALSE(ParseSingleTerm("").ok());
}

TEST(ParseStatementTest, BasicTriple) {
  auto t = ParseStatementLine("<s> <p> <o> .");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->subject.lexical(), "s");
  EXPECT_EQ(t->predicate.lexical(), "p");
  EXPECT_EQ(t->object.lexical(), "o");
}

TEST(ParseStatementTest, LiteralObjectWithDot) {
  auto t = ParseStatementLine("<s> <p> \"v 1.5\" .");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->object.lexical(), "v 1.5");
}

TEST(ParseStatementTest, BlankSubject) {
  auto t = ParseStatementLine("_:b <p> <o> .");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->subject.is_blank());
}

TEST(ParseStatementTest, CommentAndBlankLinesSkipped) {
  EXPECT_EQ(ParseStatementLine("# comment").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ParseStatementLine("   ").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ParseStatementLine("").status().code(), StatusCode::kNotFound);
}

TEST(ParseStatementTest, Errors) {
  EXPECT_FALSE(ParseStatementLine("<s> <p> <o>").ok());        // missing dot
  EXPECT_FALSE(ParseStatementLine("<s> <p> <o> . extra").ok());
  EXPECT_FALSE(ParseStatementLine("\"lit\" <p> <o> .").ok());  // literal subj
  EXPECT_FALSE(ParseStatementLine("<s> \"p\" <o> .").ok());    // literal pred
  EXPECT_FALSE(ParseStatementLine("<s> _:b <o> .").ok());      // blank pred
  EXPECT_FALSE(ParseStatementLine("<s> <p> .").ok());          // missing obj
}

TEST(ParseStatementTest, BlankNodeLabelLeavesTheFinalDot) {
  // A blank-node label may not end in '.', so the dot ends the statement.
  auto tight = ParseStatementLine("_:a <http://p> _:b.");
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  EXPECT_EQ(tight->object, Term::Blank("b"));
  auto spaced = ParseStatementLine("_:a <http://p> _:b .");
  ASSERT_TRUE(spaced.ok()) << spaced.status().ToString();
  EXPECT_EQ(*spaced, *tight);
  // Interior dots stay part of the label.
  auto dotted = ParseStatementLine("_:a.b <http://p> _:c.d.");
  ASSERT_TRUE(dotted.ok()) << dotted.status().ToString();
  EXPECT_EQ(dotted->subject, Term::Blank("a.b"));
  EXPECT_EQ(dotted->object, Term::Blank("c.d"));
  // A label of dots alone is empty once the dots are trimmed.
  EXPECT_FALSE(ParseStatementLine("_:. <http://p> <o> .").ok());
  EXPECT_FALSE(ParseStatementLine("<s> <http://p> _:b..").ok());
}

TEST(ParseStatementTest, LanguageTagLeavesTheFinalDot) {
  auto t = ParseStatementLine("<s> <p> \"x\"@en.");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->object, Term::LangLiteral("x", "en"));
}

TEST(ScanTermTest, TextIsTheDictionaryKeyWhenFlagged) {
  // A span flagged text_is_key must spell exactly the key of the term it
  // denotes. Raw tabs, raw CRs and `^^<>` change the key, so they must not
  // be flagged; escaped literals keep their spelling but take the
  // parse-then-key route all the same.
  struct Case {
    std::string text;
    bool flagged;
    bool key_is_text;
  };
  const std::vector<Case> cases = {
      {"<http://example.org/x>", true, true},
      {"_:node.7", true, true},
      {"\"plain\"", true, true},
      {"\"café\"@fr-CA", true, true},
      {"\"5\"^^<http://www.w3.org/2001/XMLSchema#int>", true, true},
      {"\"\"", true, true},
      {"\"tab\there\"", false, false},
      {"\"cr\rhere\"", false, false},
      {"\"typed\"^^<>", false, false},
      {"\"a\\\"b\\nc\\\\d\\te\"", false, true},
  };
  for (const Case& c : cases) {
    size_t pos = 0;
    TermSpan span;
    ASSERT_TRUE(ScanTerm(c.text, &pos, &span).ok()) << c.text;
    EXPECT_EQ(pos, c.text.size()) << c.text;
    EXPECT_EQ(span.text, c.text);
    EXPECT_EQ(span.text_is_key, c.flagged) << c.text;
    std::string key;
    TermFromSpan(span).AppendDictionaryKey(&key);
    EXPECT_EQ(key == c.text, c.key_is_text) << c.text << " has key " << key;
  }
}

TEST(ScanTermTest, ErrorsMatchParseTerm) {
  for (const char* text :
       {"<unterminated", "<>", "\"unterminated", "\"bad \\q escape\"",
        "\"x\"@", "\"x\"^^http", "\"x\"^^<open", "_x", "_:", "plainword",
        ""}) {
    size_t scan_pos = 0;
    TermSpan span;
    const Status scanned = ScanTerm(text, &scan_pos, &span);
    ASSERT_FALSE(scanned.ok()) << text;
    size_t parse_pos = 0;
    EXPECT_EQ(ParseTerm(text, &parse_pos).status(), scanned) << text;
  }
  size_t pos = 0;
  TermSpan span;
  EXPECT_EQ(ScanTerm("\"bad \\q\"", &pos, &span).message(),
            "unknown escape \\q");
}

TEST(NTriplesParserTest, ParsesDocument) {
  const std::string doc =
      "# a comment\n"
      "<a> <p> <b> .\n"
      "\n"
      "<b> <p> \"lit\"@en .\n"
      "<c> <q> \"5\"^^<http://dt> .\n";
  NTriplesParser parser;
  auto triples = parser.ParseToVector(doc);
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(triples->size(), 3u);
  EXPECT_EQ(parser.parsed_triples(), 3u);
  EXPECT_EQ(parser.skipped_lines(), 0u);
}

TEST(NTriplesParserTest, StrictModeFailsOnBadLine) {
  NTriplesParser parser;
  auto triples = parser.ParseToVector("<a> <p> <b> .\ngarbage\n");
  EXPECT_FALSE(triples.ok());
  EXPECT_EQ(triples.status().code(), StatusCode::kParseError);
}

TEST(NTriplesParserTest, LenientModeSkipsBadLines) {
  NTriplesParser::Options opts;
  opts.strict = false;
  NTriplesParser parser(opts);
  auto triples = parser.ParseToVector("<a> <p> <b> .\ngarbage\n<c> <p> <d> .");
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(triples->size(), 2u);
  EXPECT_EQ(parser.skipped_lines(), 1u);
}

TEST(NTriplesParserTest, ParsesStream) {
  std::istringstream in("<a> <p> <b> .\n<b> <p> <c> .\n");
  NTriplesParser parser;
  std::vector<Triple> triples;
  ASSERT_TRUE(parser.ParseStream(in, [&](Triple t) {
    triples.push_back(std::move(t));
  }).ok());
  EXPECT_EQ(triples.size(), 2u);
}

TEST(NTriplesParserTest, LastLineWithoutNewline) {
  NTriplesParser parser;
  auto triples = parser.ParseToVector("<a> <p> <b> .");
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(triples->size(), 1u);
}

TEST(WriteNTriplesTest, RoundTrip) {
  std::vector<Triple> triples = {
      {Term::Iri("http://a"), Term::Iri("http://p"), Term::Literal("x\ny")},
      {Term::Blank("b0"), Term::Iri("http://p"),
       Term::LangLiteral("hi", "en")},
      {Term::Iri("http://c"), Term::Iri("http://q"),
       Term::TypedLiteral("1", "http://dt")},
  };
  std::ostringstream out;
  WriteNTriples(triples, out);
  NTriplesParser parser;
  auto parsed = parser.ParseToVector(out.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, triples);
}

}  // namespace
}  // namespace parj::rdf
