#ifndef PARJ_TESTS_TEST_UTIL_H_
#define PARJ_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.h"
#include "dict/dictionary.h"
#include "engine/parj_engine.h"
#include "query/algebra.h"
#include "query/parser.h"
#include "storage/database.h"

namespace parj::test {

/// Objects of every term kind, with every literal escape.
inline std::vector<rdf::Term> EveryKindObjects() {
  return {
      rdf::Term::Iri("http://ex/caf\xc3\xa9#frag"),
      rdf::Term::Blank("b1"),
      rdf::Term::Literal(""),
      rdf::Term::Literal("esc \" \\ \n \r \t end"),
      rdf::Term::Literal("caf\xc3\xa9"),
      rdf::Term::LangLiteral("hello", "en-GB"),
      rdf::Term::TypedLiteral("7", "http://ex/dt#int"),
  };
}

/// Simple triple spec: three bare names, all treated as IRIs.
using Spec = std::vector<std::tuple<std::string, std::string, std::string>>;

/// Builds a Database from name triples ("a", "p", "b").
inline storage::Database MakeDatabase(
    const Spec& spec, const storage::DatabaseOptions& options = {}) {
  dict::Dictionary dict;
  std::vector<EncodedTriple> triples;
  for (const auto& [s, p, o] : spec) {
    EncodedTriple t;
    t.subject = dict.EncodeResource(rdf::Term::Iri(s));
    t.predicate = dict.EncodePredicate(rdf::Term::Iri(p));
    t.object = dict.EncodeResource(rdf::Term::Iri(o));
    triples.push_back(t);
  }
  auto db = storage::Database::Build(std::move(dict), std::move(triples),
                                     options);
  PARJ_CHECK(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

/// Builds an engine from name triples.
inline engine::ParjEngine MakeEngine(
    const Spec& spec, const engine::EngineOptions& options = {}) {
  std::vector<rdf::Triple> triples;
  for (const auto& [s, p, o] : spec) {
    triples.push_back(rdf::Triple{rdf::Term::Iri(s), rdf::Term::Iri(p),
                                  rdf::Term::Iri(o)});
  }
  auto engine = engine::ParjEngine::FromTriples(triples, options);
  PARJ_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Parses and encodes a query against `db` (query uses bare-IRI names).
inline query::EncodedQuery Encode(const std::string& sparql,
                                  const storage::Database& db) {
  auto ast = query::ParseQuery(sparql);
  PARJ_CHECK(ast.ok()) << ast.status().ToString();
  auto enc = query::EncodeQuery(*ast, db);
  PARJ_CHECK(enc.ok()) << enc.status().ToString();
  return std::move(enc).value();
}

/// Sorts row-major rows lexicographically for order-insensitive compare.
inline std::vector<std::vector<TermId>> ToSortedRows(
    const std::vector<TermId>& flat, size_t width) {
  std::vector<std::vector<TermId>> rows;
  if (width == 0) return rows;
  for (size_t i = 0; i + width <= flat.size(); i += width) {
    rows.emplace_back(flat.begin() + i, flat.begin() + i + width);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace parj::test

#endif  // PARJ_TESTS_TEST_UTIL_H_
