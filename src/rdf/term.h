#ifndef PARJ_RDF_TERM_H_
#define PARJ_RDF_TERM_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace parj::rdf {

/// Kind of an RDF term.
enum class TermKind : uint8_t {
  kIri = 0,
  kLiteral = 1,
  kBlank = 2,
};

/// An RDF term (IRI, literal or blank node) at the string level, i.e.
/// before dictionary encoding. Literals carry an optional datatype IRI or
/// language tag (mutually exclusive, per RDF 1.1).
class Term {
 public:
  Term() : kind_(TermKind::kIri) {}

  static Term Iri(std::string iri) {
    Term t;
    t.kind_ = TermKind::kIri;
    t.lexical_ = std::move(iri);
    return t;
  }

  static Term Literal(std::string value) {
    Term t;
    t.kind_ = TermKind::kLiteral;
    t.lexical_ = std::move(value);
    return t;
  }

  static Term TypedLiteral(std::string value, std::string datatype_iri) {
    Term t = Literal(std::move(value));
    t.datatype_ = std::move(datatype_iri);
    return t;
  }

  static Term LangLiteral(std::string value, std::string lang) {
    Term t = Literal(std::move(value));
    t.lang_ = std::move(lang);
    return t;
  }

  static Term Blank(std::string label) {
    Term t;
    t.kind_ = TermKind::kBlank;
    t.lexical_ = std::move(label);
    return t;
  }

  /// Rebuilds a term from its binary record {u8 kind, lexical, datatype,
  /// lang}, the layout WAL records use. A kind byte outside
  /// TermKind, a literal with both a datatype and a language tag, or a
  /// datatype / language tag on an IRI or blank node is ParseError: no
  /// writer emits one, so seeing it means the record is corrupt.
  static Result<Term> FromParts(uint8_t kind, std::string lexical,
                                std::string datatype, std::string lang);

  TermKind kind() const { return kind_; }
  bool is_iri() const { return kind_ == TermKind::kIri; }
  bool is_literal() const { return kind_ == TermKind::kLiteral; }
  bool is_blank() const { return kind_ == TermKind::kBlank; }

  /// IRI string, literal value or blank node label (without decoration).
  const std::string& lexical() const { return lexical_; }
  /// Datatype IRI for typed literals, empty otherwise.
  const std::string& datatype() const { return datatype_; }
  /// Language tag for language-tagged literals, empty otherwise.
  const std::string& lang() const { return lang_; }

  /// Serializes in N-Triples syntax: `<iri>`, `"lit"`, `"lit"@en`,
  /// `"lit"^^<dt>` or `_:label`. Escapes `\`, `"`, newline and tab in
  /// literal values.
  std::string ToNTriples() const;

  /// Appends the N-Triples serialization to `*out` without clearing it.
  /// Allocation-free when `out` already has enough capacity, which is what
  /// makes dictionary lookups on a reused buffer allocation-free.
  void AppendNTriples(std::string* out) const;

  /// Canonical key used by the dictionary: distinct terms map to distinct
  /// keys and equal terms to equal keys.
  std::string DictionaryKey() const { return ToNTriples(); }

  /// Appends DictionaryKey() to `*out` (same bytes, no fresh allocation
  /// once `out` has capacity).
  void AppendDictionaryKey(std::string* out) const { AppendNTriples(out); }

  friend bool operator==(const Term& a, const Term& b) {
    return a.kind_ == b.kind_ && a.lexical_ == b.lexical_ &&
           a.datatype_ == b.datatype_ && a.lang_ == b.lang_;
  }

 private:
  TermKind kind_;
  std::string lexical_;
  std::string datatype_;
  std::string lang_;
};

/// An RDF statement at the string level.
struct Triple {
  Term subject;
  Term predicate;
  Term object;

  friend bool operator==(const Triple&, const Triple&) = default;
};

/// Escapes a literal value per N-Triples rules.
std::string EscapeLiteral(std::string_view value);

/// Reverses EscapeLiteral.
Result<std::string> UnescapeLiteral(std::string_view value);

}  // namespace parj::rdf

#endif  // PARJ_RDF_TERM_H_
