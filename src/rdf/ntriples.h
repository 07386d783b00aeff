#ifndef PARJ_RDF_NTRIPLES_H_
#define PARJ_RDF_NTRIPLES_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdf/term.h"

namespace parj::rdf {

/// Where one N-Triples term lies in its statement line, as validated by
/// ScanTerm. The views point into the scanned line.
struct TermSpan {
  TermKind kind = TermKind::kIri;
  /// The whole term as written: `<iri>`, `_:label`, or the quoted literal
  /// with any `@lang` / `^^<datatype>` suffix.
  std::string_view text;
  /// IRI without brackets, blank-node label without `_:`, or the literal
  /// body between the quotes, still escaped.
  std::string_view lexical;
  std::string_view datatype;  ///< literal datatype IRI, without brackets
  std::string_view lang;      ///< literal language tag, without '@'
  /// `text` is byte for byte the term's dictionary key
  /// (Term::AppendDictionaryKey): always for IRIs and blank nodes, and for
  /// literals whose body holds no '\\', raw tab or raw CR and whose
  /// datatype, if given, is not empty.
  bool text_is_key = false;
};

/// The three scanned terms of one statement line.
struct StatementSpans {
  TermSpan subject;
  TermSpan predicate;
  TermSpan object;
};

/// Scans one N-Triples term starting at `*pos` in `line` and advances
/// `*pos` past it. Validates everything ParseTerm does (escapes included)
/// but copies nothing. A blank-node label never ends in '.', so
/// `_:b.` scans as label `b` followed by the statement's dot.
Status ScanTerm(std::string_view line, size_t* pos, TermSpan* span);

/// Scans a single statement line ("<s> <p> <o> ." with optional
/// surrounding whitespace). Empty lines and `#` comment lines yield
/// Status::NotFound, which callers treat as "skip".
Status ScanStatementLine(std::string_view line, StatementSpans* spans);

/// Builds the term a span from ScanTerm denotes (unescaping a literal).
Term TermFromSpan(const TermSpan& span);

/// Parses one N-Triples term starting at `*pos` in `line`; advances `*pos`
/// past the term. Accepts IRIs, literals (plain, language-tagged, typed)
/// and blank nodes. ScanTerm followed by TermFromSpan.
Result<Term> ParseTerm(std::string_view line, size_t* pos);

/// Parses a single N-Triples statement line; ScanStatementLine followed by
/// TermFromSpan, with the same NotFound for blank and comment lines.
Result<Triple> ParseStatementLine(std::string_view line);

/// Splits `text` into chunks of about `chunk_bytes`, each extended to just
/// past the next newline so no line straddles two chunks (the last chunk
/// may lack the newline). Empty input yields no chunks.
std::vector<std::string_view> SplitNewlineChunks(std::string_view text,
                                                 size_t chunk_bytes);

/// Streaming N-Triples document parser.
class NTriplesParser {
 public:
  struct Options {
    /// When true, a malformed line aborts the parse; when false it is
    /// counted and skipped.
    bool strict = true;
  };

  NTriplesParser() = default;
  explicit NTriplesParser(Options options) : options_(options) {}

  /// Parses a whole document from a string, invoking `sink` per triple.
  Status ParseDocument(std::string_view text,
                       const std::function<void(Triple)>& sink);

  /// Parses a document from a stream (e.g. std::ifstream).
  Status ParseStream(std::istream& in,
                     const std::function<void(Triple)>& sink);

  /// Convenience: parse a whole document into a vector.
  Result<std::vector<Triple>> ParseToVector(std::string_view text);

  /// Number of malformed lines skipped in non-strict mode so far.
  uint64_t skipped_lines() const { return skipped_lines_; }
  /// Number of triples produced so far.
  uint64_t parsed_triples() const { return parsed_triples_; }

 private:
  Status HandleLine(std::string_view line, uint64_t line_no,
                    const std::function<void(Triple)>& sink);

  Options options_;
  uint64_t skipped_lines_ = 0;
  uint64_t parsed_triples_ = 0;
};

/// Serializes triples in N-Triples syntax, one statement per line.
void WriteNTriples(const std::vector<Triple>& triples, std::ostream& out);

}  // namespace parj::rdf

#endif  // PARJ_RDF_NTRIPLES_H_
