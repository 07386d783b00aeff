#include "rdf/ntriples.h"

#include <istream>
#include <ostream>

#include "common/logging.h"
#include "common/strings.h"

namespace parj::rdf {

namespace {

void SkipSpaces(std::string_view line, size_t* pos) {
  while (*pos < line.size() && (line[*pos] == ' ' || line[*pos] == '\t')) {
    ++(*pos);
  }
}

bool IsPnChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.';
}

}  // namespace

Status ScanTerm(std::string_view line, size_t* pos, TermSpan* span) {
  SkipSpaces(line, pos);
  if (*pos >= line.size()) {
    return Status::ParseError("expected term, found end of line");
  }
  const size_t begin = *pos;
  const char c = line[begin];
  span->datatype = {};
  span->lang = {};
  span->text_is_key = true;
  if (c == '<') {
    const size_t end = line.find('>', begin + 1);
    if (end == std::string_view::npos) {
      return Status::ParseError("unterminated IRI");
    }
    if (end == begin + 1) return Status::ParseError("empty IRI");
    span->kind = TermKind::kIri;
    span->lexical = line.substr(begin + 1, end - begin - 1);
    *pos = end + 1;
  } else if (c == '_') {
    if (begin + 1 >= line.size() || line[begin + 1] != ':') {
      return Status::ParseError("malformed blank node: expected _:");
    }
    const size_t start = begin + 2;
    size_t end = start;
    while (end < line.size() && IsPnChar(line[end])) ++end;
    // A label may hold '.' but not end in one: that dot ends the statement.
    while (end > start && line[end - 1] == '.') --end;
    if (end == start) return Status::ParseError("empty blank node label");
    span->kind = TermKind::kBlank;
    span->lexical = line.substr(start, end - start);
    *pos = end;
  } else if (c == '"') {
    // Find the closing quote, honouring backslash escapes and noting the
    // first one UnescapeLiteral would reject.
    size_t end = begin + 1;
    char bad_escape = '\0';
    bool escaped = false;
    for (; end < line.size(); ++end) {
      const char b = line[end];
      if (escaped) {
        escaped = false;
        if (bad_escape == '\0' && b != '\\' && b != '"' && b != 'n' &&
            b != 'r' && b != 't') {
          bad_escape = b;
        }
      } else if (b == '\\') {
        escaped = true;
        span->text_is_key = false;
      } else if (b == '"') {
        break;
      } else if (b == '\t' || b == '\r') {
        span->text_is_key = false;  // the key spells these as escapes
      }
    }
    if (end >= line.size()) {
      return Status::ParseError("unterminated literal");
    }
    if (bad_escape != '\0') {
      return Status::ParseError(std::string("unknown escape \\") + bad_escape);
    }
    span->kind = TermKind::kLiteral;
    span->lexical = line.substr(begin + 1, end - begin - 1);
    *pos = end + 1;
    // Optional language tag or datatype.
    if (*pos < line.size() && line[*pos] == '@') {
      const size_t start = *pos + 1;
      size_t lang_end = start;
      while (lang_end < line.size() &&
             (std::isalnum(static_cast<unsigned char>(line[lang_end])) ||
              line[lang_end] == '-')) {
        ++lang_end;
      }
      if (lang_end == start) return Status::ParseError("empty language tag");
      span->lang = line.substr(start, lang_end - start);
      *pos = lang_end;
    } else if (*pos + 1 < line.size() && line[*pos] == '^' &&
               line[*pos + 1] == '^') {
      *pos += 2;
      if (*pos >= line.size() || line[*pos] != '<') {
        return Status::ParseError("expected datatype IRI after ^^");
      }
      const size_t end_dt = line.find('>', *pos + 1);
      if (end_dt == std::string_view::npos) {
        return Status::ParseError("unterminated datatype IRI");
      }
      span->datatype = line.substr(*pos + 1, end_dt - *pos - 1);
      // `^^<>` denotes a plain literal, whose key has no suffix.
      if (span->datatype.empty()) span->text_is_key = false;
      *pos = end_dt + 1;
    }
  } else {
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' at start of term");
  }
  span->text = line.substr(begin, *pos - begin);
  return Status::OK();
}

Status ScanStatementLine(std::string_view raw, StatementSpans* spans) {
  std::string_view line = TrimWhitespace(raw);
  if (line.empty() || line[0] == '#') {
    return Status::NotFound("blank or comment line");
  }
  size_t pos = 0;
  PARJ_RETURN_NOT_OK(ScanTerm(line, &pos, &spans->subject));
  if (spans->subject.kind == TermKind::kLiteral) {
    return Status::ParseError("literal in subject position");
  }
  PARJ_RETURN_NOT_OK(ScanTerm(line, &pos, &spans->predicate));
  if (spans->predicate.kind != TermKind::kIri) {
    return Status::ParseError("predicate must be an IRI");
  }
  PARJ_RETURN_NOT_OK(ScanTerm(line, &pos, &spans->object));
  SkipSpaces(line, &pos);
  if (pos >= line.size() || line[pos] != '.') {
    return Status::ParseError("expected '.' terminating statement");
  }
  ++pos;
  SkipSpaces(line, &pos);
  if (pos != line.size()) {
    return Status::ParseError("trailing garbage after '.'");
  }
  return Status::OK();
}

Term TermFromSpan(const TermSpan& span) {
  switch (span.kind) {
    case TermKind::kIri:
      return Term::Iri(std::string(span.lexical));
    case TermKind::kBlank:
      return Term::Blank(std::string(span.lexical));
    case TermKind::kLiteral:
      break;
  }
  std::string value;
  if (span.lexical.find('\\') == std::string_view::npos) {
    value = std::string(span.lexical);
  } else {
    Result<std::string> unescaped = UnescapeLiteral(span.lexical);
    PARJ_CHECK(unescaped.ok()) << "ScanTerm admitted a bad escape: "
                               << unescaped.status().ToString();
    value = std::move(unescaped).value();
  }
  if (!span.lang.empty()) {
    return Term::LangLiteral(std::move(value), std::string(span.lang));
  }
  if (!span.datatype.empty()) {
    return Term::TypedLiteral(std::move(value), std::string(span.datatype));
  }
  return Term::Literal(std::move(value));
}

Result<Term> ParseTerm(std::string_view line, size_t* pos) {
  TermSpan span;
  PARJ_RETURN_NOT_OK(ScanTerm(line, pos, &span));
  return TermFromSpan(span);
}

Result<Triple> ParseStatementLine(std::string_view line) {
  StatementSpans spans;
  PARJ_RETURN_NOT_OK(ScanStatementLine(line, &spans));
  return Triple{TermFromSpan(spans.subject), TermFromSpan(spans.predicate),
                TermFromSpan(spans.object)};
}

Status NTriplesParser::HandleLine(std::string_view line, uint64_t line_no,
                                  const std::function<void(Triple)>& sink) {
  Result<Triple> triple = ParseStatementLine(line);
  if (triple.ok()) {
    ++parsed_triples_;
    sink(std::move(triple).value());
    return Status::OK();
  }
  if (triple.status().code() == StatusCode::kNotFound) {
    return Status::OK();  // blank line / comment
  }
  if (!options_.strict) {
    ++skipped_lines_;
    return Status::OK();
  }
  return Status::ParseError("line " + std::to_string(line_no) + ": " +
                            triple.status().message());
}

Status NTriplesParser::ParseDocument(std::string_view text,
                                     const std::function<void(Triple)>& sink) {
  uint64_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    std::string_view line = (end == std::string_view::npos)
                                ? text.substr(start)
                                : text.substr(start, end - start);
    ++line_no;
    PARJ_RETURN_NOT_OK(HandleLine(line, line_no, sink));
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return Status::OK();
}

Status NTriplesParser::ParseStream(std::istream& in,
                                   const std::function<void(Triple)>& sink) {
  std::string line;
  uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    PARJ_RETURN_NOT_OK(HandleLine(line, line_no, sink));
  }
  if (in.bad()) return Status::IoError("stream error while reading N-Triples");
  return Status::OK();
}

Result<std::vector<Triple>> NTriplesParser::ParseToVector(
    std::string_view text) {
  std::vector<Triple> out;
  Status st = ParseDocument(text, [&out](Triple t) { out.push_back(std::move(t)); });
  if (!st.ok()) return st;
  return out;
}

std::vector<std::string_view> SplitNewlineChunks(std::string_view text,
                                                 size_t chunk_bytes) {
  std::vector<std::string_view> chunks;
  if (chunk_bytes == 0) chunk_bytes = 1;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = pos + chunk_bytes;
    if (end >= text.size()) {
      end = text.size();
    } else {
      const size_t nl = text.find('\n', end - 1);
      end = (nl == std::string_view::npos) ? text.size() : nl + 1;
    }
    chunks.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return chunks;
}

void WriteNTriples(const std::vector<Triple>& triples, std::ostream& out) {
  for (const Triple& t : triples) {
    out << t.subject.ToNTriples() << " " << t.predicate.ToNTriples() << " "
        << t.object.ToNTriples() << " .\n";
  }
}

}  // namespace parj::rdf
