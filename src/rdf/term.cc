#include "rdf/term.h"

namespace parj::rdf {

std::string EscapeLiteral(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

Result<std::string> UnescapeLiteral(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (size_t i = 0; i < value.size(); ++i) {
    char c = value[i];
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (i + 1 >= value.size()) {
      return Status::ParseError("dangling escape at end of literal");
    }
    char e = value[++i];
    switch (e) {
      case '\\':
        out.push_back('\\');
        break;
      case '"':
        out.push_back('"');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 't':
        out.push_back('\t');
        break;
      default:
        return Status::ParseError(std::string("unknown escape \\") + e);
    }
  }
  return out;
}

namespace {

/// EscapeLiteral, appending into an existing buffer (no temporary string).
void AppendEscapedLiteral(std::string_view value, std::string* out) {
  for (char c : value) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '"':
        out->append("\\\"");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        out->push_back(c);
    }
  }
}

}  // namespace

void Term::AppendNTriples(std::string* out) const {
  switch (kind_) {
    case TermKind::kIri:
      out->push_back('<');
      out->append(lexical_);
      out->push_back('>');
      return;
    case TermKind::kBlank:
      out->append("_:");
      out->append(lexical_);
      return;
    case TermKind::kLiteral:
      out->push_back('"');
      AppendEscapedLiteral(lexical_, out);
      out->push_back('"');
      if (!lang_.empty()) {
        out->push_back('@');
        out->append(lang_);
      } else if (!datatype_.empty()) {
        out->append("^^<");
        out->append(datatype_);
        out->push_back('>');
      }
      return;
  }
}

Result<Term> Term::FromParts(uint8_t kind, std::string lexical,
                             std::string datatype, std::string lang) {
  if (kind > static_cast<uint8_t>(TermKind::kBlank)) {
    return Status::ParseError("term has unknown kind " + std::to_string(kind));
  }
  if (!datatype.empty() && !lang.empty()) {
    return Status::ParseError("term has both a datatype and a language tag");
  }
  const TermKind term_kind = static_cast<TermKind>(kind);
  if (term_kind != TermKind::kLiteral) {
    if (!datatype.empty() || !lang.empty()) {
      return Status::ParseError(
          "non-literal term has a datatype or language tag");
    }
    return term_kind == TermKind::kIri ? Iri(std::move(lexical))
                                       : Blank(std::move(lexical));
  }
  if (!lang.empty()) return LangLiteral(std::move(lexical), std::move(lang));
  if (!datatype.empty()) {
    return TypedLiteral(std::move(lexical), std::move(datatype));
  }
  return Literal(std::move(lexical));
}

std::string Term::ToNTriples() const {
  std::string out;
  AppendNTriples(&out);
  return out;
}

}  // namespace parj::rdf
