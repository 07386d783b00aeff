#include "query/parser.h"

#include <cctype>
#include <unordered_map>

#include "common/strings.h"
#include "rdf/vocab.h"

namespace parj::query {

namespace {

enum class TokenKind {
  kEof,
  kKeyword,   // SELECT, DISTINCT, WHERE, PREFIX, LIMIT, FILTER, UNION, a
  kVariable,  // ?name
  kIri,       // <...>
  kPrefixedName,  // ns:local  (also bare "ns:" allowed)
  kLiteral,   // full term already parsed
  kInteger,   // bare number
  kPunct,     // { } . ; , * ( )
  kOperator,  // = != < <= > >= &&
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string text;       // keyword (upper-cased), variable name, iri, etc.
  rdf::Term literal;      // kLiteral
  uint64_t number = 0;    // kInteger
  char punct = 0;         // kPunct
  size_t offset = 0;      // for error messages
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<Token> Next() {
    SkipWhitespaceAndComments();
    Token tok;
    tok.offset = pos_;
    if (pos_ >= text_.size()) {
      tok.kind = TokenKind::kEof;
      return tok;
    }
    char c = text_[pos_];
    if (c == '{' || c == '}' || c == '.' || c == ';' || c == ',' ||
        c == '*' || c == '(' || c == ')') {
      ++pos_;
      tok.kind = TokenKind::kPunct;
      tok.punct = c;
      return tok;
    }
    if (c == '=' || c == '!' || c == '&' ||
        ((c == '<' || c == '>') && pos_ + 1 < text_.size() &&
         (text_[pos_ + 1] == '=' || text_[pos_ + 1] == ' ' ||
          text_[pos_ + 1] == '?' || text_[pos_ + 1] == '$' ||
          std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])) ||
          text_[pos_ + 1] == '"'))) {
      // '<' is only an operator when it cannot start an IRI: before '=',
      // whitespace, a variable sigil, a number or a quoted literal.
      // "< " / "<= " / "<5" are comparisons; "<http://..." stays an IRI.
      tok.kind = TokenKind::kOperator;
      if (c == '=' ) {
        tok.text = "=";
        ++pos_;
        return tok;
      }
      if (c == '!') {
        if (pos_ + 1 >= text_.size() || text_[pos_ + 1] != '=') {
          return Error("expected '=' after '!'");
        }
        tok.text = "!=";
        pos_ += 2;
        return tok;
      }
      if (c == '&') {
        if (pos_ + 1 >= text_.size() || text_[pos_ + 1] != '&') {
          return Error("expected '&' after '&'");
        }
        tok.text = "&&";
        pos_ += 2;
        return tok;
      }
      // '<' or '>'.
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
        tok.text = std::string(1, c) + "=";
        pos_ += 2;
      } else {
        tok.text = std::string(1, c);
        ++pos_;
      }
      return tok;
    }
    if (c == '>') {
      tok.kind = TokenKind::kOperator;
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
        tok.text = ">=";
        pos_ += 2;
      } else {
        tok.text = ">";
        ++pos_;
      }
      return tok;
    }
    if (c == '?' || c == '$') {
      ++pos_;
      size_t start = pos_;
      while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
      if (pos_ == start) return Error("empty variable name");
      tok.kind = TokenKind::kVariable;
      tok.text = std::string(text_.substr(start, pos_ - start));
      return tok;
    }
    if (c == '<') {
      size_t end = text_.find('>', pos_ + 1);
      if (end == std::string_view::npos) return Error("unterminated IRI");
      tok.kind = TokenKind::kIri;
      tok.text = std::string(text_.substr(pos_ + 1, end - pos_ - 1));
      pos_ = end + 1;
      return tok;
    }
    if (c == '"') {
      return LexLiteral();
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      tok.kind = TokenKind::kInteger;
      tok.number = std::stoull(std::string(text_.substr(start, pos_ - start)));
      tok.text = std::string(text_.substr(start, pos_ - start));
      return tok;
    }
    if (IsNameStartChar(c)) {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (IsNameChar(text_[pos_]) || text_[pos_] == ':')) {
        ++pos_;
      }
      std::string word(text_.substr(start, pos_ - start));
      if (word.find(':') != std::string::npos) {
        tok.kind = TokenKind::kPrefixedName;
        tok.text = std::move(word);
        return tok;
      }
      std::string upper = word;
      for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
      if (upper == "SELECT" || upper == "DISTINCT" || upper == "WHERE" ||
          upper == "PREFIX" || upper == "LIMIT" || upper == "FILTER" ||
          upper == "UNION" || upper == "GROUP" || upper == "BY" ||
          upper == "ORDER" || upper == "ASC" || upper == "DESC" ||
          upper == "AS" || upper == "COUNT" || upper == "SUM" ||
          upper == "MIN" || upper == "MAX") {
        tok.kind = TokenKind::kKeyword;
        tok.text = std::move(upper);
        return tok;
      }
      if (word == "a") {
        tok.kind = TokenKind::kKeyword;
        tok.text = "a";
        return tok;
      }
      return Error("unexpected word '" + word + "'");
    }
    return Error(std::string("unexpected character '") + c + "'");
  }

 private:
  static bool IsNameStartChar(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
  }

  Result<Token> LexLiteral() {
    size_t end = pos_ + 1;
    bool escaped = false;
    while (end < text_.size()) {
      if (escaped) {
        escaped = false;
      } else if (text_[end] == '\\') {
        escaped = true;
      } else if (text_[end] == '"') {
        break;
      }
      ++end;
    }
    if (end >= text_.size()) return Error("unterminated literal");
    PARJ_ASSIGN_OR_RETURN(
        std::string value,
        rdf::UnescapeLiteral(text_.substr(pos_ + 1, end - pos_ - 1)));
    pos_ = end + 1;
    Token tok;
    tok.kind = TokenKind::kLiteral;
    if (pos_ < text_.size() && text_[pos_] == '@') {
      size_t start = ++pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ == start) return Error("empty language tag");
      tok.literal = rdf::Term::LangLiteral(
          std::move(value), std::string(text_.substr(start, pos_ - start)));
      return tok;
    }
    if (pos_ + 1 < text_.size() && text_[pos_] == '^' &&
        text_[pos_ + 1] == '^') {
      pos_ += 2;
      if (pos_ >= text_.size() || text_[pos_] != '<') {
        return Error("expected datatype IRI after ^^");
      }
      size_t dt_end = text_.find('>', pos_ + 1);
      if (dt_end == std::string_view::npos) {
        return Error("unterminated datatype IRI");
      }
      tok.literal = rdf::Term::TypedLiteral(
          std::move(value),
          std::string(text_.substr(pos_ + 1, dt_end - pos_ - 1)));
      pos_ = dt_end + 1;
      return tok;
    }
    tok.literal = rdf::Term::Literal(std::move(value));
    return tok;
  }

  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  Status Error(std::string msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) {}

  Result<SelectQueryAst> Parse() {
    PARJ_RETURN_NOT_OK(Advance());
    SelectQueryAst ast;

    while (IsKeyword("PREFIX")) {
      PARJ_RETURN_NOT_OK(ParsePrefix());
    }

    if (!IsKeyword("SELECT")) {
      return Status::ParseError("expected SELECT");
    }
    PARJ_RETURN_NOT_OK(Advance());

    if (IsKeyword("DISTINCT")) {
      ast.distinct = true;
      PARJ_RETURN_NOT_OK(Advance());
    }

    if (IsPunct('*')) {
      ast.select_all = true;
      PARJ_RETURN_NOT_OK(Advance());
    } else {
      while (true) {
        if (current_.kind == TokenKind::kVariable) {
          ast.projection.push_back(current_.text);
          PARJ_RETURN_NOT_OK(Advance());
          continue;
        }
        if (IsPunct('(')) {
          PARJ_RETURN_NOT_OK(ParseAggregateExpr(&ast));
          continue;
        }
        break;
      }
      if (ast.projection.empty() && ast.aggregates.empty()) {
        return Status::ParseError("expected projection variables or *");
      }
    }
    if (!ast.aggregates.empty() && ast.distinct) {
      return Status::ParseError("DISTINCT with aggregates is not supported");
    }

    if (!IsKeyword("WHERE")) {
      return Status::ParseError("expected WHERE");
    }
    PARJ_RETURN_NOT_OK(Advance());
    if (!IsPunct('{')) return Status::ParseError("expected '{'");
    PARJ_RETURN_NOT_OK(Advance());

    if (IsPunct('{')) {
      // Union of group graph patterns: { {..} UNION {..} [UNION {..}]* }.
      bool first = true;
      while (true) {
        if (!IsPunct('{')) return Status::ParseError("expected '{'");
        PARJ_RETURN_NOT_OK(Advance());
        std::vector<TriplePatternAst> patterns;
        std::vector<FilterAst> filters;
        PARJ_RETURN_NOT_OK(ParseBgp(&patterns, &filters));
        if (!IsPunct('}')) return Status::ParseError("expected '}'");
        PARJ_RETURN_NOT_OK(Advance());
        if (first) {
          ast.patterns = std::move(patterns);
          ast.filters = std::move(filters);
          first = false;
        } else {
          ast.union_arms.push_back(
              SelectQueryAst::UnionArm{std::move(patterns),
                                       std::move(filters)});
        }
        if (!IsKeyword("UNION")) break;
        PARJ_RETURN_NOT_OK(Advance());
      }
    } else {
      PARJ_RETURN_NOT_OK(ParseBgp(&ast.patterns, &ast.filters));
    }

    if (!IsPunct('}')) return Status::ParseError("expected '}'");
    PARJ_RETURN_NOT_OK(Advance());

    if (IsKeyword("GROUP")) {
      PARJ_RETURN_NOT_OK(Advance());
      if (!IsKeyword("BY")) {
        return Status::ParseError("expected BY after GROUP");
      }
      PARJ_RETURN_NOT_OK(Advance());
      while (current_.kind == TokenKind::kVariable) {
        ast.group_by.push_back(current_.text);
        PARJ_RETURN_NOT_OK(Advance());
      }
      if (ast.group_by.empty()) {
        return Status::ParseError("expected variables after GROUP BY");
      }
    }

    if (IsKeyword("ORDER")) {
      PARJ_RETURN_NOT_OK(Advance());
      if (!IsKeyword("BY")) {
        return Status::ParseError("expected BY after ORDER");
      }
      PARJ_RETURN_NOT_OK(Advance());
      while (true) {
        OrderKeyAst key;
        if (IsKeyword("ASC") || IsKeyword("DESC")) {
          key.descending = IsKeyword("DESC");
          PARJ_RETURN_NOT_OK(Advance());
          if (!IsPunct('(')) {
            return Status::ParseError("expected '(' after ASC/DESC");
          }
          PARJ_RETURN_NOT_OK(Advance());
          if (current_.kind != TokenKind::kVariable) {
            return Status::ParseError("expected variable inside ASC/DESC");
          }
          key.var = current_.text;
          PARJ_RETURN_NOT_OK(Advance());
          if (!IsPunct(')')) {
            return Status::ParseError("expected ')' after ASC/DESC variable");
          }
          PARJ_RETURN_NOT_OK(Advance());
        } else if (current_.kind == TokenKind::kVariable) {
          key.var = current_.text;
          PARJ_RETURN_NOT_OK(Advance());
        } else {
          break;
        }
        ast.order_by.push_back(std::move(key));
      }
      if (ast.order_by.empty()) {
        return Status::ParseError("expected sort keys after ORDER BY");
      }
    }

    if ((!ast.aggregates.empty() || !ast.group_by.empty() ||
         !ast.order_by.empty()) &&
        !ast.union_arms.empty()) {
      return Status::ParseError(
          "GROUP BY / aggregates / ORDER BY are not supported with UNION");
    }

    if (IsKeyword("LIMIT")) {
      PARJ_RETURN_NOT_OK(Advance());
      if (current_.kind != TokenKind::kInteger) {
        return Status::ParseError("expected integer after LIMIT");
      }
      ast.limit = current_.number;
      PARJ_RETURN_NOT_OK(Advance());
    }

    if (current_.kind != TokenKind::kEof) {
      return Status::ParseError("trailing input after query");
    }
    if (ast.patterns.empty()) {
      return Status::ParseError("empty basic graph pattern");
    }
    return ast;
  }

 private:
  Status Advance() {
    PARJ_ASSIGN_OR_RETURN(current_, lexer_.Next());
    return Status::OK();
  }

  bool IsKeyword(std::string_view kw) const {
    return current_.kind == TokenKind::kKeyword && current_.text == kw;
  }
  bool IsPunct(char c) const {
    return current_.kind == TokenKind::kPunct && current_.punct == c;
  }

  Status ParsePrefix() {
    PARJ_RETURN_NOT_OK(Advance());  // consume PREFIX
    if (current_.kind != TokenKind::kPrefixedName ||
        current_.text.back() != ':' ||
        current_.text.find(':') != current_.text.size() - 1) {
      return Status::ParseError("expected 'name:' after PREFIX");
    }
    std::string prefix = current_.text.substr(0, current_.text.size() - 1);
    PARJ_RETURN_NOT_OK(Advance());
    if (current_.kind != TokenKind::kIri) {
      return Status::ParseError("expected IRI after PREFIX name");
    }
    prefixes_[prefix] = current_.text;
    return Advance();
  }

  /// '(' FUNC '(' (?var | '*') ')' AS ?alias ')' — one aggregate select
  /// expression; the leading '(' is the current token.
  Status ParseAggregateExpr(SelectQueryAst* ast) {
    PARJ_RETURN_NOT_OK(Advance());  // consume '('
    AggregateAst agg;
    bool is_count = false;
    if (IsKeyword("COUNT")) {
      is_count = true;
      agg.func = AggFunc::kCount;
    } else if (IsKeyword("SUM")) {
      agg.func = AggFunc::kSum;
    } else if (IsKeyword("MIN")) {
      agg.func = AggFunc::kMin;
    } else if (IsKeyword("MAX")) {
      agg.func = AggFunc::kMax;
    } else {
      return Status::ParseError("expected COUNT, SUM, MIN or MAX after '('");
    }
    PARJ_RETURN_NOT_OK(Advance());
    if (!IsPunct('(')) {
      return Status::ParseError("expected '(' after aggregate function");
    }
    PARJ_RETURN_NOT_OK(Advance());
    if (IsPunct('*')) {
      if (!is_count) {
        return Status::ParseError("'*' is only valid inside COUNT");
      }
      agg.func = AggFunc::kCountStar;
      PARJ_RETURN_NOT_OK(Advance());
    } else if (current_.kind == TokenKind::kVariable) {
      agg.arg = current_.text;
      PARJ_RETURN_NOT_OK(Advance());
    } else {
      return Status::ParseError("expected variable or '*' in aggregate");
    }
    if (!IsPunct(')')) {
      return Status::ParseError("expected ')' after aggregate argument");
    }
    PARJ_RETURN_NOT_OK(Advance());
    if (!IsKeyword("AS")) {
      return Status::ParseError("expected AS in aggregate expression");
    }
    PARJ_RETURN_NOT_OK(Advance());
    if (current_.kind != TokenKind::kVariable) {
      return Status::ParseError("expected variable after AS");
    }
    agg.alias = current_.text;
    PARJ_RETURN_NOT_OK(Advance());
    if (!IsPunct(')')) {
      return Status::ParseError("expected ')' closing aggregate expression");
    }
    PARJ_RETURN_NOT_OK(Advance());
    ast->aggregates.push_back(std::move(agg));
    return Status::OK();
  }

  Result<TermOrVar> ParseSlot(bool predicate_position) {
    switch (current_.kind) {
      case TokenKind::kVariable: {
        TermOrVar t = TermOrVar::Variable(current_.text);
        PARJ_RETURN_NOT_OK(Advance());
        return t;
      }
      case TokenKind::kIri: {
        TermOrVar t = TermOrVar::Constant(rdf::Term::Iri(current_.text));
        PARJ_RETURN_NOT_OK(Advance());
        return t;
      }
      case TokenKind::kPrefixedName: {
        size_t colon = current_.text.find(':');
        std::string prefix = current_.text.substr(0, colon);
        std::string local = current_.text.substr(colon + 1);
        auto it = prefixes_.find(prefix);
        if (it == prefixes_.end()) {
          return Status::ParseError("undefined prefix '" + prefix + ":'");
        }
        TermOrVar t = TermOrVar::Constant(rdf::Term::Iri(it->second + local));
        PARJ_RETURN_NOT_OK(Advance());
        return t;
      }
      case TokenKind::kLiteral: {
        if (predicate_position) {
          return Status::ParseError("literal in predicate position");
        }
        TermOrVar t = TermOrVar::Constant(current_.literal);
        PARJ_RETURN_NOT_OK(Advance());
        return t;
      }
      case TokenKind::kInteger: {
        if (predicate_position) {
          return Status::ParseError("number in predicate position");
        }
        TermOrVar t = TermOrVar::Constant(rdf::Term::TypedLiteral(
            current_.text, rdf::vocab::kXsdInteger));
        PARJ_RETURN_NOT_OK(Advance());
        return t;
      }
      case TokenKind::kKeyword:
        if (current_.text == "a" && predicate_position) {
          TermOrVar t =
              TermOrVar::Constant(rdf::Term::Iri(rdf::vocab::kRdfType));
          PARJ_RETURN_NOT_OK(Advance());
          return t;
        }
        [[fallthrough]];
      default:
        return Status::ParseError("expected term or variable at offset " +
                                  std::to_string(current_.offset));
    }
  }

  Result<FilterOp> ParseFilterOp() {
    if (current_.kind != TokenKind::kOperator) {
      return Status::ParseError("expected comparison operator in FILTER");
    }
    FilterOp op;
    if (current_.text == "=") {
      op = FilterOp::kEq;
    } else if (current_.text == "!=") {
      op = FilterOp::kNe;
    } else if (current_.text == "<") {
      op = FilterOp::kLt;
    } else if (current_.text == "<=") {
      op = FilterOp::kLe;
    } else if (current_.text == ">") {
      op = FilterOp::kGt;
    } else if (current_.text == ">=") {
      op = FilterOp::kGe;
    } else {
      return Status::ParseError("unknown operator '" + current_.text +
                                "' in FILTER");
    }
    PARJ_RETURN_NOT_OK(Advance());
    return op;
  }

  /// FILTER '(' cmp ('&&' cmp)* ')', each cmp appended to `filters`.
  Status ParseFilter(std::vector<FilterAst>* filters) {
    PARJ_RETURN_NOT_OK(Advance());  // consume FILTER
    if (!IsPunct('(')) return Status::ParseError("expected '(' after FILTER");
    PARJ_RETURN_NOT_OK(Advance());
    while (true) {
      FilterAst filter;
      PARJ_ASSIGN_OR_RETURN(filter.lhs, ParseSlot(false));
      PARJ_ASSIGN_OR_RETURN(filter.op, ParseFilterOp());
      PARJ_ASSIGN_OR_RETURN(filter.rhs, ParseSlot(false));
      filters->push_back(std::move(filter));
      if (current_.kind == TokenKind::kOperator && current_.text == "&&") {
        PARJ_RETURN_NOT_OK(Advance());
        continue;
      }
      break;
    }
    if (!IsPunct(')')) return Status::ParseError("expected ')' after FILTER");
    return Advance();
  }

  Status ParseBgp(std::vector<TriplePatternAst>* patterns,
                  std::vector<FilterAst>* filters) {
    while (!IsPunct('}')) {
      if (IsKeyword("FILTER")) {
        PARJ_RETURN_NOT_OK(ParseFilter(filters));
        if (IsPunct('.')) PARJ_RETURN_NOT_OK(Advance());
        continue;
      }
      PARJ_ASSIGN_OR_RETURN(TermOrVar subject, ParseSlot(false));
      // predicate-object list: p1 o1, o2 ; p2 o3 .
      while (true) {
        PARJ_ASSIGN_OR_RETURN(TermOrVar predicate, ParseSlot(true));
        while (true) {
          PARJ_ASSIGN_OR_RETURN(TermOrVar object, ParseSlot(false));
          patterns->push_back(
              TriplePatternAst{subject, predicate, object});
          if (IsPunct(',')) {
            PARJ_RETURN_NOT_OK(Advance());
            continue;
          }
          break;
        }
        if (IsPunct(';')) {
          PARJ_RETURN_NOT_OK(Advance());
          // Allow a dangling ';' before '.' or '}' (Turtle does).
          if (IsPunct('.') || IsPunct('}')) break;
          continue;
        }
        break;
      }
      if (IsPunct('.')) {
        PARJ_RETURN_NOT_OK(Advance());
        continue;
      }
      if (!IsPunct('}')) {
        return Status::ParseError("expected '.', ';', ',' or '}' in BGP");
      }
    }
    return Status::OK();
  }

  Lexer lexer_;
  Token current_;
  std::unordered_map<std::string, std::string> prefixes_;
};

}  // namespace

Result<SelectQueryAst> ParseQuery(std::string_view text) {
  Parser parser(text);
  return parser.Parse();
}

}  // namespace parj::query
