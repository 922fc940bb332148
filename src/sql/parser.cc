#include "sql/parser.h"

#include <charconv>
#include <cstdlib>

#include "sql/lexer.h"

namespace dpe::sql {

namespace {

/// Token-stream cursor with the usual peek/match/expect helpers.
class Cursor {
 public:
  explicit Cursor(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  bool AtEnd() const { return pos_ >= tokens_.size(); }

  const Token& Peek() const {
    static const Token kEnd{TokenKind::kEnd, "", 0};
    return AtEnd() ? kEnd : tokens_[pos_];
  }

  Token Advance() {
    Token t = Peek();
    if (!AtEnd()) ++pos_;
    return t;
  }

  bool MatchKeyword(std::string_view kw) {
    if (Peek().kind == TokenKind::kKeyword && Peek().lexeme == kw) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool MatchPunct(std::string_view p) {
    if (Peek().kind == TokenKind::kPunct && Peek().lexeme == p) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool MatchOperator(std::string_view op) {
    if (Peek().kind == TokenKind::kOperator && Peek().lexeme == op) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ExpectKeyword(std::string_view kw) {
    if (MatchKeyword(kw)) return Status::OK();
    return Status::ParseError("expected keyword " + std::string(kw) +
                              ", found '" + Peek().lexeme + "'");
  }

  Status ExpectPunct(std::string_view p) {
    if (MatchPunct(p)) return Status::OK();
    return Status::ParseError("expected '" + std::string(p) + "', found '" +
                              Peek().lexeme + "'");
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : cur_(std::move(tokens)) {}

  Result<SelectQuery> ParseSelect() {
    SelectQuery q;
    DPE_RETURN_NOT_OK(cur_.ExpectKeyword("SELECT"));
    q.distinct = cur_.MatchKeyword("DISTINCT");
    DPE_RETURN_NOT_OK(ParseSelectList(&q));
    DPE_RETURN_NOT_OK(cur_.ExpectKeyword("FROM"));
    DPE_ASSIGN_OR_RETURN(q.from, ParseTableRef());
    while (cur_.MatchKeyword("INNER") || Peek("JOIN")) {
      DPE_RETURN_NOT_OK(cur_.ExpectKeyword("JOIN"));
      JoinClause j;
      DPE_ASSIGN_OR_RETURN(j.table, ParseTableRef());
      DPE_RETURN_NOT_OK(cur_.ExpectKeyword("ON"));
      DPE_ASSIGN_OR_RETURN(j.left, ParseColumnRef());
      if (!cur_.MatchOperator("=")) {
        return Status::ParseError("JOIN condition must be an equality");
      }
      DPE_ASSIGN_OR_RETURN(j.right, ParseColumnRef());
      q.joins.push_back(std::move(j));
    }
    if (cur_.MatchKeyword("WHERE")) {
      DPE_ASSIGN_OR_RETURN(q.where, ParseOr());
    }
    if (cur_.MatchKeyword("GROUP")) {
      DPE_RETURN_NOT_OK(cur_.ExpectKeyword("BY"));
      do {
        DPE_ASSIGN_OR_RETURN(ColumnRef c, ParseColumnRef());
        q.group_by.push_back(std::move(c));
      } while (cur_.MatchPunct(","));
    }
    if (cur_.MatchKeyword("ORDER")) {
      DPE_RETURN_NOT_OK(cur_.ExpectKeyword("BY"));
      do {
        OrderItem item;
        DPE_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
        if (cur_.MatchKeyword("DESC")) {
          item.ascending = false;
        } else {
          cur_.MatchKeyword("ASC");
        }
        q.order_by.push_back(std::move(item));
      } while (cur_.MatchPunct(","));
    }
    if (cur_.MatchKeyword("LIMIT")) {
      const Token t = cur_.Advance();
      if (t.kind != TokenKind::kInteger) {
        return Status::ParseError("LIMIT expects an integer");
      }
      DPE_ASSIGN_OR_RETURN(Literal limit, LiteralFromToken(t));
      q.limit = limit.int_value();
    }
    if (!cur_.AtEnd()) {
      return Status::ParseError("trailing tokens after query: '" +
                                cur_.Peek().lexeme + "'");
    }
    return q;
  }

 private:
  bool Peek(std::string_view kw) const {
    return cur_.Peek().kind == TokenKind::kKeyword && cur_.Peek().lexeme == kw;
  }

  static bool IsAggKeyword(const std::string& kw, AggFn* fn) {
    if (kw == "COUNT") *fn = AggFn::kCount;
    else if (kw == "SUM") *fn = AggFn::kSum;
    else if (kw == "AVG") *fn = AggFn::kAvg;
    else if (kw == "MIN") *fn = AggFn::kMin;
    else if (kw == "MAX") *fn = AggFn::kMax;
    else return false;
    return true;
  }

  Status ParseSelectList(SelectQuery* q) {
    do {
      SelectItem item;
      AggFn fn = AggFn::kNone;
      if (cur_.Peek().kind == TokenKind::kKeyword &&
          IsAggKeyword(cur_.Peek().lexeme, &fn)) {
        cur_.Advance();
        DPE_RETURN_NOT_OK(cur_.ExpectPunct("("));
        if (cur_.MatchPunct("*")) {
          if (fn != AggFn::kCount) {
            return Status::ParseError("only COUNT may take *");
          }
          item = SelectItem::CountStar();
        } else {
          DPE_ASSIGN_OR_RETURN(ColumnRef c, ParseColumnRef());
          item = SelectItem::Agg(fn, std::move(c));
        }
        DPE_RETURN_NOT_OK(cur_.ExpectPunct(")"));
      } else if (cur_.MatchPunct("*")) {
        item = SelectItem::Star();
      } else {
        DPE_ASSIGN_OR_RETURN(ColumnRef c, ParseColumnRef());
        item = SelectItem::Col(std::move(c));
      }
      q->items.push_back(std::move(item));
    } while (cur_.MatchPunct(","));
    if (q->items.empty()) return Status::ParseError("empty select list");
    return Status::OK();
  }

  Result<TableRef> ParseTableRef() {
    const Token t = cur_.Advance();
    if (t.kind != TokenKind::kIdentifier) {
      return Status::ParseError("expected relation name, found '" + t.lexeme +
                                "'");
    }
    TableRef ref;
    ref.name = t.lexeme;
    if (cur_.MatchKeyword("AS")) {
      const Token a = cur_.Advance();
      if (a.kind != TokenKind::kIdentifier) {
        return Status::ParseError("expected alias after AS");
      }
      ref.alias = a.lexeme;
    } else if (cur_.Peek().kind == TokenKind::kIdentifier) {
      ref.alias = cur_.Advance().lexeme;
    }
    return ref;
  }

  Result<ColumnRef> ParseColumnRef() {
    const Token t = cur_.Advance();
    if (t.kind != TokenKind::kIdentifier) {
      return Status::ParseError("expected column name, found '" + t.lexeme +
                                "'");
    }
    ColumnRef c;
    c.name = t.lexeme;
    if (cur_.MatchPunct(".")) {
      const Token n = cur_.Advance();
      if (n.kind != TokenKind::kIdentifier) {
        return Status::ParseError("expected column after '.'");
      }
      c.relation = t.lexeme;
      c.name = n.lexeme;
    }
    return c;
  }

  Result<Literal> ParseLiteral() { return LiteralFromToken(cur_.Advance()); }

  Result<PredicatePtr> ParseOr() {
    DPE_ASSIGN_OR_RETURN(PredicatePtr first, ParseAnd());
    if (!Peek("OR")) return first;
    std::vector<PredicatePtr> children;
    children.push_back(std::move(first));
    while (cur_.MatchKeyword("OR")) {
      DPE_ASSIGN_OR_RETURN(PredicatePtr next, ParseAnd());
      children.push_back(std::move(next));
    }
    return Predicate::Or(std::move(children));
  }

  Result<PredicatePtr> ParseAnd() {
    DPE_ASSIGN_OR_RETURN(PredicatePtr first, ParseUnary());
    if (!Peek("AND")) return first;
    std::vector<PredicatePtr> children;
    children.push_back(std::move(first));
    while (cur_.MatchKeyword("AND")) {
      DPE_ASSIGN_OR_RETURN(PredicatePtr next, ParseUnary());
      children.push_back(std::move(next));
    }
    return Predicate::And(std::move(children));
  }

  Result<PredicatePtr> ParseUnary() {
    if (cur_.MatchKeyword("NOT")) {
      DPE_ASSIGN_OR_RETURN(PredicatePtr child, ParseUnary());
      return Predicate::Not(std::move(child));
    }
    if (cur_.MatchPunct("(")) {
      DPE_ASSIGN_OR_RETURN(PredicatePtr inner, ParseOr());
      DPE_RETURN_NOT_OK(cur_.ExpectPunct(")"));
      return inner;
    }
    return ParseAtom();
  }

  Result<PredicatePtr> ParseAtom() {
    DPE_ASSIGN_OR_RETURN(ColumnRef c, ParseColumnRef());
    if (cur_.MatchKeyword("BETWEEN")) {
      DPE_ASSIGN_OR_RETURN(Literal lo, ParseLiteral());
      DPE_RETURN_NOT_OK(cur_.ExpectKeyword("AND"));
      DPE_ASSIGN_OR_RETURN(Literal hi, ParseLiteral());
      return Predicate::Between(std::move(c), std::move(lo), std::move(hi));
    }
    if (cur_.MatchKeyword("IN")) {
      DPE_RETURN_NOT_OK(cur_.ExpectPunct("("));
      std::vector<Literal> values;
      do {
        DPE_ASSIGN_OR_RETURN(Literal v, ParseLiteral());
        values.push_back(std::move(v));
      } while (cur_.MatchPunct(","));
      DPE_RETURN_NOT_OK(cur_.ExpectPunct(")"));
      return Predicate::In(std::move(c), std::move(values));
    }
    const Token opt = cur_.Advance();
    if (opt.kind != TokenKind::kOperator) {
      return Status::ParseError("expected comparison operator, found '" +
                                opt.lexeme + "'");
    }
    CompareOp op;
    if (opt.lexeme == "=") op = CompareOp::kEq;
    else if (opt.lexeme == "<>") op = CompareOp::kNe;
    else if (opt.lexeme == "<") op = CompareOp::kLt;
    else if (opt.lexeme == "<=") op = CompareOp::kLe;
    else if (opt.lexeme == ">") op = CompareOp::kGt;
    else if (opt.lexeme == ">=") op = CompareOp::kGe;
    else return Status::ParseError("unknown operator " + opt.lexeme);
    // Column-vs-column or column-vs-literal.
    if (cur_.Peek().kind == TokenKind::kIdentifier) {
      DPE_ASSIGN_OR_RETURN(ColumnRef rhs, ParseColumnRef());
      return Predicate::ColumnCompare(std::move(c), op, std::move(rhs));
    }
    DPE_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
    return Predicate::Compare(std::move(c), op, std::move(lit));
  }

  Cursor cur_;
};

}  // namespace

Result<Literal> LiteralFromToken(const Token& token) {
  const std::string& lexeme = token.lexeme;
  switch (token.kind) {
    case TokenKind::kInteger: {
      int64_t v = 0;
      const char* end = lexeme.data() + lexeme.size();
      const auto [ptr, ec] = std::from_chars(lexeme.data(), end, v);
      if (ec != std::errc() || ptr != end) {
        return Status::ParseError("integer literal out of range: " + lexeme);
      }
      return Literal::Int(v);
    }
    case TokenKind::kFloat:
      return Literal::Double(std::strtod(lexeme.c_str(), nullptr));
    case TokenKind::kString: {
      // Strip quotes, un-escape ''.
      std::string body;
      for (size_t i = 1; i + 1 < lexeme.size(); ++i) {
        if (lexeme[i] == '\'' && i + 2 < lexeme.size() &&
            lexeme[i + 1] == '\'') {
          body += '\'';
          ++i;
        } else {
          body += lexeme[i];
        }
      }
      return Literal::String(std::move(body));
    }
    default:
      return Status::ParseError("expected literal, found '" + lexeme + "'");
  }
}

Result<SelectQuery> Parse(std::string_view text) {
  DPE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  Parser parser(std::move(tokens));
  return parser.ParseSelect();
}

}  // namespace dpe::sql
