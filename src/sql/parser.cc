#include "sql/parser.h"

#include <map>

#include "sql/lexer.h"

namespace incdb {
namespace {

class Parser {
 public:
  Parser(const std::string& sql, std::vector<Token> tokens)
      : errors_(sql, "SQL query"), tokens_(std::move(tokens)) {}

  Result<SqlQuery> ParseQuery() {
    INCDB_ASSIGN_OR_RETURN(SqlQuery q, ParseQueryInner());
    if (!AtEof()) {
      return Error("unexpected trailing input");
    }
    return q;
  }

 private:
  Result<SqlQuery> ParseQueryInner() {
    SqlQuery q;
    INCDB_ASSIGN_OR_RETURN(SqlSelect first, ParseSelect());
    q.selects.push_back(std::move(first));
    while (AcceptKeyword("UNION")) {
      INCDB_ASSIGN_OR_RETURN(SqlSelect next, ParseSelect());
      q.selects.push_back(std::move(next));
    }
    return q;
  }

  Result<SqlSelect> ParseSelect() {
    SqlSelect sel;
    INCDB_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    sel.distinct = AcceptKeyword("DISTINCT");
    if (Accept(TokenType::kStar)) {
      sel.select_star = true;
    } else {
      for (;;) {
        INCDB_ASSIGN_OR_RETURN(SqlSelectItem item, ParseSelectItem());
        sel.items.push_back(std::move(item));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    INCDB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    for (;;) {
      SqlTableRef ref;
      INCDB_ASSIGN_OR_RETURN(ref.table, ExpectIdentifier("table name"));
      ref.alias = ref.table;
      (void)AcceptKeyword("AS");
      if (Peek().type == TokenType::kIdentifier) {
        ref.alias = Peek().text;
        Advance();
      }
      sel.from.push_back(std::move(ref));
      if (!Accept(TokenType::kComma)) break;
    }
    if (AcceptKeyword("WHERE")) {
      INCDB_ASSIGN_OR_RETURN(sel.where, ParseOr());
    }
    if (AcceptKeyword("GROUP")) {
      INCDB_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        INCDB_ASSIGN_OR_RETURN(SqlOperand col, ParseOperand());
        if (col.kind != SqlOperand::Kind::kColumn) {
          return Error("GROUP BY requires column references");
        }
        sel.group_by.push_back(std::move(col));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    return sel;
  }

  Result<SqlSelectItem> ParseSelectItem() {
    static const std::map<std::string, AggFunc> kAggs = {
        {"COUNT", AggFunc::kCount}, {"SUM", AggFunc::kSum},
        {"MIN", AggFunc::kMin},     {"MAX", AggFunc::kMax},
        {"AVG", AggFunc::kAvg},
    };
    if (Peek().type == TokenType::kKeyword && kAggs.count(Peek().text) > 0) {
      const AggFunc func = kAggs.at(Peek().text);
      Advance();
      INCDB_RETURN_IF_ERROR(Expect(TokenType::kLParen));
      if (func == AggFunc::kCount && Accept(TokenType::kStar)) {
        INCDB_RETURN_IF_ERROR(Expect(TokenType::kRParen));
        return SqlSelectItem::Aggregate(AggFunc::kCountStar, SqlOperand());
      }
      INCDB_ASSIGN_OR_RETURN(SqlOperand op, ParseOperand());
      INCDB_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      return SqlSelectItem::Aggregate(func, std::move(op));
    }
    INCDB_ASSIGN_OR_RETURN(SqlOperand op, ParseOperand());
    return SqlSelectItem::Plain(std::move(op));
  }

  Result<SqlConditionPtr> ParseOr() {
    INCDB_ASSIGN_OR_RETURN(SqlConditionPtr lhs, ParseAnd());
    while (AcceptKeyword("OR")) {
      INCDB_ASSIGN_OR_RETURN(SqlConditionPtr rhs, ParseAnd());
      auto node = std::make_shared<SqlCondition>();
      node->kind = SqlCondition::Kind::kOr;
      node->left = std::move(lhs);
      node->right = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<SqlConditionPtr> ParseAnd() {
    INCDB_ASSIGN_OR_RETURN(SqlConditionPtr lhs, ParseNot());
    while (AcceptKeyword("AND")) {
      INCDB_ASSIGN_OR_RETURN(SqlConditionPtr rhs, ParseNot());
      auto node = std::make_shared<SqlCondition>();
      node->kind = SqlCondition::Kind::kAnd;
      node->left = std::move(lhs);
      node->right = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<SqlConditionPtr> ParseNot() {
    if (AcceptKeyword("NOT")) {
      INCDB_ASSIGN_OR_RETURN(SqlConditionPtr inner, ParseNot());
      auto node = std::make_shared<SqlCondition>();
      node->kind = SqlCondition::Kind::kNot;
      node->left = std::move(inner);
      return node;
    }
    return ParsePrimary();
  }

  Result<SqlConditionPtr> ParsePrimary() {
    if (PeekKeyword("EXISTS")) {
      Advance();
      INCDB_RETURN_IF_ERROR(Expect(TokenType::kLParen));
      INCDB_ASSIGN_OR_RETURN(SqlQuery sub, ParseQueryInner());
      INCDB_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      auto node = std::make_shared<SqlCondition>();
      node->kind = SqlCondition::Kind::kExists;
      node->subquery = std::make_shared<SqlQuery>(std::move(sub));
      return node;
    }
    if (Peek().type == TokenType::kLParen) {
      // Either a parenthesized condition or nothing else starts with '(' in
      // condition position.
      Advance();
      INCDB_ASSIGN_OR_RETURN(SqlConditionPtr inner, ParseOr());
      INCDB_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      return inner;
    }
    // operand (comparison | IN | IS NULL)
    INCDB_ASSIGN_OR_RETURN(SqlOperand lhs, ParseOperand());
    // IS [NOT] NULL
    if (AcceptKeyword("IS")) {
      const bool negated = AcceptKeyword("NOT");
      INCDB_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      auto node = std::make_shared<SqlCondition>();
      node->kind = SqlCondition::Kind::kIsNull;
      node->lhs = std::move(lhs);
      node->negated = negated;
      return node;
    }
    // [NOT] IN (subquery)
    bool negated = false;
    if (PeekKeyword("NOT")) {
      // lookahead for IN
      if (PeekAt(1).type == TokenType::kKeyword && PeekAt(1).text == "IN") {
        Advance();
        negated = true;
      }
    }
    if (AcceptKeyword("IN")) {
      INCDB_RETURN_IF_ERROR(Expect(TokenType::kLParen));
      INCDB_ASSIGN_OR_RETURN(SqlQuery sub, ParseQueryInner());
      INCDB_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      auto node = std::make_shared<SqlCondition>();
      node->kind = SqlCondition::Kind::kIn;
      node->lhs = std::move(lhs);
      node->negated = negated;
      node->subquery = std::make_shared<SqlQuery>(std::move(sub));
      return node;
    }
    if (negated) return Error("expected IN after NOT");
    // comparison
    CmpOp op;
    switch (Peek().type) {
      case TokenType::kEq:
        op = CmpOp::kEq;
        break;
      case TokenType::kNe:
        op = CmpOp::kNe;
        break;
      case TokenType::kLt:
        op = CmpOp::kLt;
        break;
      case TokenType::kLe:
        op = CmpOp::kLe;
        break;
      case TokenType::kGt:
        op = CmpOp::kGt;
        break;
      case TokenType::kGe:
        op = CmpOp::kGe;
        break;
      default:
        return Error("expected comparison, IN, or IS NULL");
    }
    Advance();
    INCDB_ASSIGN_OR_RETURN(SqlOperand rhs, ParseOperand());
    auto node = std::make_shared<SqlCondition>();
    node->kind = SqlCondition::Kind::kCmp;
    node->op = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  Result<SqlOperand> ParseOperand() {
    const Token& t = Peek();
    if (t.type == TokenType::kInteger) {
      Advance();
      return SqlOperand::Literal(Value::Int(t.int_value));
    }
    if (t.type == TokenType::kString) {
      Advance();
      return SqlOperand::Literal(Value::Str(t.text));
    }
    if (t.type == TokenType::kIdentifier) {
      std::string first = t.text;
      Advance();
      if (Accept(TokenType::kDot)) {
        INCDB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column"));
        return SqlOperand::Column(std::move(first), std::move(col));
      }
      return SqlOperand::Column("", std::move(first));
    }
    return Error("expected operand (column, integer, or string)");
  }

  // --- token plumbing ---
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& PeekAt(size_t off) const {
    const size_t i = pos_ + off;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool AtEof() const { return Peek().type == TokenType::kEof; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool Accept(TokenType t) {
    if (Peek().type == t) {
      Advance();
      return true;
    }
    return false;
  }
  bool PeekKeyword(const std::string& kw) const {
    return Peek().type == TokenType::kKeyword && Peek().text == kw;
  }
  bool AcceptKeyword(const std::string& kw) {
    if (PeekKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Expect(TokenType t) {
    if (Accept(t)) return Status::OK();
    return Error("unexpected token");
  }
  Status ExpectKeyword(const std::string& kw) {
    if (AcceptKeyword(kw)) return Status::OK();
    return Error("expected " + kw);
  }
  Result<std::string> ExpectIdentifier(const std::string& what) {
    if (Peek().type == TokenType::kIdentifier) {
      std::string s = Peek().text;
      Advance();
      return s;
    }
    return Error("expected " + what);
  }
  Status Error(const std::string& msg) const {
    return errors_.ErrorAt(Peek().position, msg);
  }

  Scanner errors_;  // positions errors in the query text
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SqlQuery> ParseSql(const std::string& sql) {
  INCDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(sql, std::move(tokens));
  return parser.ParseQuery();
}

}  // namespace incdb
