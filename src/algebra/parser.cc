#include "algebra/parser.h"

#include <cctype>
#include <limits>

#include "util/strings.h"

namespace incdb {
namespace {

class RAParser {
 public:
  explicit RAParser(const std::string& text) : text_(text) {}

  Result<RAExprPtr> Parse() {
    INCDB_ASSIGN_OR_RETURN(RAExprPtr e, Expr());
    SkipSpace();
    if (pos_ < text_.size()) {
      return Err("trailing input");
    }
    return e;
  }

 private:
  // Every recursive cycle in the grammar passes through Expr() or (for
  // predicates) PredNot(), so a shared depth counter at those two points
  // bounds the parse stack: pathologically nested input — e.g. thousands of
  // opening parens — fails with a parse error instead of overflowing.
  static constexpr int kMaxDepth = 200;
  struct DepthGuard {
    explicit DepthGuard(int& depth) : d(depth) { ++d; }
    ~DepthGuard() { --d; }
    int& d;
  };

  // expr := term (('U' | '-' | '&') term)*
  Result<RAExprPtr> Expr() {
    DepthGuard guard(depth_);
    if (depth_ > kMaxDepth) return Err("expression nested too deeply");
    INCDB_ASSIGN_OR_RETURN(RAExprPtr lhs, TermExpr());
    for (;;) {
      SkipSpace();
      if (AcceptWord("U") || AcceptWord("union")) {
        INCDB_ASSIGN_OR_RETURN(RAExprPtr rhs, TermExpr());
        lhs = RAExpr::Union(lhs, rhs);
      } else if (Accept('-')) {
        INCDB_ASSIGN_OR_RETURN(RAExprPtr rhs, TermExpr());
        lhs = RAExpr::Diff(lhs, rhs);
      } else if (Accept('&')) {
        INCDB_ASSIGN_OR_RETURN(RAExprPtr rhs, TermExpr());
        lhs = RAExpr::Intersect(lhs, rhs);
      } else {
        return lhs;
      }
    }
  }

  // term := factor (('x' | '/') factor)*
  Result<RAExprPtr> TermExpr() {
    INCDB_ASSIGN_OR_RETURN(RAExprPtr lhs, Factor());
    for (;;) {
      SkipSpace();
      if (AcceptWord("x")) {
        INCDB_ASSIGN_OR_RETURN(RAExprPtr rhs, Factor());
        lhs = RAExpr::Product(lhs, rhs);
      } else if (Accept('/')) {
        INCDB_ASSIGN_OR_RETURN(RAExprPtr rhs, Factor());
        lhs = RAExpr::Divide(lhs, rhs);
      } else {
        return lhs;
      }
    }
  }

  Result<RAExprPtr> Factor() {
    SkipSpace();
    if (Accept('(')) {
      INCDB_ASSIGN_OR_RETURN(RAExprPtr e, Expr());
      INCDB_RETURN_IF_ERROR(Expect(')'));
      return e;
    }
    if (PeekNonSpace() == '{') return RelLiteral();
    INCDB_ASSIGN_OR_RETURN(std::string word, Identifier());
    const std::string lower = ToLower(word);
    if (lower == "delta") return RAExpr::Delta();
    // `sel` / `proj` act as operators only when followed by their bracket,
    // so relations named Sel or Proj still parse as scans.
    if (lower == "sel" && PeekNonSpace() == '[') {
      INCDB_RETURN_IF_ERROR(Expect('['));
      INCDB_ASSIGN_OR_RETURN(PredicatePtr p, PredOr());
      INCDB_RETURN_IF_ERROR(Expect(']'));
      INCDB_RETURN_IF_ERROR(Expect('('));
      INCDB_ASSIGN_OR_RETURN(RAExprPtr e, Expr());
      INCDB_RETURN_IF_ERROR(Expect(')'));
      return RAExpr::Select(p, e);
    }
    if (lower == "proj" && PeekNonSpace() == '{') {
      INCDB_RETURN_IF_ERROR(Expect('{'));
      std::vector<size_t> cols;
      SkipSpace();
      if (!Accept('}')) {
        for (;;) {
          INCDB_ASSIGN_OR_RETURN(int64_t n, Integer());
          if (n < 0) return Err("negative projection column");
          cols.push_back(static_cast<size_t>(n));
          SkipSpace();
          if (Accept('}')) break;
          INCDB_RETURN_IF_ERROR(Expect(','));
        }
      }
      INCDB_RETURN_IF_ERROR(Expect('('));
      INCDB_ASSIGN_OR_RETURN(RAExprPtr e, Expr());
      INCDB_RETURN_IF_ERROR(Expect(')'));
      return RAExpr::Project(std::move(cols), e);
    }
    // A relation name.
    return RAExpr::Scan(word);
  }

  // Relation literal, round-tripping Relation::ToString():
  //   literal := '{' [ tuple (',' tuple)* ] '}'
  //   tuple   := '(' value (',' value)* ')'
  //   value   := integer | 'string' | _k (marked null)
  // The empty literal `{}` has arity 0 (the Boolean false relation); empty
  // relations of higher arity have no literal syntax — name one in the
  // database instead.
  Result<RAExprPtr> RelLiteral() {
    INCDB_RETURN_IF_ERROR(Expect('{'));
    SkipSpace();
    if (Accept('}')) return RAExpr::ConstRel(Relation(0));
    std::vector<Tuple> tuples;
    size_t arity = 0;
    for (;;) {
      INCDB_RETURN_IF_ERROR(Expect('('));
      std::vector<Value> vals;
      for (;;) {
        INCDB_ASSIGN_OR_RETURN(Value v, LiteralValue());
        vals.push_back(std::move(v));
        SkipSpace();
        if (Accept(')')) break;
        INCDB_RETURN_IF_ERROR(Expect(','));
      }
      if (tuples.empty()) {
        arity = vals.size();
      } else if (vals.size() != arity) {
        return Err("relation literal tuples have mixed arities");
      }
      tuples.push_back(Tuple(std::move(vals)));
      SkipSpace();
      if (Accept('}')) break;
      INCDB_RETURN_IF_ERROR(Expect(','));
    }
    return RAExpr::ConstRel(Relation(arity, std::move(tuples)));
  }

  Result<Value> LiteralValue() {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '_') {
      ++pos_;
      INCDB_ASSIGN_OR_RETURN(int64_t n, Integer());
      if (n < 0) return Err("negative null id");
      if (n > std::numeric_limits<NullId>::max()) {
        return Err("null id out of range");
      }
      return Value::Null(static_cast<NullId>(n));
    }
    if (pos_ < text_.size() && text_[pos_] == '\'') {
      ++pos_;
      std::string s;
      while (pos_ < text_.size() && text_[pos_] != '\'') s += text_[pos_++];
      INCDB_RETURN_IF_ERROR(Expect('\''));
      return Value::Str(std::move(s));
    }
    INCDB_ASSIGN_OR_RETURN(int64_t n, Integer());
    return Value::Int(n);
  }

  // --- predicates ---
  Result<PredicatePtr> PredOr() {
    INCDB_ASSIGN_OR_RETURN(PredicatePtr lhs, PredAnd());
    while (AcceptWordCI("OR")) {
      INCDB_ASSIGN_OR_RETURN(PredicatePtr rhs, PredAnd());
      lhs = Predicate::Or(lhs, rhs);
    }
    return lhs;
  }

  Result<PredicatePtr> PredAnd() {
    INCDB_ASSIGN_OR_RETURN(PredicatePtr lhs, PredNot());
    while (AcceptWordCI("AND")) {
      INCDB_ASSIGN_OR_RETURN(PredicatePtr rhs, PredNot());
      lhs = Predicate::And(lhs, rhs);
    }
    return lhs;
  }

  Result<PredicatePtr> PredNot() {
    DepthGuard guard(depth_);
    if (depth_ > kMaxDepth) return Err("predicate nested too deeply");
    if (AcceptWordCI("NOT")) {
      INCDB_ASSIGN_OR_RETURN(PredicatePtr p, PredNot());
      return Predicate::Not(p);
    }
    return PredPrimary();
  }

  Result<PredicatePtr> PredPrimary() {
    SkipSpace();
    if (Accept('(')) {
      INCDB_ASSIGN_OR_RETURN(PredicatePtr p, PredOr());
      INCDB_RETURN_IF_ERROR(Expect(')'));
      return p;
    }
    if (AcceptWordCI("TRUE")) return Predicate::True();
    if (AcceptWordCI("FALSE")) return Predicate::False();
    INCDB_ASSIGN_OR_RETURN(::incdb::Term lhs, PredTerm());
    if (AcceptWordCI("IS")) {
      const bool negated = AcceptWordCI("NOT");
      if (!AcceptWordCI("NULL")) return Err("expected NULL after IS");
      PredicatePtr p = Predicate::IsNull(lhs);
      return negated ? Predicate::Not(p) : p;
    }
    SkipSpace();
    CmpOp op;
    if (AcceptStr("<>") || AcceptStr("!=")) {
      op = CmpOp::kNe;
    } else if (AcceptStr("<=")) {
      op = CmpOp::kLe;
    } else if (AcceptStr(">=")) {
      op = CmpOp::kGe;
    } else if (Accept('=')) {
      op = CmpOp::kEq;
    } else if (Accept('<')) {
      op = CmpOp::kLt;
    } else if (Accept('>')) {
      op = CmpOp::kGt;
    } else {
      return Err("expected comparison operator");
    }
    INCDB_ASSIGN_OR_RETURN(::incdb::Term rhs, PredTerm());
    return Predicate::Cmp(op, lhs, rhs);
  }

  Result<::incdb::Term> PredTerm() {
    SkipSpace();
    if (Accept('#')) {
      INCDB_ASSIGN_OR_RETURN(int64_t n, Integer());
      if (n < 0) return Err("negative column index");
      return ::incdb::Term::Column(static_cast<size_t>(n));
    }
    if (pos_ < text_.size() && text_[pos_] == '\'') {
      ++pos_;
      std::string s;
      while (pos_ < text_.size() && text_[pos_] != '\'') s += text_[pos_++];
      INCDB_RETURN_IF_ERROR(Expect('\''));
      return ::incdb::Term::Const(Value::Str(std::move(s)));
    }
    INCDB_ASSIGN_OR_RETURN(int64_t n, Integer());
    return ::incdb::Term::Const(Value::Int(n));
  }

  // --- lexing helpers ---
  char PeekNonSpace() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Accept(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptStr(const std::string& s) {
    SkipSpace();
    if (text_.compare(pos_, s.size(), s) == 0) {
      pos_ += s.size();
      return true;
    }
    return false;
  }
  // Word: must be delimited (not part of a longer identifier).
  bool AcceptWord(const std::string& w) {
    SkipSpace();
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    const size_t end = pos_ + w.size();
    if (end < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[end])) ||
         text_[end] == '_')) {
      return false;
    }
    pos_ = end;
    return true;
  }
  bool AcceptWordCI(const std::string& w) {
    SkipSpace();
    if (pos_ + w.size() > text_.size()) return false;
    for (size_t i = 0; i < w.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(text_[pos_ + i])) !=
          std::toupper(static_cast<unsigned char>(w[i]))) {
        return false;
      }
    }
    const size_t end = pos_ + w.size();
    if (end < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[end])) ||
         text_[end] == '_')) {
      return false;
    }
    pos_ = end;
    return true;
  }
  Status Expect(char c) {
    if (Accept(c)) return Status::OK();
    return Err(std::string("expected '") + c + "'");
  }
  Result<std::string> Identifier() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected identifier");
    return text_.substr(start, pos_ - start);
  }
  Result<int64_t> Integer() {
    SkipSpace();
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return Err("expected integer");
    }
    const std::optional<int64_t> v = ParseDecimal<int64_t>(
        std::string_view(text_).substr(start, pos_ - start));
    if (!v) {
      pos_ = start;
      return Err("integer out of range");
    }
    return *v;
  }
  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_) +
                              " in RA expression");
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<RAExprPtr> ParseRA(const std::string& text) {
  RAParser p(text);
  return p.Parse();
}

}  // namespace incdb
