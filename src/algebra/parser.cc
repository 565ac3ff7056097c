#include "algebra/parser.h"

#include "core/io.h"
#include "util/scanner.h"
#include "util/strings.h"

namespace incdb {
namespace {

class RAParser {
 public:
  explicit RAParser(const std::string& text) : s_(text, "RA expression") {}

  Result<RAExprPtr> Parse() {
    INCDB_ASSIGN_OR_RETURN(RAExprPtr e, Expr());
    if (!s_.AtEnd()) return s_.Error("trailing input");
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
    if (depth_ > kMaxDepth) return s_.Error("expression nested too deeply");
    INCDB_ASSIGN_OR_RETURN(RAExprPtr lhs, TermExpr());
    for (;;) {
      if (s_.AcceptWord("U") || s_.AcceptWord("union")) {
        INCDB_ASSIGN_OR_RETURN(RAExprPtr rhs, TermExpr());
        lhs = RAExpr::Union(lhs, rhs);
      } else if (s_.Accept('-')) {
        INCDB_ASSIGN_OR_RETURN(RAExprPtr rhs, TermExpr());
        lhs = RAExpr::Diff(lhs, rhs);
      } else if (s_.Accept('&')) {
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
      if (s_.AcceptWord("x")) {
        INCDB_ASSIGN_OR_RETURN(RAExprPtr rhs, Factor());
        lhs = RAExpr::Product(lhs, rhs);
      } else if (s_.Accept('/')) {
        INCDB_ASSIGN_OR_RETURN(RAExprPtr rhs, Factor());
        lhs = RAExpr::Divide(lhs, rhs);
      } else {
        return lhs;
      }
    }
  }

  Result<RAExprPtr> Factor() {
    if (s_.Accept('(')) {
      INCDB_ASSIGN_OR_RETURN(RAExprPtr e, Expr());
      INCDB_RETURN_IF_ERROR(s_.Expect(')'));
      return e;
    }
    if (s_.Peek() == '{') return RelLiteral();
    const std::string word(s_.ReadWord());
    if (word.empty()) return s_.Error("expected identifier");
    const std::string lower = ToLower(word);
    if (lower == "delta") return RAExpr::Delta();
    // `sel` / `proj` act as operators only when followed by their bracket,
    // so relations named Sel or Proj still parse as scans.
    if (lower == "sel" && s_.Accept('[')) {
      INCDB_ASSIGN_OR_RETURN(PredicatePtr p, PredOr());
      INCDB_RETURN_IF_ERROR(s_.Expect(']'));
      INCDB_RETURN_IF_ERROR(s_.Expect('('));
      INCDB_ASSIGN_OR_RETURN(RAExprPtr e, Expr());
      INCDB_RETURN_IF_ERROR(s_.Expect(')'));
      return RAExpr::Select(p, e);
    }
    if (lower == "proj" && s_.Accept('{')) {
      std::vector<size_t> cols;
      if (!s_.Accept('}')) {
        for (;;) {
          INCDB_ASSIGN_OR_RETURN(int64_t n, s_.ReadInt());
          if (n < 0) return s_.Error("negative projection column");
          cols.push_back(static_cast<size_t>(n));
          if (s_.Accept('}')) break;
          INCDB_RETURN_IF_ERROR(s_.Expect(','));
        }
      }
      INCDB_RETURN_IF_ERROR(s_.Expect('('));
      INCDB_ASSIGN_OR_RETURN(RAExprPtr e, Expr());
      INCDB_RETURN_IF_ERROR(s_.Expect(')'));
      return RAExpr::Project(std::move(cols), e);
    }
    // A relation name.
    return RAExpr::Scan(word);
  }

  // Relation literal, round-tripping Relation::ToString():
  //   literal := '{' [ tuple (',' tuple)* ] '}'
  //   tuple   := '(' value (',' value)* ')'
  // with values in the core/io.h syntax. The empty literal `{}` has arity
  // 0 (the Boolean false relation); empty relations of higher arity have
  // no literal syntax — name one in the database instead.
  Result<RAExprPtr> RelLiteral() {
    INCDB_RETURN_IF_ERROR(s_.Expect('{'));
    if (s_.Accept('}')) return RAExpr::ConstRel(Relation(0));
    std::vector<Tuple> tuples;
    size_t arity = 0;
    for (;;) {
      INCDB_RETURN_IF_ERROR(s_.Expect('('));
      std::vector<Value> vals;
      for (;;) {
        INCDB_ASSIGN_OR_RETURN(Value v, ReadValue(s_));
        vals.push_back(std::move(v));
        if (s_.Accept(')')) break;
        INCDB_RETURN_IF_ERROR(s_.Expect(','));
      }
      if (tuples.empty()) {
        arity = vals.size();
      } else if (vals.size() != arity) {
        return s_.Error("relation literal tuples have mixed arities");
      }
      tuples.push_back(Tuple(std::move(vals)));
      if (s_.Accept('}')) break;
      INCDB_RETURN_IF_ERROR(s_.Expect(','));
    }
    return RAExpr::ConstRel(Relation(arity, std::move(tuples)));
  }

  // --- predicates ---
  Result<PredicatePtr> PredOr() {
    INCDB_ASSIGN_OR_RETURN(PredicatePtr lhs, PredAnd());
    while (s_.AcceptWord("OR", /*ignore_case=*/true)) {
      INCDB_ASSIGN_OR_RETURN(PredicatePtr rhs, PredAnd());
      lhs = Predicate::Or(lhs, rhs);
    }
    return lhs;
  }

  Result<PredicatePtr> PredAnd() {
    INCDB_ASSIGN_OR_RETURN(PredicatePtr lhs, PredNot());
    while (s_.AcceptWord("AND", /*ignore_case=*/true)) {
      INCDB_ASSIGN_OR_RETURN(PredicatePtr rhs, PredNot());
      lhs = Predicate::And(lhs, rhs);
    }
    return lhs;
  }

  Result<PredicatePtr> PredNot() {
    DepthGuard guard(depth_);
    if (depth_ > kMaxDepth) return s_.Error("predicate nested too deeply");
    if (s_.AcceptWord("NOT", /*ignore_case=*/true)) {
      INCDB_ASSIGN_OR_RETURN(PredicatePtr p, PredNot());
      return Predicate::Not(p);
    }
    return PredPrimary();
  }

  Result<PredicatePtr> PredPrimary() {
    if (s_.Accept('(')) {
      INCDB_ASSIGN_OR_RETURN(PredicatePtr p, PredOr());
      INCDB_RETURN_IF_ERROR(s_.Expect(')'));
      return p;
    }
    if (s_.AcceptWord("TRUE", /*ignore_case=*/true)) return Predicate::True();
    if (s_.AcceptWord("FALSE", /*ignore_case=*/true)) {
      return Predicate::False();
    }
    INCDB_ASSIGN_OR_RETURN(::incdb::Term lhs, PredTerm());
    if (s_.AcceptWord("IS", /*ignore_case=*/true)) {
      const bool negated = s_.AcceptWord("NOT", /*ignore_case=*/true);
      if (!s_.AcceptWord("NULL", /*ignore_case=*/true)) {
        return s_.Error("expected NULL after IS");
      }
      PredicatePtr p = Predicate::IsNull(lhs);
      return negated ? Predicate::Not(p) : p;
    }
    CmpOp op;
    if (s_.Accept("<>") || s_.Accept("!=")) {
      op = CmpOp::kNe;
    } else if (s_.Accept("<=")) {
      op = CmpOp::kLe;
    } else if (s_.Accept(">=")) {
      op = CmpOp::kGe;
    } else if (s_.Accept('=')) {
      op = CmpOp::kEq;
    } else if (s_.Accept('<')) {
      op = CmpOp::kLt;
    } else if (s_.Accept('>')) {
      op = CmpOp::kGt;
    } else {
      return s_.Error("expected comparison operator");
    }
    INCDB_ASSIGN_OR_RETURN(::incdb::Term rhs, PredTerm());
    return Predicate::Cmp(op, lhs, rhs);
  }

  // A column #i, an integer or a 'string'; predicates hold no nulls.
  Result<::incdb::Term> PredTerm() {
    if (s_.Accept('#')) {
      INCDB_ASSIGN_OR_RETURN(int64_t n, s_.ReadInt());
      if (n < 0) return s_.Error("negative column index");
      return ::incdb::Term::Column(static_cast<size_t>(n));
    }
    if (s_.Peek() == '\'') {
      INCDB_ASSIGN_OR_RETURN(std::string str, s_.ReadQuoted());
      return ::incdb::Term::Const(Value::Str(std::move(str)));
    }
    INCDB_ASSIGN_OR_RETURN(int64_t n, s_.ReadInt());
    return ::incdb::Term::Const(Value::Int(n));
  }

  Scanner s_;
  int depth_ = 0;
};

}  // namespace

Result<RAExprPtr> ParseRA(const std::string& text) {
  RAParser p(text);
  return p.Parse();
}

}  // namespace incdb
