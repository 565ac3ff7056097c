#include "sql/to_algebra.h"

#include <map>

#include "sql/parser.h"
#include "util/strings.h"

namespace incdb {
namespace {

// Positional layout of the FROM product: alias -> (first column, decl).
struct FromLayout {
  struct Entry {
    std::string alias;
    const RelationDecl* decl;
    size_t offset;
  };
  std::vector<Entry> entries;
  size_t total_arity = 0;

  // Resolves `op` to a column index in the product, innermost alias match.
  Result<size_t> Resolve(const SqlOperand& op) const {
    INCDB_CHECK(op.kind == SqlOperand::Kind::kColumn);
    for (const Entry& e : entries) {
      if (!op.table.empty() && !EqualsIgnoreCase(e.alias, op.table)) continue;
      const auto& attrs = e.decl->attributes;
      for (size_t i = 0; i < attrs.size(); ++i) {
        if (EqualsIgnoreCase(attrs[i], op.column)) return e.offset + i;
      }
      if (!op.table.empty()) {
        return Status::NotFound("column " + op.column + " not in " +
                                op.table);
      }
    }
    return Status::NotFound("unresolved column " + op.ToString());
  }
};

Result<Term> OperandToTerm(const SqlOperand& op, const FromLayout& layout) {
  if (op.kind == SqlOperand::Kind::kLiteral) return Term::Const(op.literal);
  INCDB_ASSIGN_OR_RETURN(size_t col, layout.Resolve(op));
  return Term::Column(col);
}

// Translates a pure-predicate condition (no subqueries anywhere).
Result<PredicatePtr> ConditionToPredicate(const SqlCondition& c,
                                          const FromLayout& layout) {
  switch (c.kind) {
    case SqlCondition::Kind::kTrue:
      return Predicate::True();
    case SqlCondition::Kind::kCmp: {
      INCDB_ASSIGN_OR_RETURN(Term lhs, OperandToTerm(c.lhs, layout));
      INCDB_ASSIGN_OR_RETURN(Term rhs, OperandToTerm(c.rhs, layout));
      return Predicate::Cmp(c.op, std::move(lhs), std::move(rhs));
    }
    case SqlCondition::Kind::kAnd: {
      INCDB_ASSIGN_OR_RETURN(PredicatePtr a,
                             ConditionToPredicate(*c.left, layout));
      INCDB_ASSIGN_OR_RETURN(PredicatePtr b,
                             ConditionToPredicate(*c.right, layout));
      return Predicate::And(std::move(a), std::move(b));
    }
    case SqlCondition::Kind::kOr: {
      INCDB_ASSIGN_OR_RETURN(PredicatePtr a,
                             ConditionToPredicate(*c.left, layout));
      INCDB_ASSIGN_OR_RETURN(PredicatePtr b,
                             ConditionToPredicate(*c.right, layout));
      return Predicate::Or(std::move(a), std::move(b));
    }
    case SqlCondition::Kind::kNot: {
      INCDB_ASSIGN_OR_RETURN(PredicatePtr a,
                             ConditionToPredicate(*c.left, layout));
      return Predicate::Not(std::move(a));
    }
    case SqlCondition::Kind::kIsNull: {
      INCDB_ASSIGN_OR_RETURN(Term t, OperandToTerm(c.lhs, layout));
      PredicatePtr p = Predicate::IsNull(std::move(t));
      return c.negated ? Predicate::Not(std::move(p)) : p;
    }
    case SqlCondition::Kind::kIn:
    case SqlCondition::Kind::kExists:
      return Status::Unsupported(
          "subquery conditions must be top-level conjuncts to translate to "
          "algebra: " +
          c.ToString());
  }
  return Status::Internal("unknown condition kind");
}

// Splits a condition into its AND-chain conjuncts.
void SplitConjuncts(const SqlConditionPtr& c,
                    std::vector<const SqlCondition*>* out) {
  if (c == nullptr) return;
  if (c->kind == SqlCondition::Kind::kAnd) {
    SplitConjuncts(c->left, out);
    SplitConjuncts(c->right, out);
    return;
  }
  out->push_back(c.get());
}

Result<RAExprPtr> TranslateQuery(const SqlQuery& q, const Schema& schema);

Result<RAExprPtr> TranslateSelect(const SqlSelect& sel, const Schema& schema) {
  if (sel.HasAggregates() || !sel.group_by.empty()) {
    return Status::Unsupported(
        "aggregates / GROUP BY have no relational algebra translation");
  }

  // FROM product and layout.
  FromLayout layout;
  RAExprPtr expr;
  for (const SqlTableRef& ref : sel.from) {
    INCDB_ASSIGN_OR_RETURN(const RelationDecl* decl,
                           schema.Decl(ref.table));
    layout.entries.push_back({ref.alias, decl, layout.total_arity});
    layout.total_arity += decl->arity;
    RAExprPtr scan = RAExpr::Scan(ref.table);
    expr = expr == nullptr ? scan : RAExpr::Product(expr, scan);
  }
  if (expr == nullptr) {
    return Status::Unsupported("empty FROM clause");
  }

  // WHERE: split into predicate conjuncts and subquery conjuncts.
  std::vector<const SqlCondition*> conjuncts;
  SplitConjuncts(sel.where, &conjuncts);
  PredicatePtr pred = Predicate::True();
  struct SubJoin {
    const SqlCondition* cond;
  };
  std::vector<SubJoin> subjoins;
  for (const SqlCondition* c : conjuncts) {
    if (c->kind == SqlCondition::Kind::kIn ||
        c->kind == SqlCondition::Kind::kExists) {
      subjoins.push_back({c});
      continue;
    }
    INCDB_ASSIGN_OR_RETURN(PredicatePtr p, ConditionToPredicate(*c, layout));
    pred = Predicate::And(std::move(pred), std::move(p));
  }
  if (pred->kind() != Predicate::Kind::kTrue) {
    expr = RAExpr::Select(pred, expr);
  }

  // Outer columns to restore after each semi-/anti-join.
  std::vector<size_t> outer_cols(layout.total_arity);
  for (size_t i = 0; i < layout.total_arity; ++i) outer_cols[i] = i;

  for (const SubJoin& sj : subjoins) {
    const SqlCondition& c = *sj.cond;
    INCDB_ASSIGN_OR_RETURN(RAExprPtr sub, TranslateQuery(*c.subquery, schema));
    INCDB_ASSIGN_OR_RETURN(size_t sub_arity, sub->InferArity(schema));
    if (c.kind == SqlCondition::Kind::kIn) {
      if (sub_arity != 1) {
        return Status::InvalidArgument("IN subquery must have one column");
      }
      INCDB_ASSIGN_OR_RETURN(Term lhs, OperandToTerm(c.lhs, layout));
      // σ_{lhs = last}(outer × sub), projected back to the outer columns.
      RAExprPtr joined = RAExpr::Select(
          Predicate::Eq(lhs, Term::Column(layout.total_arity)),
          RAExpr::Product(expr, sub));
      RAExprPtr semi = RAExpr::Project(outer_cols, joined);
      if (c.negated) {
        expr = RAExpr::Diff(expr, semi);  // anti-join
      } else {
        expr = semi;
      }
    } else {  // EXISTS
      // Uncorrelated EXISTS: keep all outer rows iff the subquery is
      // nonempty — outer × sub projected back.
      RAExprPtr crossed = RAExpr::Product(expr, sub);
      expr = RAExpr::Project(outer_cols, crossed);
    }
  }

  // SELECT list projection.
  std::vector<size_t> cols;
  if (sel.select_star) {
    cols = outer_cols;
  } else {
    for (const SqlSelectItem& item : sel.items) {
      if (item.operand.kind == SqlOperand::Kind::kLiteral) {
        return Status::Unsupported(
            "literal select items have no algebra translation");
      }
      INCDB_ASSIGN_OR_RETURN(size_t col, layout.Resolve(item.operand));
      cols.push_back(col);
    }
  }
  return RAExpr::Project(cols, expr);
}

Result<RAExprPtr> TranslateQuery(const SqlQuery& q, const Schema& schema) {
  RAExprPtr acc;
  for (const SqlSelect& sel : q.selects) {
    INCDB_ASSIGN_OR_RETURN(RAExprPtr e, TranslateSelect(sel, schema));
    acc = acc == nullptr ? e : RAExpr::Union(acc, e);
  }
  if (acc == nullptr) return Status::InvalidArgument("empty query");
  return acc;
}

}  // namespace

Result<RAExprPtr> SqlToAlgebra(const SqlQuery& q, const Schema& schema) {
  INCDB_ASSIGN_OR_RETURN(RAExprPtr expr, TranslateQuery(q, schema));
  // Validate typing against the schema before handing it out.
  INCDB_RETURN_IF_ERROR(expr->InferArity(schema).status());
  return expr;
}

Result<QueryClass> ClassifySql(const std::string& sql, const Schema& schema) {
  INCDB_ASSIGN_OR_RETURN(SqlQuery q, ParseSql(sql));
  INCDB_ASSIGN_OR_RETURN(RAExprPtr expr, SqlToAlgebra(q, schema));
  return Classify(expr);
}

}  // namespace incdb
