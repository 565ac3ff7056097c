#include "sql/rewrite.h"

#include "sql/parser.h"

namespace incdb {
namespace {

bool IsPositiveCondition(const SqlCondition& c) {
  switch (c.kind) {
    case SqlCondition::Kind::kTrue:
      return true;
    case SqlCondition::Kind::kCmp:
      return c.op == CmpOp::kEq;
    case SqlCondition::Kind::kAnd:
    case SqlCondition::Kind::kOr:
      return IsPositiveCondition(*c.left) && IsPositiveCondition(*c.right);
    case SqlCondition::Kind::kNot:
      return false;
    case SqlCondition::Kind::kIn:
      return !c.negated && IsPositiveSqlQuery(*c.subquery);
    case SqlCondition::Kind::kExists:
      return IsPositiveSqlQuery(*c.subquery);
    case SqlCondition::Kind::kIsNull:
      return false;
  }
  return false;
}

}  // namespace

bool IsPositiveSqlQuery(const SqlQuery& q) {
  for (const SqlSelect& sel : q.selects) {
    // Aggregates and grouping are outside the UCQ fragment: a COUNT or SUM
    // is not preserved under adding tuples / instantiating nulls.
    if (sel.HasAggregates() || !sel.group_by.empty()) return false;
    if (sel.where != nullptr && !IsPositiveCondition(*sel.where)) {
      return false;
    }
  }
  return true;
}

Result<SqlQuery> RewriteWithNotNullFilters(const SqlQuery& q) {
  SqlQuery out = q;
  for (SqlSelect& sel : out.selects) {
    if (sel.select_star) {
      return Status::Unsupported(
          "certain-answer rewriting requires an explicit select list");
    }
    SqlConditionPtr extra;
    for (const SqlSelectItem& sel_item : sel.items) {
      if (sel_item.is_aggregate()) continue;
      const SqlOperand& item = sel_item.operand;
      if (item.kind != SqlOperand::Kind::kColumn) continue;
      auto not_null = std::make_shared<SqlCondition>();
      not_null->kind = SqlCondition::Kind::kIsNull;
      not_null->lhs = item;
      not_null->negated = true;
      if (extra == nullptr) {
        extra = std::move(not_null);
      } else {
        auto conj = std::make_shared<SqlCondition>();
        conj->kind = SqlCondition::Kind::kAnd;
        conj->left = std::move(extra);
        conj->right = std::move(not_null);
        extra = std::move(conj);
      }
    }
    if (extra == nullptr) continue;
    if (sel.where == nullptr) {
      sel.where = std::move(extra);
    } else {
      auto conj = std::make_shared<SqlCondition>();
      conj->kind = SqlCondition::Kind::kAnd;
      conj->left = sel.where;
      conj->right = std::move(extra);
      sel.where = std::move(conj);
    }
  }
  return out;
}

Result<Relation> EvalSqlCertain(const SqlQuery& q, const Database& db,
                                bool force, const EvalOptions& options) {
  if (!force && !IsPositiveSqlQuery(q)) {
    return Status::Unsupported(
        "certain-answer evaluation requires a positive SQL query "
        "(no NOT / NOT IN / <> / order comparisons / IS NULL)");
  }
  INCDB_ASSIGN_OR_RETURN(Relation naive,
                         EvalSql(q, db, SqlEvalMode::kNaive, options));
  // The null-free rows, kept in the answer's own form (columns stay
  // columns).
  return naive.CompletePart();
}

Result<Relation> EvalSqlCertain(const std::string& sql, const Database& db,
                                bool force, const EvalOptions& options) {
  INCDB_ASSIGN_OR_RETURN(SqlQuery q, ParseSql(sql));
  return EvalSqlCertain(q, db, force, options);
}

}  // namespace incdb
