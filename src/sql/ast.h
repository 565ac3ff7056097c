// SQL abstract syntax for the supported subset:
//
//   SELECT [DISTINCT] cols FROM t1 [a1], t2 [a2], ... [WHERE cond]
//   [UNION SELECT ...]
//
// with conditions built from comparisons, AND/OR/NOT, [NOT] IN (subquery),
// EXISTS (subquery), and IS [NOT] NULL. Subqueries may be correlated. The
// engine uses set semantics (every SELECT behaves as SELECT DISTINCT; the
// keyword is accepted for familiarity).

#ifndef INCDB_SQL_AST_H_
#define INCDB_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/predicate.h"
#include "core/value.h"

namespace incdb {

/// A scalar operand: column reference or literal.
struct SqlOperand {
  enum class Kind { kColumn, kLiteral };
  Kind kind = Kind::kColumn;
  std::string table;   ///< alias qualifier; empty if unqualified
  std::string column;  ///< column name, for kColumn
  Value literal;       ///< for kLiteral

  static SqlOperand Column(std::string table, std::string column) {
    SqlOperand o;
    o.kind = Kind::kColumn;
    o.table = std::move(table);
    o.column = std::move(column);
    return o;
  }
  static SqlOperand Literal(Value v) {
    SqlOperand o;
    o.kind = Kind::kLiteral;
    o.literal = std::move(v);
    return o;
  }

  std::string ToString() const;
};

/// Aggregate functions. SQL semantics: all except COUNT(*) ignore NULL
/// inputs; aggregates over an empty set yield NULL (COUNT yields 0).
enum class AggFunc {
  kNone,       ///< plain column/literal select item
  kCountStar,  ///< COUNT(*)
  kCount,      ///< COUNT(col) — non-null values only
  kSum,
  kMin,
  kMax,
  kAvg,        ///< integer average (SUM/COUNT, truncating)
};
const char* AggFuncName(AggFunc f);

/// One item of a SELECT list: a bare operand or an aggregate over one.
struct SqlSelectItem {
  AggFunc agg = AggFunc::kNone;
  SqlOperand operand;  ///< unused for COUNT(*)

  static SqlSelectItem Plain(SqlOperand op) {
    SqlSelectItem item;
    item.operand = std::move(op);
    return item;
  }
  static SqlSelectItem Aggregate(AggFunc f, SqlOperand op) {
    SqlSelectItem item;
    item.agg = f;
    item.operand = std::move(op);
    return item;
  }

  bool is_aggregate() const { return agg != AggFunc::kNone; }
  std::string ToString() const;
};

struct SqlQuery;
using SqlQueryPtr = std::shared_ptr<SqlQuery>;

struct SqlCondition;
using SqlConditionPtr = std::shared_ptr<SqlCondition>;

/// A WHERE-clause condition node.
struct SqlCondition {
  enum class Kind {
    kTrue,
    kCmp,      ///< lhs op rhs
    kAnd,
    kOr,
    kNot,
    kIn,       ///< lhs [NOT] IN (subquery)
    kExists,   ///< EXISTS (subquery)
    kIsNull,   ///< operand IS [NOT] NULL
  };

  Kind kind = Kind::kTrue;
  CmpOp op = CmpOp::kEq;  ///< for kCmp (the algebra's operators)
  SqlOperand lhs;
  SqlOperand rhs;
  SqlConditionPtr left;
  SqlConditionPtr right;
  SqlQueryPtr subquery;
  bool negated = false;  ///< for kIn / kIsNull

  std::string ToString() const;
};

/// One table in the FROM clause.
struct SqlTableRef {
  std::string table;
  std::string alias;  ///< defaults to the table name

  std::string ToString() const;
};

/// A single SELECT block.
struct SqlSelect {
  bool distinct = false;
  bool select_star = false;
  std::vector<SqlSelectItem> items;  ///< empty iff select_star
  std::vector<SqlTableRef> from;
  SqlConditionPtr where;             ///< may be null (no WHERE)
  std::vector<SqlOperand> group_by;  ///< empty = no grouping

  /// True if any select item is an aggregate.
  bool HasAggregates() const;

  std::string ToString() const;
};

/// A query: one or more SELECT blocks joined by UNION.
struct SqlQuery {
  std::vector<SqlSelect> selects;

  std::string ToString() const;
};

}  // namespace incdb

#endif  // INCDB_SQL_AST_H_
