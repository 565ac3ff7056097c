#include "sql/eval.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/columnar.h"
#include "engine/kernels.h"
#include "sql/parser.h"

namespace incdb {
namespace {

// Most rows one block may emit: the code path numbers rows with uint32_t.
constexpr size_t kMaxRows = std::numeric_limits<uint32_t>::max();

Status TooManyRows() {
  return Status::ResourceExhausted("SQL block emits more than " +
                                   std::to_string(kMaxRows) + " rows");
}

bool EqualsIgnoreCaseAlias(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

TruthValue FromBool(bool b) {
  return b ? TruthValue::kTrue : TruthValue::kFalse;
}

// a op b on values: UNKNOWN when a null meets anything outside naïve mode.
TruthValue CompareValues(SqlEvalMode mode, CmpOp op, const Value& a,
                         const Value& b) {
  if (mode != SqlEvalMode::kNaive && (a.is_null() || b.is_null())) {
    return TruthValue::kUnknown;
  }
  return FromBool(CmpBool(op, a <=> b));
}

// --- Aggregates, shared by both paths ---------------------------------------
//
// SQL semantics: GROUP BY treats every NULL as the same group; aggregates
// other than COUNT(*) ignore NULL inputs; aggregates over an empty group
// yield NULL (COUNT yields 0). In naïve mode marked nulls keep their
// identity in grouping and in MIN/MAX/COUNT; SUM/AVG/MIN/MAX over an
// unresolved null is refused (kUnsupported) rather than silently wrong.

bool RefusesNaiveNull(AggFunc f) {
  return f == AggFunc::kSum || f == AggFunc::kAvg || f == AggFunc::kMin ||
         f == AggFunc::kMax;
}

Status NaiveNullError(const SqlSelectItem& item) {
  return Status::Unsupported(
      "cannot aggregate over an unresolved marked null in naive mode: " +
      item.ToString());
}

// Adds one SUM/AVG input; inputs are added in FROM-loop order, so the
// first non-integer or the first overflowing prefix fails.
Status AddToSum(AggFunc f, const Value& v, int64_t* sum) {
  if (!v.is_int()) {
    return Status::InvalidArgument(std::string(AggFuncName(f)) +
                                   " requires integer inputs");
  }
  if (__builtin_add_overflow(*sum, v.as_int(), sum)) {
    return Status::InvalidArgument(std::string(AggFuncName(f)) +
                                   " overflows int64");
  }
  return Status::OK();
}

// --- The plan ----------------------------------------------------------------
//
// Both paths evaluate one plan, built once per evaluation before any row is
// read, so every error that depends only on the query and the schema (an
// unknown table or column, a relation without attribute names, an IN
// subquery of the wrong width, UNION members of different widths, a bad
// aggregate block) is raised whatever the data, in the order the blocks,
// conditions and operands are written. The scope of a block is the FROM
// entries of its enclosing blocks followed by its own, one slot each; a
// column resolves to (slot, column), inner-most entry first, an alias
// qualifier picking its entry. A subquery is correlated when some operand
// below it resolves to a slot outside it.

struct Query;

struct Operand {
  bool literal = false;
  Value value;      // literal
  size_t slot = 0;  // column: scope slot and column
  size_t col = 0;
  // Code path: the literal's code, or the codes of the slot's column.
  uint32_t code = 0;
  const uint32_t* codes = nullptr;
};

// A comparison decided on codes, chosen when the code path prepares the
// block: a constant (two literals, or a null literal outside naïve mode),
// two columns compared by code, or a column whose code must fall in the
// code range a literal resolves to (engine/kernels.h ResolveCmp).
struct CodeCmp {
  enum class Kind { kConst, kColumns, kRange };
  Kind kind = Kind::kConst;
  TruthValue value = TruthValue::kUnknown;
  bool column_on_left = true;
  CodeRange range;
};

struct Cond {
  SqlCondition::Kind kind = SqlCondition::Kind::kTrue;
  CmpOp op = CmpOp::kEq;
  bool negated = false;
  Operand lhs;
  Operand rhs;
  std::unique_ptr<Cond> left;
  std::unique_ptr<Cond> right;
  Query* sub = nullptr;
  // A subquery below may fail on the data (see Query::can_fail).
  bool can_fail = false;
  CodeCmp cmp;
};

struct Item {
  const SqlSelectItem* item = nullptr;  // null for a SELECT * column
  AggFunc agg = AggFunc::kNone;
  Operand operand;  // unused for COUNT(*)
};

// Code path: an equality between a column of the entry bound at this FROM
// depth and an operand available before it, served by a hash index of the
// column's codes.
struct EquiProbe {
  bool active = false;
  const Operand* other = nullptr;
  const std::vector<uint32_t>* codes = nullptr;  // the column being bound
  const RowHashIndex* index = nullptr;           // over *codes
};

struct Block {
  bool top = false;                   // a block of the outermost query
  size_t base = 0;                    // slots of the enclosing blocks
  std::vector<const Relation*> rels;  // one per FROM entry
  uint64_t product = 1;               // of the FROM sizes, saturating
  bool aggregate = false;
  bool maybe = false;  // keeps UNKNOWN rows: a top-level block in MAYBE mode
  size_t arity = 0;
  std::vector<Item> items;  // SELECT * expanded to its columns
  std::vector<Operand> group_by;
  std::unique_ptr<Cond> where;

  // Code path, filled in when the block is prepared.
  std::vector<size_t> rows;  // of each FROM entry's relation
  std::vector<std::vector<const Cond*>> checks;  // by FROM depth
  std::vector<EquiProbe> equi;                   // by FROM depth
  std::vector<const Cond*> leaf;  // conjuncts left for the leaf
  // The codes each kept row emits: the items, or for an aggregate block the
  // group keys then the inputs of the items other than COUNT(*).
  std::vector<const Operand*> emit;
};

struct Query {
  size_t id = 0;  // position in Planner::queries()
  size_t base = 0;
  size_t arity = 0;
  std::vector<Block> blocks;
  bool correlated = false;
  // Evaluation may fail on the data: an aggregate that can refuse its
  // inputs, a FROM product past kMaxRows, or such a subquery below.
  bool can_fail = false;
  bool aggregate = false;  // some block aggregates: the answer holds values
};

struct ScopeEntry {
  const std::string* alias;
  const RelationDecl* decl;
};

class Planner {
 public:
  Planner(const Database& db, SqlEvalMode mode) : db_(db), mode_(mode) {}

  Result<Query*> Plan(const SqlQuery& q) { return PlanQuery(q, true); }

  // Every planned query, the root first; deque keeps them in place.
  std::deque<Query>& queries() { return queries_; }

 private:
  Result<Query*> PlanQuery(const SqlQuery& q, bool top) {
    Query& out = queries_.emplace_back();
    out.id = queries_.size() - 1;
    out.base = scope_.size();
    const size_t saved_min = min_ref_;
    min_ref_ = std::numeric_limits<size_t>::max();
    for (size_t i = 0; i < q.selects.size(); ++i) {
      Block b;
      INCDB_RETURN_IF_ERROR(PlanBlock(q.selects[i], top, &b));
      if (i == 0) {
        out.arity = b.arity;
      } else if (b.arity != out.arity) {
        return Status::InvalidArgument(
            "UNION members have different column counts");
      }
      out.aggregate = out.aggregate || b.aggregate;
      out.can_fail = out.can_fail || BlockCanFail(b);
      out.blocks.push_back(std::move(b));
    }
    out.correlated = min_ref_ < out.base;
    min_ref_ = std::min(saved_min, min_ref_);
    return &out;
  }

  bool BlockCanFail(const Block& b) const {
    if (b.product > kMaxRows) return true;
    if (b.where != nullptr && b.where->can_fail) return true;
    if (!b.aggregate) return false;
    for (const Item& item : b.items) {
      if (item.agg == AggFunc::kSum || item.agg == AggFunc::kAvg) return true;
      if (mode_ == SqlEvalMode::kNaive && RefusesNaiveNull(item.agg)) {
        return true;
      }
    }
    return false;
  }

  Status PlanBlock(const SqlSelect& sel, bool top, Block* b) {
    b->top = top;
    b->base = scope_.size();
    b->aggregate = sel.HasAggregates() || !sel.group_by.empty();
    if (b->aggregate) {
      if (sel.select_star) {
        return Status::InvalidArgument(
            "SELECT * cannot be combined with aggregates or GROUP BY");
      }
      // Every non-aggregate item must be a grouping column.
      for (const SqlSelectItem& item : sel.items) {
        if (item.is_aggregate()) continue;
        if (item.operand.kind != SqlOperand::Kind::kColumn) continue;
        bool grouped = false;
        for (const SqlOperand& g : sel.group_by) {
          if (EqualsIgnoreCaseAlias(g.column, item.operand.column) &&
              EqualsIgnoreCaseAlias(g.table, item.operand.table)) {
            grouped = true;
            break;
          }
        }
        if (!grouped) {
          return Status::InvalidArgument(
              "column " + item.operand.ToString() +
              " must appear in GROUP BY or inside an aggregate");
        }
      }
    }
    std::vector<const RelationDecl*> decls;
    for (const SqlTableRef& ref : sel.from) {
      INCDB_ASSIGN_OR_RETURN(const RelationDecl* decl,
                             db_.schema().Decl(ref.table));
      if (decl->attributes.empty() && decl->arity > 0) {
        return Status::InvalidArgument(
            "relation " + ref.table +
            " has no attribute names; SQL access requires named attributes");
      }
      decls.push_back(decl);
      const Relation* rel = &db_.GetRelation(ref.table);
      b->rels.push_back(rel);
      const uint64_t size = rel->size();
      b->product = size != 0 && b->product > kMaxRows / size
                       ? kMaxRows + 1
                       : b->product * size;
    }
    for (size_t i = 0; i < sel.from.size(); ++i) {
      scope_.push_back(ScopeEntry{&sel.from[i].alias, decls[i]});
    }
    if (sel.where != nullptr) {
      INCDB_ASSIGN_OR_RETURN(b->where, PlanCond(*sel.where));
    }
    if (b->aggregate) {
      for (const SqlOperand& g : sel.group_by) {
        INCDB_ASSIGN_OR_RETURN(Operand o, Resolve(g));
        b->group_by.push_back(std::move(o));
      }
    }
    if (sel.select_star) {
      for (size_t i = 0; i < decls.size(); ++i) {
        for (size_t c = 0; c < decls[i]->arity; ++c) {
          Item item;
          item.operand.slot = b->base + i;
          item.operand.col = c;
          b->items.push_back(std::move(item));
        }
      }
    } else {
      for (const SqlSelectItem& sel_item : sel.items) {
        Item item;
        item.item = &sel_item;
        item.agg = sel_item.agg;
        if (sel_item.agg != AggFunc::kCountStar) {
          INCDB_ASSIGN_OR_RETURN(item.operand, Resolve(sel_item.operand));
        }
        b->items.push_back(std::move(item));
      }
    }
    b->arity = b->items.size();
    b->maybe = mode_ == SqlEvalMode::kSqlMaybe && top && !b->aggregate;
    scope_.resize(b->base);
    return Status::OK();
  }

  Result<std::unique_ptr<Cond>> PlanCond(const SqlCondition& c) {
    auto out = std::make_unique<Cond>();
    out->kind = c.kind;
    out->op = c.op;
    out->negated = c.negated;
    switch (c.kind) {
      case SqlCondition::Kind::kTrue:
        break;
      case SqlCondition::Kind::kCmp: {
        INCDB_ASSIGN_OR_RETURN(out->lhs, Resolve(c.lhs));
        INCDB_ASSIGN_OR_RETURN(out->rhs, Resolve(c.rhs));
        break;
      }
      case SqlCondition::Kind::kAnd:
      case SqlCondition::Kind::kOr: {
        INCDB_ASSIGN_OR_RETURN(out->left, PlanCond(*c.left));
        INCDB_ASSIGN_OR_RETURN(out->right, PlanCond(*c.right));
        out->can_fail = out->left->can_fail || out->right->can_fail;
        break;
      }
      case SqlCondition::Kind::kNot: {
        INCDB_ASSIGN_OR_RETURN(out->left, PlanCond(*c.left));
        out->can_fail = out->left->can_fail;
        break;
      }
      case SqlCondition::Kind::kIn: {
        INCDB_ASSIGN_OR_RETURN(out->lhs, Resolve(c.lhs));
        INCDB_ASSIGN_OR_RETURN(out->sub, PlanQuery(*c.subquery, false));
        if (out->sub->arity != 1) {
          return Status::InvalidArgument(
              "IN subquery must return one column");
        }
        out->can_fail = out->sub->can_fail;
        break;
      }
      case SqlCondition::Kind::kExists: {
        INCDB_ASSIGN_OR_RETURN(out->sub, PlanQuery(*c.subquery, false));
        out->can_fail = out->sub->can_fail;
        break;
      }
      case SqlCondition::Kind::kIsNull: {
        INCDB_ASSIGN_OR_RETURN(out->lhs, Resolve(c.lhs));
        break;
      }
    }
    return out;
  }

  // Inner-most scope entry first; a qualified column names its entry.
  Result<Operand> Resolve(const SqlOperand& o) {
    Operand out;
    if (o.kind == SqlOperand::Kind::kLiteral) {
      out.literal = true;
      out.value = o.literal;
      return out;
    }
    for (size_t i = scope_.size(); i-- > 0;) {
      if (!o.table.empty() &&
          !EqualsIgnoreCaseAlias(*scope_[i].alias, o.table)) {
        continue;
      }
      const auto& attrs = scope_[i].decl->attributes;
      for (size_t c = 0; c < attrs.size(); ++c) {
        if (EqualsIgnoreCaseAlias(attrs[c], o.column)) {
          out.slot = i;
          out.col = c;
          min_ref_ = std::min(min_ref_, i);
          return out;
        }
      }
      if (!o.table.empty()) {
        return Status::NotFound("column " + o.column + " not in table " +
                                o.table);
      }
    }
    return Status::NotFound("unresolved column " + o.ToString());
  }

  const Database& db_;
  SqlEvalMode mode_;
  std::deque<Query> queries_;
  std::vector<ScopeEntry> scope_;
  // Lowest slot any operand of the query being planned resolved to.
  size_t min_ref_ = std::numeric_limits<size_t>::max();
};

void FlattenAnd(const Cond& c, std::vector<const Cond*>* out) {
  if (c.kind == SqlCondition::Kind::kAnd) {
    FlattenAnd(*c.left, out);
    FlattenAnd(*c.right, out);
    return;
  }
  out->push_back(&c);
}

// --- The reference: tuples, nested loops, a fold for [NOT] IN ---------------

class TupleEvaluator {
 public:
  TupleEvaluator(SqlEvalMode mode, EvalStats* stats)
      : mode_(mode), stats_(stats) {}

  Result<Relation> RunQuery(const Query& q) {
    Relation out(q.arity);
    bool first = true;
    for (const Block& b : q.blocks) {
      INCDB_ASSIGN_OR_RETURN(Relation r,
                             b.aggregate ? RunAggregate(b) : RunBlock(b));
      if (first) {
        out = std::move(r);
        first = false;
      } else {
        out.AddAll(r);
      }
    }
    return out;
  }

 private:
  // The rows of `b`'s FROM product whose WHERE is `wanted`, one `fn` call
  // each; fails past kMaxRows rows.
  template <class Fn>
  Status ForEachRow(const Block& b, TruthValue wanted, Fn fn) {
    if (b.where == nullptr && b.product > kMaxRows) return TooManyRows();
    scope_.resize(b.base + b.rels.size());
    size_t kept = 0;
    auto rec = [&](auto& self, size_t depth) -> Status {
      if (depth == b.rels.size()) {
        if (b.where != nullptr) {
          INCDB_ASSIGN_OR_RETURN(TruthValue tv, Eval(*b.where));
          if (tv != wanted) return Status::OK();
        }
        if (kept++ == kMaxRows) return TooManyRows();
        return fn();
      }
      for (const Tuple& t : b.rels[depth]->tuples()) {
        scope_[b.base + depth] = &t;
        INCDB_RETURN_IF_ERROR(self(self, depth + 1));
      }
      return Status::OK();
    };
    return rec(rec, 0);
  }

  Result<Relation> RunBlock(const Block& b) {
    // A subquery's time is part of the block that evaluates it.
    OpScope block(stats_, EvalOp::kSqlBlock, /*timed=*/b.top);
    uint64_t in = 0;
    for (const Relation* r : b.rels) in += r->size();
    block.CountIn(in);
    Relation out(b.arity);
    // A maybe-query without a WHERE clause keeps nothing (no row is in
    // doubt).
    if (!b.maybe || b.where != nullptr) {
      const TruthValue wanted =
          b.maybe ? TruthValue::kUnknown : TruthValue::kTrue;
      INCDB_RETURN_IF_ERROR(ForEachRow(b, wanted, [&]() -> Status {
        std::vector<Value> vals;
        vals.reserve(b.arity);
        for (const Item& item : b.items) vals.push_back(Get(item.operand));
        out.Add(Tuple(std::move(vals)));
        return Status::OK();
      }));
    }
    block.CountOut(out.size());
    return out;
  }

  Result<Relation> RunAggregate(const Block& b) {
    // The surviving FROM×WHERE rows as (group key, item inputs).
    struct RowData {
      std::vector<Value> key;
      std::vector<Value> inputs;  // one slot per item
    };
    std::vector<RowData> rows;
    {
      OpScope block(stats_, EvalOp::kSqlBlock, /*timed=*/b.top);
      uint64_t in = 0;
      for (const Relation* r : b.rels) in += r->size();
      block.CountIn(in);
      INCDB_RETURN_IF_ERROR(ForEachRow(b, TruthValue::kTrue, [&]() -> Status {
        RowData row;
        for (const Operand& g : b.group_by) row.key.push_back(Get(g));
        for (const Item& item : b.items) {
          row.inputs.push_back(item.agg == AggFunc::kCountStar
                                   ? Value::Int(0)  // placeholder
                                   : Get(item.operand));
        }
        rows.push_back(std::move(row));
        return Status::OK();
      }));
      block.CountOut(rows.size());
    }
    // One group for all nulls outside naïve mode (they are
    // indistinguishable); naïve mode groups marked nulls by identity.
    const bool one_null = mode_ != SqlEvalMode::kNaive;
    std::map<std::vector<Value>, std::vector<const RowData*>> groups;
    if (b.group_by.empty()) groups[{}] = {};  // one group, possibly empty
    for (const RowData& row : rows) {
      std::vector<Value> key = row.key;
      for (Value& v : key) {
        if (one_null && v.is_null()) v = Value::Null(0);
      }
      groups[std::move(key)].push_back(&row);
    }
    Relation out(b.arity);
    for (const auto& [key, members] : groups) {
      std::vector<Value> vals;
      vals.reserve(b.arity);
      for (size_t i = 0; i < b.items.size(); ++i) {
        const Item& item = b.items[i];
        if (item.agg == AggFunc::kNone) {
          // The group's value (canonicalized with the key).
          Value v = members.empty() ? Value::Null(0) : members[0]->inputs[i];
          if (one_null && v.is_null()) v = Value::Null(0);
          vals.push_back(std::move(v));
          continue;
        }
        std::vector<const Value*> inputs;
        for (const RowData* row : members) inputs.push_back(&row->inputs[i]);
        INCDB_ASSIGN_OR_RETURN(Value v, Aggregate(item, inputs));
        vals.push_back(std::move(v));
      }
      out.Add(Tuple(std::move(vals)));
    }
    return out;
  }

  Result<Value> Aggregate(const Item& item,
                          const std::vector<const Value*>& members) {
    if (item.agg == AggFunc::kCountStar) {
      return Value::Int(static_cast<int64_t>(members.size()));
    }
    std::vector<const Value*> inputs;
    for (const Value* v : members) {
      if (v->is_null()) {
        if (mode_ == SqlEvalMode::kNaive && RefusesNaiveNull(item.agg)) {
          return NaiveNullError(*item.item);
        }
        continue;
      }
      inputs.push_back(v);
    }
    switch (item.agg) {
      case AggFunc::kCount:
        return Value::Int(static_cast<int64_t>(inputs.size()));
      case AggFunc::kSum:
      case AggFunc::kAvg: {
        if (inputs.empty()) return Value::Null(0);
        int64_t sum = 0;
        for (const Value* v : inputs) {
          INCDB_RETURN_IF_ERROR(AddToSum(item.agg, *v, &sum));
        }
        if (item.agg == AggFunc::kSum) return Value::Int(sum);
        return Value::Int(sum / static_cast<int64_t>(inputs.size()));
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        if (inputs.empty()) return Value::Null(0);
        const Value* best = inputs[0];
        for (const Value* v : inputs) {
          if (item.agg == AggFunc::kMin ? *v < *best : *best < *v) best = v;
        }
        return *best;
      }
      default:
        return Status::Internal("unexpected aggregate function");
    }
  }

  const Value& Get(const Operand& o) const {
    return o.literal ? o.value : (*scope_[o.slot])[o.col];
  }

  Result<TruthValue> Eval(const Cond& c) {
    switch (c.kind) {
      case SqlCondition::Kind::kTrue:
        return TruthValue::kTrue;
      case SqlCondition::Kind::kCmp:
        return CompareValues(mode_, c.op, Get(c.lhs), Get(c.rhs));
      case SqlCondition::Kind::kAnd: {
        INCDB_ASSIGN_OR_RETURN(TruthValue a, Eval(*c.left));
        if (a == TruthValue::kFalse) return TruthValue::kFalse;
        INCDB_ASSIGN_OR_RETURN(TruthValue b, Eval(*c.right));
        return And3(a, b);
      }
      case SqlCondition::Kind::kOr: {
        INCDB_ASSIGN_OR_RETURN(TruthValue a, Eval(*c.left));
        if (a == TruthValue::kTrue) return TruthValue::kTrue;
        INCDB_ASSIGN_OR_RETURN(TruthValue b, Eval(*c.right));
        return Or3(a, b);
      }
      case SqlCondition::Kind::kNot: {
        INCDB_ASSIGN_OR_RETURN(TruthValue a, Eval(*c.left));
        return Not3(a);
      }
      case SqlCondition::Kind::kIn: {
        Relation storage;
        INCDB_ASSIGN_OR_RETURN(const Relation* sub,
                               Subquery(*c.sub, &storage));
        // x IN S, the standard's quantified comparison: TRUE if some s
        // compares TRUE; else UNKNOWN if some comparison is UNKNOWN; else
        // FALSE. NOT IN is its 3VL negation.
        const Value& x = Get(c.lhs);
        TruthValue in = TruthValue::kFalse;
        for (const Tuple& s : sub->tuples()) {
          in = Or3(in, CompareValues(mode_, CmpOp::kEq, x, s[0]));
          if (in == TruthValue::kTrue) break;
        }
        return c.negated ? Not3(in) : in;
      }
      case SqlCondition::Kind::kExists: {
        Relation storage;
        INCDB_ASSIGN_OR_RETURN(const Relation* sub,
                               Subquery(*c.sub, &storage));
        return FromBool(!sub->empty());
      }
      case SqlCondition::Kind::kIsNull:
        return FromBool(Get(c.lhs).is_null() != c.negated);
    }
    return Status::Internal("unknown SQL condition kind");
  }

  // An uncorrelated subquery is evaluated once per evaluation and returned
  // by pointer; a correlated one is evaluated into `*storage`.
  Result<const Relation*> Subquery(const Query& q, Relation* storage) {
    auto it = memo_.find(&q);
    if (it != memo_.end()) return &it->second;
    INCDB_ASSIGN_OR_RETURN(Relation r, RunQuery(q));
    if (q.correlated) {
      *storage = std::move(r);
      return storage;
    }
    return &memo_.emplace(&q, std::move(r)).first->second;
  }

  SqlEvalMode mode_;
  EvalStats* stats_;
  std::vector<const Tuple*> scope_;  // the bound row of each slot
  std::map<const Query*, Relation> memo_;
};

// --- The code path -----------------------------------------------------------
//
// Every relation the query names is read through its Columnar() form. In a
// DatabaseSnapshot they share one dictionary, so codes compare directly;
// otherwise the non-empty relations' dictionaries are merged once and their
// columns translated. A literal never extends the dictionary: comparisons
// use its dictionary ranks, and a literal that must be emitted or looked up
// and is not in the dictionary gets an extra code past its end (extras_).
//
// The first data-dependent error is kept in error_ and unwinds the loops:
// every call that can fail is followed by a failed() check.

// A relation's codes in the evaluation's dictionary.
struct Table {
  size_t rows = 0;
  std::shared_ptr<const ColumnarRelation> form;
  std::vector<std::vector<uint32_t>> translated;  // when form's codes differ

  const std::vector<uint32_t>& col(size_t c) const {
    return translated.empty() ? form->col(c) : translated[c];
  }
};

// Hashes a code column's rows by code, for RowHashIndex: the candidates
// for a code are then compared with it.
RowHashIndex IndexCodes(const std::vector<uint32_t>& codes) {
  return RowHashIndex(codes.size(), [&](size_t i) { return codes[i]; });
}

// A query's answer on the code path: canonical code rows (ordered by code,
// deduplicated), or values when some block aggregates. An IN lookup indexes
// a code answer's column once.
struct Answer {
  size_t arity = 0;
  size_t rows = 0;
  std::vector<std::vector<uint32_t>> cols;
  bool has_values = false;
  Relation values;
  std::optional<RowHashIndex> index;  // over cols[0], built by In
  bool has_null = false;              // cols[0] holds a null (with index)
};

class CodeEvaluator {
 public:
  CodeEvaluator(SqlEvalMode mode, EvalStats* stats)
      : naive_(mode == SqlEvalMode::kNaive), mode_(mode), stats_(stats) {}

  // Reads the relations, fixes the dictionary and prepares every block.
  void Prepare(std::deque<Query>& queries) {
    std::vector<Table*> order;
    size_t slots = 0;
    for (Query& q : queries) {
      for (Block& b : q.blocks) {
        for (const Relation* r : b.rels) {
          auto [it, fresh] = tables_.try_emplace(r);
          if (fresh) order.push_back(&it->second);
        }
        slots = std::max(slots, b.base + b.rels.size());
      }
    }
    for (auto& [rel, t] : tables_) {
      t.form = rel->Columnar();
      t.rows = t.form->rows();
    }
    // Non-empty tables bring their dictionaries; equal ones join once.
    std::vector<std::shared_ptr<const ValueDict>> sources;
    std::vector<size_t> source_of(order.size(), 0);
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i]->rows == 0) continue;
      const auto& d = order[i]->form->dict_ptr();
      auto it = std::find(sources.begin(), sources.end(), d);
      source_of[i] = it - sources.begin();
      if (it == sources.end()) sources.push_back(d);
    }
    if (sources.empty()) sources.push_back(std::make_shared<ValueDict>());
    std::vector<std::vector<uint32_t>> into;
    dict_ = MergeDictList(sources, &into);
    for (size_t i = 0; i < order.size(); ++i) {
      Table& t = *order[i];
      const std::vector<uint32_t>& translate = into[source_of[i]];
      if (t.rows == 0 || translate.empty()) continue;
      t.translated.resize(t.form->arity());
      for (size_t c = 0; c < t.form->arity(); ++c) {
        t.translated[c].reserve(t.rows);
        for (const uint32_t code : t.form->col(c)) {
          t.translated[c].push_back(translate[code]);
        }
      }
    }
    null_end_ = dict_->null_end;
    row_.assign(slots, 0);
    slot_tables_.resize(slots);
    answers_.resize(queries.size());
    done_.assign(queries.size(), 0);
    PrepareQuery(queries.front());
  }

  Result<Relation> Run(const Query& root) {
    Answer& a = answers_[root.id];
    RunQuery(root, &a);
    if (failed()) return error_;
    if (a.has_values) return std::move(a.values);
    // The answer's dictionary holds only the values it uses, so an answer
    // kept by a cache or a session never pins the evaluation's dictionary.
    std::shared_ptr<const ValueDict> dict =
        CompactDict(*dict_, extras_, &a.cols);
    CompactRows(a.arity, dict->size(), &a.cols, &a.rows);
    return Relation(std::make_shared<const ColumnarRelation>(
        a.arity, a.rows, std::move(dict), std::move(a.cols)));
  }

 private:
  bool failed() const { return !error_.ok(); }
  void Fail(Status st) {
    if (error_.ok()) error_ = std::move(st);
  }

  size_t code_bound() const { return dict_->size() + extras_.size(); }

  bool IsNull(uint32_t code) const {
    if (code < null_end_) return true;
    return code >= dict_->size() && extras_[code - dict_->size()].is_null();
  }

  const Value& Decode(uint32_t code) const {
    return code < dict_->size() ? dict_->values[code]
                                : extras_[code - dict_->size()];
  }

  uint32_t Code(const Operand& o) const {
    return o.literal ? o.code : o.codes[row_[o.slot]];
  }

  // --- Preparation ---

  void PrepareQuery(Query& q) {
    for (Block& b : q.blocks) PrepareBlock(b);
  }

  void PrepareBlock(Block& b) {
    for (size_t i = 0; i < b.rels.size(); ++i) {
      const Table* t = &tables_.at(b.rels[i]);
      slot_tables_[b.base + i] = t;
      b.rows.push_back(t->rows);
    }
    if (b.where != nullptr) PrepareCond(*b.where);
    for (Item& item : b.items) {
      if (item.agg != AggFunc::kCountStar) PrepareOperand(&item.operand);
    }
    for (Operand& g : b.group_by) PrepareOperand(&g);
    PlanPushdown(b);
    for (const Operand& g : b.group_by) b.emit.push_back(&g);
    for (const Item& item : b.items) {
      if (item.agg != AggFunc::kCountStar) b.emit.push_back(&item.operand);
    }
  }

  void PrepareOperand(Operand* o) {
    if (!o->literal) {
      o->codes = slot_tables_[o->slot]->col(o->col).data();
      return;
    }
    const uint32_t found = dict_->Find(o->value);
    if (found != ValueDict::kNotFound) {
      o->code = found;
      return;
    }
    auto it = std::find(extras_.begin(), extras_.end(), o->value);
    o->code = static_cast<uint32_t>(dict_->size() + (it - extras_.begin()));
    if (it == extras_.end()) extras_.push_back(o->value);
  }

  void PrepareCond(Cond& c) {
    if (c.left != nullptr) PrepareCond(*c.left);
    if (c.right != nullptr) PrepareCond(*c.right);
    switch (c.kind) {
      case SqlCondition::Kind::kCmp:
        PrepareOperand(&c.lhs);
        PrepareOperand(&c.rhs);
        c.cmp = CompileCmp(c);
        return;
      case SqlCondition::Kind::kIn:
        PrepareOperand(&c.lhs);
        PrepareQuery(*c.sub);
        return;
      case SqlCondition::Kind::kExists:
        PrepareQuery(*c.sub);
        return;
      case SqlCondition::Kind::kIsNull:
        PrepareOperand(&c.lhs);
        return;
      default:
        return;
    }
  }

  // The dictionary is sorted by the total value order, the order
  // CompareValues uses, so ResolveCmp turns `column op literal` into a code
  // range once per query.
  CodeCmp CompileCmp(const Cond& c) const {
    CodeCmp k;
    if (c.lhs.literal && c.rhs.literal) {
      k.value = CompareValues(mode_, c.op, c.lhs.value, c.rhs.value);
      return k;
    }
    if (!c.lhs.literal && !c.rhs.literal) {
      k.kind = CodeCmp::Kind::kColumns;
      return k;
    }
    k.column_on_left = !c.lhs.literal;
    const Value& v = k.column_on_left ? c.rhs.value : c.lhs.value;
    if (!naive_ && v.is_null()) return k;  // UNKNOWN for every row
    k.kind = CodeCmp::Kind::kRange;
    k.range =
        ResolveCmp(k.column_on_left ? c.op : MirrorOp(c.op), *dict_, v);
    return k;
  }

  // Splits the WHERE's AND-spine: a comparison is checked as soon as its
  // last column is bound, and one equality per FROM depth between a column
  // of that depth's entry and an operand bound before it becomes an index
  // probe. Surviving rows evaluate only the remaining conjuncts, because
  // the pushed ones are TRUE. A MAYBE block keeps UNKNOWN rows: it prunes
  // only on FALSE, takes no probes (they enumerate TRUE matches) and
  // re-evaluates the whole WHERE. A WHERE that can fail on the data is not
  // split, so its subqueries see exactly the rows the reference gives them.
  void PlanPushdown(Block& b) {
    const size_t n = b.rels.size();
    b.checks.resize(n);
    b.equi.resize(n);
    if (b.where == nullptr) return;
    if (n == 0 || b.where->can_fail) {
      b.leaf.push_back(b.where.get());
      return;
    }
    std::vector<const Cond*> conjuncts;
    FlattenAnd(*b.where, &conjuncts);
    auto depth_of = [&](const Operand& o) -> size_t {
      return o.literal || o.slot < b.base ? 0 : o.slot - b.base;
    };
    auto bound_at = [&](const Operand& o, size_t d) {
      return !o.literal && o.slot == b.base + d;
    };
    for (const Cond* c : conjuncts) {
      if (c->kind != SqlCondition::Kind::kCmp) {
        if (!b.maybe) b.leaf.push_back(c);
        continue;
      }
      const size_t depth = std::max(depth_of(c->lhs), depth_of(c->rhs));
      if (!b.maybe && c->op == CmpOp::kEq && !b.equi[depth].active) {
        const Operand* here = nullptr;
        const Operand* other = nullptr;
        if (bound_at(c->lhs, depth) && !bound_at(c->rhs, depth)) {
          here = &c->lhs;
          other = &c->rhs;
        } else if (bound_at(c->rhs, depth) && !bound_at(c->lhs, depth)) {
          here = &c->rhs;
          other = &c->lhs;
        }
        if (here != nullptr) {
          const Table* t = slot_tables_[here->slot];
          b.equi[depth] = EquiProbe{true, other, &t->col(here->col),
                                    IndexFor(t, here->col)};
          continue;
        }
      }
      b.checks[depth].push_back(c);
    }
  }

  const RowHashIndex* IndexFor(const Table* t, size_t col) {
    const auto key = std::make_pair(t, col);
    auto it = indexes_.find(key);
    if (it == indexes_.end()) {
      it = indexes_.try_emplace(key, IndexCodes(t->col(col))).first;
    }
    return &it->second;
  }

  // --- Evaluation ---

  void RunQuery(const Query& q, Answer* out) {
    out->arity = q.arity;
    out->rows = 0;
    out->index.reset();
    if (q.aggregate) {
      // Aggregates produce new values: the union is decoded.
      out->has_values = true;
      out->values = Relation(q.arity);
      for (const Block& b : q.blocks) {
        if (b.aggregate) {
          const Relation r = RunAggregate(b);
          if (failed()) return;
          out->values.AddAll(r);
          continue;
        }
        std::vector<std::vector<uint32_t>> cols;
        size_t rows = 0;
        RunBlock(b, &cols, &rows);
        if (failed()) return;
        for (size_t row = 0; row < rows; ++row) {
          std::vector<Value> vals;
          vals.reserve(b.arity);
          for (size_t c = 0; c < b.arity; ++c) {
            vals.push_back(Decode(cols[c][row]));
          }
          out->values.Add(Tuple(std::move(vals)));
        }
      }
      return;
    }
    if (q.blocks.size() == 1) {
      RunBlock(q.blocks[0], &out->cols, &out->rows);
      return;
    }
    // UNION: the members' code columns, concatenated and compacted.
    out->cols.assign(q.arity, {});
    for (const Block& b : q.blocks) {
      std::vector<std::vector<uint32_t>> cols;
      size_t rows = 0;
      RunBlock(b, &cols, &rows);
      if (failed()) return;
      if (rows > kMaxRows - out->rows) return Fail(TooManyRows());
      for (size_t c = 0; c < q.arity; ++c) {
        out->cols[c].insert(out->cols[c].end(), cols[c].begin(),
                            cols[c].end());
      }
      out->rows += rows;
    }
    CompactRows(q.arity, code_bound(), &out->cols, &out->rows);
  }

  struct Sink {
    std::vector<std::vector<uint32_t>>* cols;
    size_t rows;
    uint64_t probes;
  };

  // Runs `b`'s FROM loop, appending the emitted codes of each kept row to
  // `cols` (one column per b.emit entry, reusing their storage); a plain
  // block's rows are then compacted.
  void RunBlock(const Block& b, std::vector<std::vector<uint32_t>>* cols,
                size_t* rows) {
    // A subquery's time is part of the block that evaluates it.
    OpScope block(stats_, EvalOp::kSqlBlock, /*timed=*/b.top);
    uint64_t in = 0;
    for (const size_t r : b.rows) in += r;
    block.CountIn(in);
    cols->resize(b.emit.size());
    for (std::vector<uint32_t>& col : *cols) col.clear();
    *rows = 0;
    // A maybe-query without a WHERE clause keeps nothing (no row is in
    // doubt).
    if (!b.maybe || b.where != nullptr) {
      if (b.where == nullptr) {
        // Every row of the product is kept.
        if (b.product > kMaxRows) return Fail(TooManyRows());
        for (std::vector<uint32_t>& col : *cols) col.reserve(b.product);
      }
      Sink sink{cols, 0, 0};
      if (b.rows.empty()) {
        Leaf(b, &sink);
      } else {
        Loop(b, 0, &sink);
      }
      block.CountProbes(sink.probes);
      if (failed()) return;
      *rows = sink.rows;
    }
    if (!b.aggregate) CompactRows(b.arity, code_bound(), cols, rows);
    block.CountOut(*rows);
  }

  // Binds FROM entry `depth` to each candidate row; the last entry's rows
  // go to Leaf without a further call.
  void Loop(const Block& b, size_t depth, Sink* sink) {
    const size_t slot = b.base + depth;
    const bool last = depth + 1 == b.rows.size();
    const std::vector<const Cond*>& checks = b.checks[depth];
    auto visit = [&](uint32_t row) {
      row_[slot] = row;
      for (const Cond* c : checks) {
        const TruthValue tv = EvalCmp(*c);
        if (b.maybe ? tv == TruthValue::kFalse : tv != TruthValue::kTrue) {
          return;
        }
      }
      if (last) {
        Leaf(b, sink);
      } else {
        Loop(b, depth + 1, sink);
      }
    };
    const EquiProbe& probe = b.equi[depth];
    if (probe.active) {
      const uint32_t code = Code(*probe.other);
      ++sink->probes;
      // Outside naïve mode a null never compares TRUE: no candidates.
      if (!naive_ && IsNull(code)) return;
      const std::vector<uint32_t>& codes = *probe.codes;
      probe.index->ForEachCandidate(code, [&](uint32_t row) {
        if (codes[row] == code && !failed()) visit(row);
      });
      return;
    }
    const size_t n = b.rows[depth];
    for (size_t row = 0; row < n && !failed(); ++row) {
      visit(static_cast<uint32_t>(row));
    }
  }

  // Emits the bound row if it is kept: the pushed conjuncts held already.
  void Leaf(const Block& b, Sink* sink) {
    bool keep = true;
    if (b.maybe) {
      keep = Eval(*b.where) == TruthValue::kUnknown;
    } else {
      for (const Cond* c : b.leaf) {
        if (Eval(*c) != TruthValue::kTrue) {
          keep = false;
          break;
        }
      }
    }
    if (!keep || failed()) return;
    if (sink->rows == kMaxRows) return Fail(TooManyRows());
    for (size_t i = 0; i < b.emit.size(); ++i) {
      (*sink->cols)[i].push_back(Code(*b.emit[i]));
    }
    ++sink->rows;
  }

  TruthValue EvalCmp(const Cond& c) const {
    const CodeCmp& k = c.cmp;
    switch (k.kind) {
      case CodeCmp::Kind::kConst:
        return k.value;
      case CodeCmp::Kind::kColumns: {
        const uint32_t a = Code(c.lhs);
        const uint32_t b = Code(c.rhs);
        if (!naive_ && (a < null_end_ || b < null_end_)) {
          return TruthValue::kUnknown;
        }
        return FromBool(CmpBool(c.op, a <=> b));
      }
      case CodeCmp::Kind::kRange: {
        const uint32_t code = Code(k.column_on_left ? c.lhs : c.rhs);
        if (!naive_ && code < null_end_) return TruthValue::kUnknown;
        return FromBool(k.range.Holds(code));
      }
    }
    return TruthValue::kUnknown;
  }

  // The reference's short-circuits: AND stops at FALSE, OR at TRUE. After
  // a failure the value is meaningless and the caller unwinds.
  TruthValue Eval(const Cond& c) {
    switch (c.kind) {
      case SqlCondition::Kind::kTrue:
        return TruthValue::kTrue;
      case SqlCondition::Kind::kCmp:
        return EvalCmp(c);
      case SqlCondition::Kind::kAnd: {
        const TruthValue a = Eval(*c.left);
        if (a == TruthValue::kFalse || failed()) return a;
        return And3(a, Eval(*c.right));
      }
      case SqlCondition::Kind::kOr: {
        const TruthValue a = Eval(*c.left);
        if (a == TruthValue::kTrue || failed()) return a;
        return Or3(a, Eval(*c.right));
      }
      case SqlCondition::Kind::kNot:
        return Not3(Eval(*c.left));
      case SqlCondition::Kind::kIn: {
        Answer* sub = Subquery(*c.sub);
        if (sub == nullptr) return TruthValue::kUnknown;
        const TruthValue in = In(Code(c.lhs), *sub);
        return c.negated ? Not3(in) : in;
      }
      case SqlCondition::Kind::kExists: {
        const Answer* sub = Subquery(*c.sub);
        if (sub == nullptr) return TruthValue::kUnknown;
        return FromBool(sub->has_values ? !sub->values.empty()
                                        : sub->rows > 0);
      }
      case SqlCondition::Kind::kIsNull:
        return FromBool(IsNull(Code(c.lhs)) != c.negated);
    }
    return TruthValue::kUnknown;
  }

  // x IN S, the standard's quantified comparison: TRUE if some s compares
  // TRUE; else UNKNOWN if some comparison is UNKNOWN; else FALSE. S's rows
  // are sorted and distinct, so outside naïve mode: an empty S gives FALSE;
  // a null x compares UNKNOWN with every s; a constant x hits only an equal
  // constant; and a miss is UNKNOWN exactly when S holds a null. Naïve
  // comparison is syntactic, so the result is membership (marked nulls by
  // identity). S's codes name the evaluation's values; an aggregate S holds
  // new values, so x is decoded and looked up among them.
  TruthValue In(uint32_t x, Answer& s) const {
    const bool three_valued = !naive_;
    if (s.has_values) {
      const std::vector<Tuple>& rows = s.values.tuples();
      if (rows.empty()) return TruthValue::kFalse;
      const Value& v = Decode(x);
      if (three_valued && v.is_null()) return TruthValue::kUnknown;
      auto it = std::lower_bound(
          rows.begin(), rows.end(), v,
          [](const Tuple& t, const Value& val) { return t[0] < val; });
      if (it != rows.end() && (*it)[0] == v) return TruthValue::kTrue;
      return three_valued && rows.front()[0].is_null() ? TruthValue::kUnknown
                                                       : TruthValue::kFalse;
    }
    if (s.rows == 0) return TruthValue::kFalse;
    if (three_valued && IsNull(x)) return TruthValue::kUnknown;
    const std::vector<uint32_t>& codes = s.cols[0];
    if (!s.index) {
      s.index = IndexCodes(codes);
      // Null codes sort first; extra codes, a null literal among them,
      // last.
      s.has_null = codes.front() < null_end_;
      for (auto it = codes.rbegin();
           !s.has_null && it != codes.rend() && *it >= dict_->size(); ++it) {
        s.has_null = IsNull(*it);
      }
    }
    if (s.index->AnyCandidate(x,
                              [&](uint32_t row) { return codes[row] == x; })) {
      return TruthValue::kTrue;
    }
    return three_valued && s.has_null ? TruthValue::kUnknown
                                      : TruthValue::kFalse;
  }

  // An uncorrelated subquery is evaluated once per evaluation; a correlated
  // one on every call, into the same storage. Null after a failure.
  Answer* Subquery(const Query& q) {
    Answer& a = answers_[q.id];
    if (done_[q.id]) return &a;
    RunQuery(q, &a);
    if (failed()) return nullptr;
    done_[q.id] = !q.correlated;
    return &a;
  }

  // The FROM×WHERE loop emits group keys and item inputs as codes; groups
  // are runs of equal keys in code order, which is value order, so they
  // come out in the reference's order with their members in row order.
  Relation RunAggregate(const Block& b) {
    Relation out(b.arity);
    std::vector<std::vector<uint32_t>> cols;
    size_t n = 0;
    RunBlock(b, &cols, &n);
    if (failed()) return out;
    const size_t keys = b.group_by.size();
    // One group for all nulls outside naïve mode: every null key code
    // becomes 0, a null's code, which sorts before every constant.
    if (!naive_) {
      for (size_t k = 0; k < keys; ++k) {
        for (uint32_t& code : cols[k]) {
          if (IsNull(code)) code = 0;
        }
      }
    }
    std::vector<const std::vector<uint32_t>*> key_cols;
    for (size_t k = 0; k < keys; ++k) key_cols.push_back(&cols[k]);
    const std::vector<uint32_t> order =
        SortedRowOrder(key_cols, n, code_bound());
    auto same_key = [&](uint32_t r1, uint32_t r2) {
      for (size_t k = 0; k < keys; ++k) {
        if (cols[k][r1] != cols[k][r2]) return false;
      }
      return true;
    };
    // The input column of each item other than COUNT(*).
    std::vector<const std::vector<uint32_t>*> inputs(b.items.size(), nullptr);
    for (size_t i = 0, next = keys; i < b.items.size(); ++i) {
      if (b.items[i].agg != AggFunc::kCountStar) inputs[i] = &cols[next++];
    }

    std::vector<uint32_t> members;
    auto add_group = [&](size_t start, size_t end) -> Status {
      members.assign(order.begin() + start, order.begin() + end);
      std::vector<Value> vals;
      vals.reserve(b.arity);
      for (size_t i = 0; i < b.items.size(); ++i) {
        const Item& item = b.items[i];
        if (item.agg == AggFunc::kNone) {
          // The group's value (canonicalized with the key).
          const bool none =
              members.empty() || (!naive_ && IsNull((*inputs[i])[members[0]]));
          vals.push_back(none ? Value::Null(0)
                              : Decode((*inputs[i])[members[0]]));
          continue;
        }
        INCDB_ASSIGN_OR_RETURN(Value v, Aggregate(item, inputs[i], members));
        vals.push_back(std::move(v));
      }
      out.Add(Tuple(std::move(vals)));
      return Status::OK();
    };
    Status st;
    if (keys == 0) {
      st = add_group(0, n);  // one group, possibly empty
    } else {
      for (size_t start = 0; start < n && st.ok();) {
        size_t end = start + 1;
        while (end < n && same_key(order[start], order[end])) ++end;
        st = add_group(start, end);
        start = end;
      }
    }
    if (!st.ok()) Fail(std::move(st));
    return out;
  }

  // COUNT counts non-null codes, MIN and MAX pick by code order (value
  // order), SUM and AVG decode the ints in row order.
  Result<Value> Aggregate(const Item& item, const std::vector<uint32_t>* input,
                          const std::vector<uint32_t>& members) const {
    if (item.agg == AggFunc::kCountStar) {
      return Value::Int(static_cast<int64_t>(members.size()));
    }
    if (naive_ && RefusesNaiveNull(item.agg)) {
      for (const uint32_t row : members) {
        if (IsNull((*input)[row])) return NaiveNullError(*item.item);
      }
    }
    size_t count = 0;
    int64_t sum = 0;
    uint32_t best = 0;
    for (const uint32_t row : members) {
      const uint32_t code = (*input)[row];
      if (IsNull(code)) continue;
      switch (item.agg) {
        case AggFunc::kSum:
        case AggFunc::kAvg:
          INCDB_RETURN_IF_ERROR(AddToSum(item.agg, Decode(code), &sum));
          break;
        case AggFunc::kMin:
          if (count == 0 || code < best) best = code;
          break;
        case AggFunc::kMax:
          if (count == 0 || code > best) best = code;
          break;
        default:
          break;
      }
      ++count;
    }
    switch (item.agg) {
      case AggFunc::kCount:
        return Value::Int(static_cast<int64_t>(count));
      case AggFunc::kSum:
        return count == 0 ? Value::Null(0) : Value::Int(sum);
      case AggFunc::kAvg:
        return count == 0 ? Value::Null(0)
                          : Value::Int(sum / static_cast<int64_t>(count));
      case AggFunc::kMin:
      case AggFunc::kMax:
        return count == 0 ? Value::Null(0) : Decode(best);
      default:
        return Status::Internal("unexpected aggregate function");
    }
  }

  const bool naive_;
  const SqlEvalMode mode_;
  EvalStats* stats_;
  Status error_;  // the first data-dependent error
  std::map<const Relation*, Table> tables_;
  std::shared_ptr<const ValueDict> dict_;
  uint32_t null_end_ = 0;
  std::vector<Value> extras_;  // literals the dictionary lacks
  std::vector<const Table*> slot_tables_;  // while preparing
  std::vector<uint32_t> row_;              // the bound row of each slot
  std::map<std::pair<const Table*, size_t>, RowHashIndex> indexes_;
  std::vector<Answer> answers_;  // by Query::id
  std::vector<char> done_;       // answers_[id] holds a memoized answer
};

}  // namespace

Result<Relation> EvalSql(const SqlQuery& q, const Database& db,
                         SqlEvalMode mode, const EvalOptions& options) {
  Planner planner(db, mode);
  INCDB_ASSIGN_OR_RETURN(Query* root, planner.Plan(q));
  CodeEvaluator ev(mode, options.stats);
  ev.Prepare(planner.queries());
  return ev.Run(*root);
}

Result<Relation> EvalSql(const SqlQuery& q, const Database& db,
                         SqlEvalMode mode) {
  return EvalSql(q, db, mode, EvalOptions{});
}

Result<Relation> EvalSql(const std::string& sql, const Database& db,
                         SqlEvalMode mode, const EvalOptions& options) {
  INCDB_ASSIGN_OR_RETURN(SqlQuery q, ParseSql(sql));
  return EvalSql(q, db, mode, options);
}

Result<Relation> EvalSql(const std::string& sql, const Database& db,
                         SqlEvalMode mode) {
  return EvalSql(sql, db, mode, EvalOptions{});
}

Result<Relation> EvalSqlReference(const std::string& sql, const Database& db,
                                  SqlEvalMode mode, EvalStats* stats) {
  INCDB_ASSIGN_OR_RETURN(SqlQuery q, ParseSql(sql));
  Planner planner(db, mode);
  INCDB_ASSIGN_OR_RETURN(Query* root, planner.Plan(q));
  TupleEvaluator reference(mode, stats);
  return reference.RunQuery(*root);
}

}  // namespace incdb
