#include "sql/eval.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "sql/parser.h"

namespace incdb {
namespace {

// A row in scope: FROM alias (owned by the query AST) + relation decl +
// tuple.
struct ScopeEntry {
  const std::string* alias;
  const RelationDecl* decl;
  const Tuple* tuple;
};

// Stack of rows visible to the condition being evaluated; inner-most last.
using Scope = std::vector<ScopeEntry>;

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

// --- Conjunct pushdown planning ---------------------------------------------
//
// The FROM clause runs as a nested loop. Before running it we statically
// resolve the AND-spine comparisons of the WHERE clause against the final
// scope layout (outer rows, then one entry per FROM table; innermost entry
// and alias qualifier win — exactly the rules Operand applies at runtime). A
// comparison whose operands are all literals or resolved columns is checked
// as soon as its last column is bound, pruning the loop early; an equality
// between a column of the table being bound and an already-available value
// instead probes a per-column hash index so only matching tuples are
// enumerated at all. Pruning is conservative: surviving rows still evaluate
// the full WHERE at the leaf, so the kept rows (and their semantics) are
// identical to the unoptimized loop. In MAYBE mode rows are kept on UNKNOWN,
// so only FALSE comparisons prune and the equality index (which enumerates
// TRUE matches) is disabled.

// An operand resolved at plan time: a literal, or (scope index, column).
struct StaticOperand {
  bool is_literal = false;
  Value literal;
  size_t scope_index = 0;
  size_t col = 0;
};

// A comparison whose operands resolved statically, attached to the FROM
// depth at which it becomes evaluable.
struct PushedCmp {
  SqlCmpOp op = SqlCmpOp::kEq;
  StaticOperand lhs;
  StaticOperand rhs;
};

// An equality turned into an index probe: enumerate only the tuples of the
// table bound at this depth whose `col` equals the (already available)
// `other` operand.
struct EquiProbe {
  bool active = false;
  size_t col = 0;
  StaticOperand other;
};

struct FromPlan {
  std::vector<std::vector<PushedCmp>> checks;  // by FROM depth
  std::vector<EquiProbe> equi;                 // by FROM depth
};

// A block's FROM clause resolved against the schema, and its pushdown plan
// (no checks and no probes on the nested-loop reference path).
struct BlockPlan {
  std::vector<const RelationDecl*> decls;
  std::vector<const Relation*> rels;
  FromPlan from;
};

void FlattenSqlAnd(const SqlCondition& c,
                   std::vector<const SqlCondition*>* out) {
  if (c.kind == SqlCondition::Kind::kAnd) {
    FlattenSqlAnd(*c.left, out);
    FlattenSqlAnd(*c.right, out);
    return;
  }
  out->push_back(&c);
}

// Mirror of Operand's runtime resolution against the final scope layout
// (`outer`, then one entry per FROM table). Returns false when the operand is
// not statically resolvable (including the qualified-alias-without-column
// case, which errors at runtime) — such comparisons are left to the leaf
// WHERE evaluation.
bool ResolveStatic(const SqlOperand& o, const Scope& outer,
                   const SqlSelect& sel,
                   const std::vector<const RelationDecl*>& decls,
                   StaticOperand* out) {
  if (o.kind == SqlOperand::Kind::kLiteral) {
    out->is_literal = true;
    out->literal = o.literal;
    return true;
  }
  if (o.kind != SqlOperand::Kind::kColumn) return false;
  const size_t base = outer.size();
  for (size_t i = sel.from.size(); i-- > 0;) {
    if (!o.table.empty() &&
        !EqualsIgnoreCaseAlias(sel.from[i].alias, o.table)) {
      continue;
    }
    const auto& attrs = decls[i]->attributes;
    for (size_t c = 0; c < attrs.size(); ++c) {
      if (EqualsIgnoreCaseAlias(attrs[c], o.column)) {
        out->is_literal = false;
        out->scope_index = base + i;
        out->col = c;
        return true;
      }
    }
    if (!o.table.empty()) return false;
  }
  for (size_t i = base; i-- > 0;) {
    if (!o.table.empty() && !EqualsIgnoreCaseAlias(*outer[i].alias, o.table)) {
      continue;
    }
    const auto& attrs = outer[i].decl->attributes;
    for (size_t c = 0; c < attrs.size(); ++c) {
      if (EqualsIgnoreCaseAlias(attrs[c], o.column)) {
        out->is_literal = false;
        out->scope_index = i;
        out->col = c;
        return true;
      }
    }
    if (!o.table.empty()) return false;
  }
  return false;
}

// Plans `sel`'s FROM loop under `outer`. Reads only the aliases and decls of
// the outer entries, never their tuples, so a plan holds for every outer row
// with the same layout.
FromPlan PlanFrom(const SqlSelect& sel, const Scope& outer,
                  const std::vector<const RelationDecl*>& decls,
                  bool allow_equi) {
  FromPlan plan;
  const size_t n = sel.from.size();
  const size_t base = outer.size();
  plan.checks.resize(n);
  plan.equi.resize(n);
  if (n == 0 || sel.where == nullptr) return plan;

  std::vector<const SqlCondition*> conjuncts;
  FlattenSqlAnd(*sel.where, &conjuncts);
  for (const SqlCondition* c : conjuncts) {
    if (c->kind != SqlCondition::Kind::kCmp) continue;
    StaticOperand lhs, rhs;
    if (!ResolveStatic(c->lhs, outer, sel, decls, &lhs)) continue;
    if (!ResolveStatic(c->rhs, outer, sel, decls, &rhs)) continue;
    auto depth_of = [&](const StaticOperand& so) -> size_t {
      if (so.is_literal || so.scope_index < base) return 0;
      return so.scope_index - base;
    };
    auto bound_at = [&](const StaticOperand& so, size_t d) {
      return !so.is_literal && so.scope_index == base + d;
    };
    const size_t depth = std::max(depth_of(lhs), depth_of(rhs));
    if (allow_equi && c->op == SqlCmpOp::kEq && !plan.equi[depth].active) {
      const StaticOperand* here = nullptr;
      const StaticOperand* other = nullptr;
      if (bound_at(lhs, depth) && !bound_at(rhs, depth)) {
        here = &lhs;
        other = &rhs;
      } else if (bound_at(rhs, depth) && !bound_at(lhs, depth)) {
        here = &rhs;
        other = &lhs;
      }
      if (here != nullptr) {
        plan.equi[depth] = EquiProbe{true, here->col, *other};
        continue;
      }
    }
    plan.checks[depth].push_back(PushedCmp{c->op, lhs, rhs});
  }
  return plan;
}

Value StaticValue(const StaticOperand& so, const Scope& scope) {
  return so.is_literal ? so.literal : (*scope[so.scope_index].tuple)[so.col];
}

class Evaluator {
 public:
  Evaluator(const Database& db, SqlEvalMode mode, const EvalOptions& options)
      : db_(db), mode_(mode), options_(options), stats_(options.stats) {}

  Result<Relation> Query(const SqlQuery& q, const Scope& outer) {
    Relation out(0);
    bool first = true;
    for (const SqlSelect& sel : q.selects) {
      INCDB_ASSIGN_OR_RETURN(Relation r, Select(sel, outer));
      if (first) {
        out = std::move(r);
        first = false;
      } else {
        if (r.arity() != out.arity()) {
          return Status::InvalidArgument(
              "UNION members have different column counts");
        }
        out.AddAll(r);
      }
    }
    return out;
  }

 private:
  Result<Relation> Select(const SqlSelect& sel, const Scope& outer) {
    if (sel.HasAggregates() || !sel.group_by.empty()) {
      return SelectAggregate(sel, outer);
    }
    // kSqlMaybe keeps rows whose top-level condition is UNKNOWN; the other
    // modes (and all subqueries) keep TRUE rows. A maybe-query without a
    // WHERE clause keeps nothing (no row is in doubt).
    const bool maybe_here =
        mode_ == SqlEvalMode::kSqlMaybe && !in_subquery_;
    INCDB_ASSIGN_OR_RETURN(const BlockPlan* plan,
                           PlanBlock(sel, outer, maybe_here));

    // Output arity.
    size_t arity = 0;
    if (sel.select_star) {
      for (const RelationDecl* d : plan->decls) arity += d->arity;
    } else {
      arity = sel.items.size();
    }
    Relation out(arity);

    OpScope block(stats_, EvalOp::kSqlBlock);
    uint64_t in = 0;
    for (const Relation* r : plan->rels) in += r->size();
    block.CountIn(in);

    Scope scope = outer;
    const size_t base = scope.size();
    scope.resize(base + sel.from.size());

    const TruthValue wanted =
        maybe_here ? TruthValue::kUnknown : TruthValue::kTrue;
    auto leaf = [&]() -> Status {
      if (sel.where != nullptr) {
        INCDB_ASSIGN_OR_RETURN(TruthValue tv, Cond(*sel.where, scope));
        if (tv != wanted) return Status::OK();
      } else if (maybe_here) {
        return Status::OK();
      }
      // Emit the row.
      std::vector<Value> vals;
      vals.reserve(arity);
      if (sel.select_star) {
        for (size_t i = base; i < scope.size(); ++i) {
          for (const Value& v : scope[i].tuple->values()) vals.push_back(v);
        }
      } else {
        for (const SqlSelectItem& item : sel.items) {
          INCDB_ASSIGN_OR_RETURN(Value v, Operand(item.operand, scope));
          vals.push_back(std::move(v));
        }
      }
      out.Add(Tuple(std::move(vals)));
      return Status::OK();
    };
    INCDB_RETURN_IF_ERROR(
        EnumerateFrom(sel, *plan, &scope, base, maybe_here, &block, leaf));
    block.CountOut(out.size());
    return out;
  }

  // The BlockPlan of `sel` under `outer`, built on the block's first entry
  // at this outer depth and reused by every later one (a correlated
  // subquery re-enters its blocks once per outer row). Keying on
  // (&sel, outer.size()) is sound because, within one Evaluator, a block
  // reached at a given depth always sees
  //  * the same outer layout: its outer scope is the FROM entries of its
  //    enclosing blocks, cut off where Subquery's correlation probe
  //    restarts with Scope{}; the enclosing chain is fixed by the AST, so
  //    every cut is a suffix of one entry list and its length picks it;
  //  * the same `maybe_here`: a block is either top-level or inside a
  //    subquery, never both, and aggregate blocks always plan with false.
  // The plan reads only the outer layout's aliases and decls, and the
  // evaluator's fixed mode and options.
  Result<const BlockPlan*> PlanBlock(const SqlSelect& sel, const Scope& outer,
                                     bool maybe_here) {
    const auto key = std::make_pair(&sel, outer.size());
    auto it = block_plans_.find(key);
    if (it != block_plans_.end()) return &it->second;
    BlockPlan plan;
    for (const SqlTableRef& ref : sel.from) {
      INCDB_ASSIGN_OR_RETURN(const RelationDecl* decl,
                             db_.schema().Decl(ref.table));
      if (decl->attributes.empty() && decl->arity > 0) {
        return Status::InvalidArgument(
            "relation " + ref.table +
            " has no attribute names; SQL access requires named attributes");
      }
      plan.decls.push_back(decl);
      plan.rels.push_back(&db_.GetRelation(ref.table));
    }
    if (options_.use_hash_kernels) {
      plan.from = PlanFrom(sel, outer, plan.decls, /*allow_equi=*/!maybe_here);
    } else {
      plan.from.checks.resize(sel.from.size());
      plan.from.equi.resize(sel.from.size());
    }
    return &block_plans_.emplace(key, std::move(plan)).first->second;
  }

  // Runs the FROM nested loop with pushdown pruning (see the planning block
  // above), invoking `leaf` with all rows bound. `maybe_here` selects
  // FALSE-only pruning.
  Status EnumerateFrom(const SqlSelect& sel, const BlockPlan& plan,
                       Scope* scope, size_t base, bool maybe_here,
                       OpScope* block,
                       const std::function<Status()>& leaf) {
    const size_t n = sel.from.size();
    uint64_t probes = 0;
    std::function<Status(size_t)> rec = [&](size_t idx) -> Status {
      if (idx == n) return leaf();
      auto descend = [&](const Tuple& t) -> Status {
        (*scope)[base + idx] =
            ScopeEntry{&sel.from[idx].alias, plan.decls[idx], &t};
        for (const PushedCmp& pc : plan.from.checks[idx]) {
          // Statically resolved operands cannot fail to evaluate.
          const TruthValue tv = Compare(pc.op, StaticValue(pc.lhs, *scope),
                                        StaticValue(pc.rhs, *scope));
          if (maybe_here ? tv == TruthValue::kFalse
                         : tv != TruthValue::kTrue) {
            return Status::OK();
          }
        }
        return rec(idx + 1);
      };
      if (plan.from.equi[idx].active) {
        const EquiProbe& ep = plan.from.equi[idx];
        const Value probe = StaticValue(ep.other, *scope);
        ++probes;
        // In 3VL a NULL probe never compares TRUE: no candidates at all.
        if (mode_ != SqlEvalMode::kNaive && probe.is_null()) {
          return Status::OK();
        }
        const ColumnIndex& index = ColumnIndexFor(plan.rels[idx], ep.col);
        auto it = index.find(probe);
        if (it == index.end()) return Status::OK();
        for (const Tuple* t : it->second) INCDB_RETURN_IF_ERROR(descend(*t));
        return Status::OK();
      }
      for (const Tuple& t : plan.rels[idx]->tuples()) {
        INCDB_RETURN_IF_ERROR(descend(t));
      }
      return Status::OK();
    };
    Status st = rec(0);
    block->CountProbes(probes);
    return st;
  }

  // --- Aggregation ---
  //
  // SQL semantics: GROUP BY treats every NULL as the same group; aggregates
  // other than COUNT(*) ignore NULL inputs; aggregates over an empty group
  // yield NULL (COUNT yields 0). In naïve mode marked nulls keep their
  // identity in grouping and in MIN/MAX/COUNT; SUM/AVG over an unresolved
  // null is refused (kUnsupported) rather than silently wrong.

  Result<Relation> SelectAggregate(const SqlSelect& sel, const Scope& outer) {
    if (sel.select_star) {
      return Status::InvalidArgument("SELECT * cannot be combined with "
                                     "aggregates or GROUP BY");
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

    // Materialize the surviving FROM×WHERE rows as (group key, item inputs).
    struct RowData {
      std::vector<Value> key;
      std::vector<Value> inputs;  // one slot per select item
    };
    std::vector<RowData> rows;
    INCDB_RETURN_IF_ERROR(CollectRows(sel, outer, &rows));

    // Group. SQL: one group for all nulls (they are indistinguishable);
    // naïve mode: marked nulls group by identity.
    auto canonical_key = [&](const std::vector<Value>& key) {
      std::vector<Value> out = key;
      if (mode_ == SqlEvalMode::kSql3VL) {
        for (Value& v : out) {
          if (v.is_null()) v = Value::Null(0);
        }
      }
      return out;
    };
    std::map<std::vector<Value>, std::vector<const RowData*>> groups;
    if (sel.group_by.empty()) {
      groups[{}] = {};  // global aggregate: one group, possibly empty
    }
    for (const RowData& row : rows) {
      groups[canonical_key(row.key)].push_back(&row);
    }

    Relation out(sel.items.size());
    for (const auto& [key, members] : groups) {
      std::vector<Value> vals;
      vals.reserve(sel.items.size());
      for (size_t i = 0; i < sel.items.size(); ++i) {
        const SqlSelectItem& item = sel.items[i];
        if (!item.is_aggregate()) {
          // Representative value (canonicalized with the key).
          if (members.empty()) {
            vals.push_back(Value::Null(0));
            continue;
          }
          Value v = members[0]->inputs[i];
          if (mode_ == SqlEvalMode::kSql3VL && v.is_null()) {
            v = Value::Null(0);
          }
          vals.push_back(std::move(v));
          continue;
        }
        INCDB_ASSIGN_OR_RETURN(Value v, ComputeAggregate(item, members, i));
        vals.push_back(std::move(v));
      }
      out.Add(Tuple(std::move(vals)));
    }
    return out;
  }

  template <typename RowPtrList>
  Result<Value> ComputeAggregate(const SqlSelectItem& item,
                                 const RowPtrList& members, size_t slot) {
    if (item.agg == AggFunc::kCountStar) {
      return Value::Int(static_cast<int64_t>(members.size()));
    }
    // Collect non-null inputs; SQL ignores nulls in all other aggregates.
    std::vector<Value> inputs;
    for (const auto* row : members) {
      const Value& v = row->inputs[slot];
      if (v.is_null()) {
        if (mode_ == SqlEvalMode::kNaive &&
            (item.agg == AggFunc::kSum || item.agg == AggFunc::kAvg ||
             item.agg == AggFunc::kMin || item.agg == AggFunc::kMax)) {
          return Status::Unsupported(
              "cannot aggregate over an unresolved marked null in naive "
              "mode: " +
              item.ToString());
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
        for (const Value& v : inputs) {
          if (!v.is_int()) {
            return Status::InvalidArgument(
                std::string(AggFuncName(item.agg)) +
                " requires integer inputs");
          }
          if (__builtin_add_overflow(sum, v.as_int(), &sum)) {
            return Status::InvalidArgument(
                std::string(AggFuncName(item.agg)) + " overflows int64");
          }
        }
        if (item.agg == AggFunc::kSum) return Value::Int(sum);
        return Value::Int(sum / static_cast<int64_t>(inputs.size()));
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        if (inputs.empty()) return Value::Null(0);
        Value best = inputs[0];
        for (const Value& v : inputs) {
          if (item.agg == AggFunc::kMin ? v < best : best < v) best = v;
        }
        return best;
      }
      default:
        return Status::Internal("unexpected aggregate function");
    }
  }

  // Runs the FROM×WHERE loop collecting group keys and item inputs.
  template <typename RowVec>
  Status CollectRows(const SqlSelect& sel, const Scope& outer, RowVec* rows) {
    INCDB_ASSIGN_OR_RETURN(const BlockPlan* plan,
                           PlanBlock(sel, outer, /*maybe_here=*/false));
    Scope scope = outer;
    const size_t base = scope.size();
    scope.resize(base + sel.from.size());

    OpScope block(stats_, EvalOp::kSqlBlock);
    uint64_t in = 0;
    for (const Relation* r : plan->rels) in += r->size();
    block.CountIn(in);

    auto leaf = [&]() -> Status {
      if (sel.where != nullptr) {
        INCDB_ASSIGN_OR_RETURN(TruthValue tv, Cond(*sel.where, scope));
        if (tv != TruthValue::kTrue) return Status::OK();
      }
      typename RowVec::value_type row;
      for (const SqlOperand& g : sel.group_by) {
        INCDB_ASSIGN_OR_RETURN(Value v, Operand(g, scope));
        row.key.push_back(std::move(v));
      }
      for (const SqlSelectItem& item : sel.items) {
        if (item.agg == AggFunc::kCountStar) {
          row.inputs.push_back(Value::Int(0));  // placeholder
        } else {
          INCDB_ASSIGN_OR_RETURN(Value v, Operand(item.operand, scope));
          row.inputs.push_back(std::move(v));
        }
      }
      rows->push_back(std::move(row));
      return Status::OK();
    };
    INCDB_RETURN_IF_ERROR(EnumerateFrom(sel, *plan, &scope, base,
                                        /*maybe_here=*/false, &block, leaf));
    block.CountOut(rows->size());
    return Status::OK();
  }

  Result<Value> Operand(const SqlOperand& o, const Scope& scope) {
    if (o.kind == SqlOperand::Kind::kLiteral) return o.literal;
    // Resolve column: inner-most scope entry first; alias qualifier wins.
    for (auto it = scope.rbegin(); it != scope.rend(); ++it) {
      if (!o.table.empty() && !EqualsIgnoreCaseAlias(*it->alias, o.table)) {
        continue;
      }
      const auto& attrs = it->decl->attributes;
      for (size_t i = 0; i < attrs.size(); ++i) {
        if (EqualsIgnoreCaseAlias(attrs[i], o.column)) {
          return (*it->tuple)[i];
        }
      }
      if (!o.table.empty()) {
        return Status::NotFound("column " + o.column + " not in table " +
                                o.table);
      }
    }
    return Status::NotFound("unresolved column " + o.ToString());
  }

  TruthValue Compare(SqlCmpOp op, const Value& a, const Value& b) {
    if (mode_ != SqlEvalMode::kNaive && (a.is_null() || b.is_null())) {
      return TruthValue::kUnknown;
    }
    bool r = false;
    switch (op) {
      case SqlCmpOp::kEq:
        r = a == b;
        break;
      case SqlCmpOp::kNe:
        r = a != b;
        break;
      case SqlCmpOp::kLt:
        r = a < b;
        break;
      case SqlCmpOp::kLe:
        r = a <= b;
        break;
      case SqlCmpOp::kGt:
        r = a > b;
        break;
      case SqlCmpOp::kGe:
        r = a >= b;
        break;
    }
    return r ? TruthValue::kTrue : TruthValue::kFalse;
  }

  Result<TruthValue> Cond(const SqlCondition& c, const Scope& scope) {
    switch (c.kind) {
      case SqlCondition::Kind::kTrue:
        return TruthValue::kTrue;
      case SqlCondition::Kind::kCmp: {
        INCDB_ASSIGN_OR_RETURN(Value a, Operand(c.lhs, scope));
        INCDB_ASSIGN_OR_RETURN(Value b, Operand(c.rhs, scope));
        return Compare(c.op, a, b);
      }
      case SqlCondition::Kind::kAnd: {
        INCDB_ASSIGN_OR_RETURN(TruthValue a, Cond(*c.left, scope));
        if (a == TruthValue::kFalse) return TruthValue::kFalse;
        INCDB_ASSIGN_OR_RETURN(TruthValue b, Cond(*c.right, scope));
        return And3(a, b);
      }
      case SqlCondition::Kind::kOr: {
        INCDB_ASSIGN_OR_RETURN(TruthValue a, Cond(*c.left, scope));
        if (a == TruthValue::kTrue) return TruthValue::kTrue;
        INCDB_ASSIGN_OR_RETURN(TruthValue b, Cond(*c.right, scope));
        return Or3(a, b);
      }
      case SqlCondition::Kind::kNot: {
        INCDB_ASSIGN_OR_RETURN(TruthValue a, Cond(*c.left, scope));
        return Not3(a);
      }
      case SqlCondition::Kind::kIn: {
        INCDB_ASSIGN_OR_RETURN(Value x, Operand(c.lhs, scope));
        Relation storage;
        INCDB_ASSIGN_OR_RETURN(const Relation* sub,
                               Subquery(*c.subquery, scope, &storage));
        if (sub->arity() != 1) {
          return Status::InvalidArgument(
              "IN subquery must return one column");
        }
        const TruthValue in = options_.use_hash_kernels
                                  ? InByLookup(x, *sub)
                                  : InByFold(x, *sub);
        return c.negated ? Not3(in) : in;
      }
      case SqlCondition::Kind::kExists: {
        Relation storage;
        INCDB_ASSIGN_OR_RETURN(const Relation* sub,
                               Subquery(*c.subquery, scope, &storage));
        return sub->empty() ? TruthValue::kFalse : TruthValue::kTrue;
      }
      case SqlCondition::Kind::kIsNull: {
        INCDB_ASSIGN_OR_RETURN(Value x, Operand(c.lhs, scope));
        const bool is_null = x.is_null();
        return (is_null != c.negated) ? TruthValue::kTrue : TruthValue::kFalse;
      }
    }
    return Status::Internal("unknown SQL condition kind");
  }

  // x IN S, the standard's quantified comparison: TRUE if some s compares
  // TRUE; else UNKNOWN if some comparison is UNKNOWN; else FALSE. NOT IN is
  // its 3VL negation. This is the reference: one Compare per tuple of S.
  TruthValue InByFold(const Value& x, const Relation& sub) {
    TruthValue acc = TruthValue::kFalse;
    for (const Tuple& s : sub.tuples()) {
      acc = Or3(acc, Compare(SqlCmpOp::kEq, x, s[0]));
      if (acc == TruthValue::kTrue) break;
    }
    return acc;
  }

  // The same truth value from one binary search. S's tuples are canonical
  // (sorted, deduplicated, nulls first), so in 3VL and MAYBE: an empty S
  // gives FALSE; otherwise a null x compares UNKNOWN with every s; a
  // constant x hits only an equal constant; and a miss is UNKNOWN exactly
  // when S's first tuple holds a null. In naïve mode comparison is
  // syntactic, so the result is membership (marked nulls by identity).
  TruthValue InByLookup(const Value& x, const Relation& sub) {
    const std::vector<Tuple>& s = sub.tuples();
    const bool three_valued = mode_ != SqlEvalMode::kNaive;
    if (s.empty()) return TruthValue::kFalse;
    if (three_valued && x.is_null()) return TruthValue::kUnknown;
    auto it = std::lower_bound(
        s.begin(), s.end(), x,
        [](const Tuple& t, const Value& v) { return t[0] < v; });
    if (it != s.end() && (*it)[0] == x) return TruthValue::kTrue;
    return three_valued && s.front()[0].is_null() ? TruthValue::kUnknown
                                                  : TruthValue::kFalse;
  }

  // Subquery evaluation with memoization of uncorrelated subqueries: a
  // subquery that evaluates successfully against the empty scope cannot
  // depend on outer rows, so its result is computed once per top-level
  // query instead of once per candidate row, and returned by pointer. A
  // correlated subquery is evaluated into `*storage`.
  Result<const Relation*> Subquery(const SqlQuery& q, const Scope& scope,
                                   Relation* storage) {
    auto it = uncorrelated_cache_.find(&q);
    if (it != uncorrelated_cache_.end()) return &it->second;
    // Subqueries always use the TRUE filter, even in MAYBE mode.
    const bool saved = in_subquery_;
    in_subquery_ = true;
    auto restore = [&](Result<const Relation*> r) {
      in_subquery_ = saved;
      return r;
    };
    if (correlated_.count(&q) == 0) {
      auto without_outer = Query(q, Scope{});
      if (without_outer.ok()) {
        return restore(
            &uncorrelated_cache_.emplace(&q, *std::move(without_outer))
                 .first->second);
      }
      correlated_.insert(&q);
    }
    auto with_outer = Query(q, scope);
    if (!with_outer.ok()) return restore(with_outer.status());
    *storage = *std::move(with_outer);
    return restore(storage);
  }

  // A per-column hash index over a relation's canonical tuples, built once
  // per evaluator and shared by every probe (correlated subqueries re-probe
  // the same index for each outer row).
  using ColumnIndex =
      std::unordered_map<Value, std::vector<const Tuple*>, ValueHash>;

  const ColumnIndex& ColumnIndexFor(const Relation* rel, size_t col) {
    const auto key = std::make_pair(rel, col);
    auto it = column_indexes_.find(key);
    if (it != column_indexes_.end()) return it->second;
    ColumnIndex index;
    for (const Tuple& t : rel->tuples()) index[t[col]].push_back(&t);
    return column_indexes_.emplace(key, std::move(index)).first->second;
  }

  const Database& db_;
  SqlEvalMode mode_;
  EvalOptions options_;
  EvalStats* stats_;
  bool in_subquery_ = false;
  std::map<const SqlQuery*, Relation> uncorrelated_cache_;
  std::set<const SqlQuery*> correlated_;
  std::map<std::pair<const Relation*, size_t>, ColumnIndex> column_indexes_;
  std::map<std::pair<const SqlSelect*, size_t>, BlockPlan> block_plans_;
};

}  // namespace

Result<Relation> EvalSql(const SqlQuery& q, const Database& db,
                         SqlEvalMode mode, const EvalOptions& options) {
  Evaluator ev(db, mode, options);
  return ev.Query(q, Scope{});
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

}  // namespace incdb
