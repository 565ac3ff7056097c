#include "ctables/code_ctable.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <utility>

namespace incdb {
namespace {

constexpr uint32_t kNullSlot = WorldEncoding::kNullSlot;
constexpr uint32_t kTrue = CondArena::kTrue;
constexpr uint32_t kFalse = CondArena::kFalse;

bool Identical(const uint32_t* a, const uint32_t* b, size_t arity) {
  return std::equal(a, a + arity, b);
}

SortedCodeRows SortedRows(const CodeRows& set) {
  const size_t arity = set.width();
  std::vector<uint32_t> slots;
  slots.reserve(set.size());
  set.ForEach([&](uint32_t s) { slots.push_back(s); });
  std::sort(slots.begin(), slots.end(), [&](uint32_t a, uint32_t b) {
    const uint32_t* ra = set.Row(a);
    const uint32_t* rb = set.Row(b);
    return std::lexicographical_compare(ra, ra + arity, rb, rb + arity);
  });
  SortedCodeRows out;
  out.arity = arity;
  out.size = slots.size();
  out.cells.reserve(slots.size() * arity);
  for (uint32_t s : slots) {
    out.cells.insert(out.cells.end(), set.Row(s), set.Row(s) + arity);
  }
  return out;
}

}  // namespace

CodeRowIndex::CodeRowIndex(const CodeCTable& t)
    : arity_(t.arity),
      num_rows_(static_cast<uint32_t>(t.rows())),
      complete_(t.arity) {
  for (uint32_t i = 0; i < num_rows_; ++i) {
    const uint32_t* row = t.Row(i);
    if (RowHasSlot(row, arity_)) {
      null_rows_.push_back(i);
      continue;
    }
    bool inserted;
    const uint32_t s = complete_.Insert(row, &inserted);
    if (s >= buckets_.size()) buckets_.resize(complete_.slot_bound());
    buckets_[s].push_back(i);
  }
}

const std::vector<uint32_t>& CodeRowIndex::ExactRows(
    const uint32_t* row) const {
  static const std::vector<uint32_t> kNoRows;
  const uint32_t s = complete_.Find(row);
  return s == CodeRows::kNone ? kNoRows : buckets_[s];
}

bool ResidualSafeForCTableJoin(const Predicate* pred) {
  if (pred == nullptr) return true;
  switch (pred->kind()) {
    case Predicate::Kind::kTrue:
    case Predicate::Kind::kFalse:
      return true;
    case Predicate::Kind::kCmp:
      return pred->op() == CmpOp::kEq || pred->op() == CmpOp::kNe;
    case Predicate::Kind::kIsNull:
      return false;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      return ResidualSafeForCTableJoin(pred->left().get()) &&
             ResidualSafeForCTableJoin(pred->right().get());
    case Predicate::Kind::kNot:
      return ResidualSafeForCTableJoin(pred->left().get());
  }
  return false;
}

Result<std::unique_ptr<CTableQuery>> CTableQuery::Make(
    const RAExprPtr& plan, const WorldSpace& space) {
  INCDB_ASSIGN_OR_RETURN(WorldEncoding enc, WorldEncoding::Make(plan, space));
  return std::make_unique<CTableQuery>(std::move(enc));
}

Result<std::unique_ptr<CTableQuery>> CTableQuery::Make(const RAExprPtr& plan,
                                                       const CDatabase& db) {
  const std::set<Value> constants = db.Constants();
  const std::set<NullId> nulls = db.Nulls();
  std::vector<Value> values(constants.begin(), constants.end());
  WorldEncoding::CollectLiteralValues(plan, &values);
  INCDB_ASSIGN_OR_RETURN(
      WorldEncoding enc,
      WorldEncoding::FromValues(std::move(values),
                                std::vector<NullId>(nulls.begin(), nulls.end()),
                                /*domain=*/{}));
  return std::make_unique<CTableQuery>(std::move(enc));
}

CTableQuery::CTableQuery(WorldEncoding enc)
    : enc_(std::move(enc)), solver_(&arena_, enc_) {}

uint32_t CTableQuery::ConstTerm(const CodePred::Node& n) {
  // An = or ≠ range is the constant's one code when the dictionary has it.
  if (n.range.hi != n.range.lo) return n.range.lo;
  auto [it, fresh] = extra_codes_.emplace(
      n.constant, static_cast<uint32_t>(enc_.dict().size() + extra_.size()));
  if (fresh) extra_.push_back(n.constant);
  return it->second;
}

Value CTableQuery::TermValue(uint32_t term) const {
  if (term & kNullSlot) return enc_.Decode(term);
  if (term < enc_.dict().size()) return enc_.dict().values[term];
  return extra_[term - enc_.dict().size()];
}

Tuple CTableQuery::DecodeRow(const uint32_t* row, size_t arity) const {
  std::vector<Value> values;
  values.reserve(arity);
  for (size_t c = 0; c < arity; ++c) values.push_back(TermValue(row[c]));
  return Tuple(std::move(values));
}

Relation CTableQuery::Decode(const SortedCodeRows& rows) const {
  std::vector<Tuple> tuples;
  tuples.reserve(rows.size);
  for (size_t i = 0; i < rows.size; ++i) {
    tuples.push_back(DecodeRow(rows.Row(i), rows.arity));
  }
  return Relation(rows.arity, std::move(tuples));
}

void CTableQuery::CountConditionWork(EvalStats* stats) const {
  if (stats == nullptr) return;
  stats->CountCondSimplified(arena_.simplified());
  stats->CountUnsatPruned(arena_.unsat_pruned());
}

Result<uint32_t> CTableQuery::PredCond(const CodePred& p, size_t i,
                                       const uint32_t* row, bool negate) {
  using Kind = CodePred::Node::Kind;
  const CodePred::Node& n = p.nodes[i];
  auto fold = [negate](bool holds) { return holds != negate ? kTrue : kFalse; };
  switch (n.kind) {
    case Kind::kConst:
      return fold(n.value);
    case Kind::kIsNull:
      // A world holds no nulls: a base null's slot (never below null_end)
      // is a constant in every world, and only a literal's null, a code
      // below null_end, is null.
      return fold(row[n.a] < p.null_end);
    case Kind::kAnd:
    case Kind::kOr: {
      INCDB_ASSIGN_OR_RETURN(const uint32_t a, PredCond(p, n.l, row, negate));
      INCDB_ASSIGN_OR_RETURN(const uint32_t b, PredCond(p, n.r, row, negate));
      return (n.kind == Kind::kAnd) != negate ? arena_.And(a, b)
                                              : arena_.Or(a, b);
    }
    case Kind::kNot:
      return PredCond(p, n.l, row, !negate);
    case Kind::kColumns:
    case Kind::kRange:
      break;
  }
  const bool equality = n.op == CmpOp::kEq || n.op == CmpOp::kNe;
  const uint32_t a = row[n.a];
  uint32_t b;
  if (n.kind == Kind::kColumns) {
    b = row[n.b];
    if (!equality && !((a | b) & kNullSlot)) {
      return fold(CmpBool(n.op, a <=> b));
    }
  } else {
    if (!(a & kNullSlot)) return fold(n.range.Holds(a));
    b = equality ? ConstTerm(n) : 0;
  }
  if (!equality) {
    return Status::Unsupported(
        "order comparison on nulls is outside the c-table condition "
        "language: " +
        n.cmp->ToString());
  }
  const uint32_t eq = arena_.Eq(a, b);
  return (n.op == CmpOp::kNe) != negate ? arena_.Not(eq) : eq;
}

uint32_t CTableQuery::RowsEqual(const uint32_t* a, const uint32_t* b,
                                size_t arity) {
  std::vector<uint32_t>& ops = row_ops_;
  ops.clear();
  for (size_t i = 0; i < arity; ++i) {
    const uint32_t e = arena_.Eq(a[i], b[i]);
    if (e == kFalse) return kFalse;
    if (e != kTrue) ops.push_back(e);
  }
  return arena_.AndOf(&ops);
}

uint32_t CTableQuery::RowsDiffer(const uint32_t* a, const uint32_t* b,
                                 size_t arity) {
  std::vector<uint32_t>& ops = row_ops_;
  ops.clear();
  for (size_t i = 0; i < arity; ++i) {
    const uint32_t e = arena_.Eq(a[i], b[i]);
    if (e == kFalse) return kTrue;
    if (e != kTrue) ops.push_back(arena_.Not(e));
  }
  return arena_.OrOf(&ops);
}

Result<CodeCTable> CTableQuery::Select(const PredicatePtr& pred,
                                       const CodeCTable& in) {
  const CodePred p = CompilePred(pred, enc_.dict());
  CodeCTable out(in.arity);
  out.global = in.global;
  for (size_t i = 0; i < in.rows(); ++i) {
    INCDB_ASSIGN_OR_RETURN(const uint32_t c,
                           PredCond(p, p.root(), in.Row(i), false));
    const uint32_t combined = arena_.And(in.conds[i], c);
    if (combined != kFalse) out.Add(in.Row(i), combined);
  }
  return out;
}

CodeCTable CTableQuery::Project(const std::vector<size_t>& cols,
                                const CodeCTable& in) {
  CodeCTable out(cols.size());
  out.global = in.global;
  out.conds = in.conds;
  out.cells.reserve(in.rows() * cols.size());
  for (size_t i = 0; i < in.rows(); ++i) {
    const uint32_t* row = in.Row(i);
    for (size_t c : cols) out.cells.push_back(row[c]);
  }
  return out;
}

CodeCTable CTableQuery::Product(const CodeCTable& l, const CodeCTable& r,
                                EvalStats* stats) {
  OpScope scope(stats, EvalOp::kCTableProduct);
  CodeCTable out(l.arity + r.arity);
  out.global = arena_.And(l.global, r.global);
  for (size_t i = 0; i < l.rows(); ++i) {
    for (size_t j = 0; j < r.rows(); ++j) {
      const uint32_t c = arena_.And(l.conds[i], r.conds[j]);
      if (c == kFalse) continue;
      out.cells.insert(out.cells.end(), l.Row(i), l.Row(i) + l.arity);
      out.cells.insert(out.cells.end(), r.Row(j), r.Row(j) + r.arity);
      out.conds.push_back(c);
    }
  }
  scope.CountIn(l.rows() + r.rows());
  scope.CountOut(out.rows());
  return out;
}

Result<CodeCTable> CTableQuery::Join(const CodeCTable& l, const CodeCTable& r,
                                     const std::vector<JoinKey>& keys,
                                     const PredicatePtr& residual,
                                     EvalStats* stats) {
  OpScope scope(stats, EvalOp::kCTableJoin);
  CodeCTable out(l.arity + r.arity);
  out.global = arena_.And(l.global, r.global);

  // Right rows with codes in every key column, bucketed by key; rows with
  // a null in a key column can match any probe. Candidates are replayed in
  // row order.
  CodeRows keyset(keys.size());
  std::vector<std::vector<uint32_t>> buckets;
  std::vector<uint32_t> null_keyed;
  std::vector<uint32_t> key(keys.size());
  auto gather = [&](const uint32_t* row, bool left) {
    bool codes = true;
    for (size_t k = 0; k < keys.size(); ++k) {
      key[k] = row[left ? keys[k].left_col : keys[k].right_col];
      codes = codes && !(key[k] & kNullSlot);
    }
    return codes;
  };
  for (uint32_t j = 0; j < r.rows(); ++j) {
    if (!gather(r.Row(j), /*left=*/false)) {
      null_keyed.push_back(j);
      continue;
    }
    bool inserted;
    const uint32_t s = keyset.Insert(key.data(), &inserted);
    if (s >= buckets.size()) buckets.resize(keyset.slot_bound());
    buckets[s].push_back(j);
  }

  const CodePred pred = residual != nullptr
                            ? CompilePred(residual, enc_.dict())
                            : CodePred{};
  uint64_t probes = 0;
  std::vector<uint32_t> candidates, all_rows, joined(out.arity);
  static const std::vector<uint32_t> kNoRows;
  for (size_t i = 0; i < l.rows(); ++i) {
    const uint32_t* a = l.Row(i);
    const std::vector<uint32_t>* cand = &candidates;
    if (!gather(a, /*left=*/true)) {
      if (all_rows.size() != r.rows()) {
        all_rows.resize(r.rows());
        for (uint32_t j = 0; j < r.rows(); ++j) all_rows[j] = j;
      }
      cand = &all_rows;
    } else {
      const uint32_t s = keyset.Find(key.data());
      const std::vector<uint32_t>& exact =
          s == CodeRows::kNone ? kNoRows : buckets[s];
      candidates.clear();
      std::merge(exact.begin(), exact.end(), null_keyed.begin(),
                 null_keyed.end(), std::back_inserter(candidates));
    }
    for (uint32_t j : *cand) {
      ++probes;
      const uint32_t* b = r.Row(j);
      uint32_t c = arena_.And(l.conds[i], r.conds[j]);
      for (size_t k = 0; k < keys.size() && c != kFalse; ++k) {
        c = arena_.And(c, arena_.Eq(a[keys[k].left_col], b[keys[k].right_col]));
      }
      if (c == kFalse) continue;
      std::copy(a, a + l.arity, joined.begin());
      std::copy(b, b + r.arity, joined.begin() + l.arity);
      if (!pred.empty()) {
        INCDB_ASSIGN_OR_RETURN(
            const uint32_t rc,
            PredCond(pred, pred.root(), joined.data(), false));
        c = arena_.And(c, rc);
      }
      if (c != kFalse) out.Add(joined.data(), c);
    }
  }
  scope.CountIn(l.rows() + r.rows());
  scope.CountProbes(probes);
  scope.CountOut(out.rows());
  return out;
}

CodeCTable CTableQuery::Union(const CodeCTable& l, const CodeCTable& r) {
  CodeCTable out(l.arity);
  out.global = arena_.And(l.global, r.global);
  out.cells = l.cells;
  out.cells.insert(out.cells.end(), r.cells.begin(), r.cells.end());
  out.conds = l.conds;
  out.conds.insert(out.conds.end(), r.conds.begin(), r.conds.end());
  return out;
}

CodeCTable CTableQuery::Diff(const CodeCTable& l, const CodeCTable& r,
                             EvalStats* stats) {
  OpScope scope(stats, EvalOp::kCTableDiff);
  CodeCTable out(l.arity);
  out.global = arena_.And(l.global, r.global);
  const CodeRowIndex index(r);
  uint64_t probes = 0;
  std::vector<uint32_t> ops;
  for (size_t i = 0; i < l.rows(); ++i) {
    const uint32_t* a = l.Row(i);
    // a survives where every candidate b is absent or differs from it. An
    // unconditional b equal to a ends the visit: a is in no world.
    ops.assign(1, l.conds[i]);
    bool killed = false;
    index.ForEachCandidate(a, [&](uint32_t j) {
      ++probes;
      const uint32_t* b = r.Row(j);
      if (r.conds[j] == kTrue && Identical(a, b, l.arity)) {
        killed = true;
        return false;
      }
      const uint32_t absent = arena_.Not(r.conds[j]);
      ops.push_back(arena_.Or(absent, RowsDiffer(a, b, l.arity)));
      return true;
    });
    if (killed) continue;
    const uint32_t c = arena_.AndOf(&ops);
    if (c != kFalse) out.Add(a, c);
  }
  scope.CountIn(l.rows() + r.rows());
  scope.CountProbes(probes);
  scope.CountOut(out.rows());
  return out;
}

CodeCTable CTableQuery::Intersect(const CodeCTable& l, const CodeCTable& r,
                                  EvalStats* stats) {
  OpScope scope(stats, EvalOp::kCTableIntersect);
  CodeCTable out(l.arity);
  out.global = arena_.And(l.global, r.global);
  const CodeRowIndex index(r);
  uint64_t probes = 0;
  std::vector<uint32_t> ops;
  for (size_t i = 0; i < l.rows(); ++i) {
    const uint32_t* a = l.Row(i);
    // An unconditional b equal to a makes a's membership its own condition.
    ops.clear();
    bool always = false;
    index.ForEachCandidate(a, [&](uint32_t j) {
      ++probes;
      const uint32_t* b = r.Row(j);
      if (r.conds[j] == kTrue && Identical(a, b, l.arity)) {
        always = true;
        return false;
      }
      ops.push_back(arena_.And(r.conds[j], RowsEqual(a, b, l.arity)));
      return true;
    });
    const uint32_t any = always ? kTrue : arena_.OrOf(&ops);
    const uint32_t c = arena_.And(l.conds[i], any);
    if (c != kFalse) out.Add(a, c);
  }
  scope.CountIn(l.rows() + r.rows());
  scope.CountProbes(probes);
  scope.CountOut(out.rows());
  return out;
}

uint32_t CTableQuery::Membership(const CodeCTable& t,
                                 const CodeRowIndex& index,
                                 const uint32_t* cand) {
  std::vector<uint32_t> ops;
  index.ForEachCandidate(cand, [&](uint32_t i) {
    ops.push_back(arena_.And(t.conds[i], RowsEqual(t.Row(i), cand, t.arity)));
    return true;
  });
  return arena_.OrOf(&ops);
}

Result<CodeCTable> CTableQuery::Eval(const RAExprPtr& plan,
                                     const Database& db,
                                     const EvalOptions& options) {
  INCDB_RETURN_IF_ERROR(plan->InferArity(db.schema()).status());
  return Rec(RAExpr::ExpandDivision(plan, db.schema()), db, options.stats);
}

Result<CodeCTable> CTableQuery::Eval(const RAExprPtr& plan,
                                     const CDatabase& db,
                                     const EvalOptions& options) {
  INCDB_RETURN_IF_ERROR(plan->InferArity(db.schema()).status());
  return Rec(RAExpr::ExpandDivision(plan, db.schema()), db, options.stats);
}

CodeCTable CTableQuery::Scan(const Database& db,
                             const std::string& name) const {
  const Relation& rel = db.GetRelation(name);
  CodeCTable t(rel.arity());
  t.cells = enc_.EncodeBaseRows(rel);
  t.conds.assign(rel.size(), kTrue);
  return t;
}

CodeCTable CTableQuery::Scan(const CDatabase& db, const std::string& name) {
  return Import(db.GetTable(name));
}

template <typename Source>
Result<CodeCTable> CTableQuery::Rec(const RAExprPtr& e, const Source& db,
                                    EvalStats* stats) {
  using K = RAExpr::Kind;
  switch (e->kind()) {
    case K::kScan:
      return Scan(db, e->relation_name());
    case K::kConstRel: {
      CodeCTable t(e->literal().arity());
      t.cells = enc_.EncodeLiteralRows(e->literal());
      t.conds.assign(e->literal().size(), kTrue);
      return t;
    }
    case K::kSelect: {
      if (e->left()->kind() == K::kProduct) {
        INCDB_ASSIGN_OR_RETURN(CodeCTable l, Rec(e->left()->left(), db, stats));
        INCDB_ASSIGN_OR_RETURN(CodeCTable r,
                               Rec(e->left()->right(), db, stats));
        const JoinSplit split = SplitForEquiJoin(e->predicate(), l.arity);
        if (!split.keys.empty() &&
            ResidualSafeForCTableJoin(split.residual.get())) {
          return Join(l, r, split.keys, split.residual, stats);
        }
        return Select(e->predicate(), Product(l, r, stats));
      }
      INCDB_ASSIGN_OR_RETURN(CodeCTable in, Rec(e->left(), db, stats));
      return Select(e->predicate(), in);
    }
    case K::kProject: {
      INCDB_ASSIGN_OR_RETURN(CodeCTable in, Rec(e->left(), db, stats));
      return Project(e->columns(), in);
    }
    case K::kProduct:
    case K::kUnion:
    case K::kDiff:
    case K::kIntersect: {
      INCDB_ASSIGN_OR_RETURN(CodeCTable l, Rec(e->left(), db, stats));
      INCDB_ASSIGN_OR_RETURN(CodeCTable r, Rec(e->right(), db, stats));
      if (e->kind() == K::kProduct) return Product(l, r, stats);
      if (l.arity != r.arity) {
        return Status::InvalidArgument(
            std::string("c-table ") +
            (e->kind() == K::kUnion
                 ? "union"
                 : e->kind() == K::kDiff ? "difference" : "intersection") +
            " arity mismatch");
      }
      if (e->kind() == K::kUnion) return Union(l, r);
      if (e->kind() == K::kDiff) return Diff(l, r, stats);
      return Intersect(l, r, stats);
    }
    case K::kDivide:
      return Status::Internal("division should have been expanded");
    case K::kDelta: {
      // The active domain in Value order: the nulls, then the constants.
      CodeCTable out(2);
      for (uint32_t s = 0; s < enc_.nulls().size(); ++s) {
        const uint32_t row[2] = {kNullSlot | s, kNullSlot | s};
        out.Add(row, kTrue);
      }
      for (const Value& c : db.Constants()) {
        const uint32_t code = enc_.dict().Find(c);
        const uint32_t row[2] = {code, code};
        out.Add(row, kTrue);
      }
      return out;
    }
  }
  return Status::Internal("unknown RA node kind");
}

Result<SortedCodeRows> CTableQuery::Certain(const CodeCTable& t,
                                            uint64_t budget,
                                            EvalStats* stats) {
  OpScope scope(stats, EvalOp::kCTableExtract);
  scope.CountIn(t.rows());
  const std::vector<uint32_t>& domain = enc_.domain_codes();
  const size_t arity = t.arity;
  SortedCodeRows out;
  out.arity = arity;
  if (domain.empty()) {
    // No domain value to bind a null to: with a null in sight the world
    // set is empty, as enumeration finds (0 worlds, empty ∩). Every
    // condition but true and false mentions a null.
    bool has_null = t.global > kFalse;
    for (size_t i = 0; i < t.rows() && !has_null; ++i) {
      has_null = t.conds[i] > kFalse || RowHasSlot(t.Row(i), arity);
    }
    if (has_null) return out;
  }

  // One world: the first satisfying valuation of the global condition,
  // every other null at the first domain value. Every certain row is in
  // it, so its rows are the candidates.
  constexpr uint32_t kUnbound = CodeRows::kNone;
  std::vector<uint32_t> v0(enc_.nulls().size(), kUnbound);
  uint64_t left = budget;
  INCDB_ASSIGN_OR_RETURN(const bool global_sat,
                         solver_.Satisfiable(t.global, &left, &v0));
  if (!global_sat) {
    return Status::InvalidArgument(
        "c-table global condition is unsatisfiable over the domain: the "
        "represented world set is empty");
  }
  for (uint32_t& code : v0) {
    if (code == kUnbound && !domain.empty()) code = domain[0];
  }
  CodeRows world(arity);
  std::vector<uint32_t> ground(arity);
  for (size_t i = 0; i < t.rows(); ++i) {
    if (!arena_.Eval(t.conds[i], v0.data())) continue;
    const uint32_t* row = t.Row(i);
    for (size_t c = 0; c < arity; ++c) {
      ground[c] = (row[c] & kNullSlot) ? v0[row[c] & ~kNullSlot] : row[c];
    }
    bool inserted;
    world.Insert(ground.data(), &inserted);
  }
  const SortedCodeRows candidates = SortedRows(world);

  const CodeRowIndex index(t);
  uint64_t sat_checks = 0;
  std::vector<uint32_t> ops;
  for (size_t k = 0; k < candidates.size; ++k) {
    const uint32_t* cand = candidates.Row(k);
    // An unconditional row carrying cand puts it in every world.
    const std::vector<uint32_t>& exact = index.ExactRows(cand);
    const bool fast_true =
        std::any_of(exact.begin(), exact.end(),
                    [&](uint32_t i) { return t.conds[i] == kTrue; });
    if (!fast_true) {
      // global ∧ ¬D_t, negated row by row.
      ops.assign(1, t.global);
      for (uint32_t i : exact) ops.push_back(arena_.Not(t.conds[i]));
      for (uint32_t i : index.NullRows()) {
        const uint32_t absent = arena_.Not(t.conds[i]);
        ops.push_back(arena_.Or(absent, RowsDiffer(t.Row(i), cand, arity)));
      }
      ++sat_checks;
      left = budget;
      INCDB_ASSIGN_OR_RETURN(const bool escapes,
                             solver_.Satisfiable(arena_.AndOf(&ops), &left));
      if (escapes) continue;
    }
    out.cells.insert(out.cells.end(), cand, cand + arity);
    ++out.size;
  }
  scope.CountProbes(sat_checks);
  scope.CountOut(out.size);
  return out;
}

Result<SortedCodeRows> CTableQuery::Possible(const CodeCTable& t,
                                             uint64_t budget,
                                             EvalStats* stats) {
  OpScope scope(stats, EvalOp::kCTableExtract);
  scope.CountIn(t.rows());
  const std::vector<uint32_t>& domain = enc_.domain_codes();
  const size_t arity = t.arity;
  CodeRows possible(arity);
  std::vector<uint32_t> binding(enc_.nulls().size(), 0), ground(arity);
  std::vector<uint32_t> tuple_nulls;
  uint64_t sat_checks = 0;
  for (size_t i = 0; i < t.rows(); ++i) {
    const uint32_t* row = t.Row(i);
    // The row's own nulls, in order of appearance.
    tuple_nulls.clear();
    for (size_t c = 0; c < arity; ++c) {
      if (!(row[c] & kNullSlot)) continue;
      const uint32_t slot = row[c] & ~kNullSlot;
      if (std::find(tuple_nulls.begin(), tuple_nulls.end(), slot) ==
          tuple_nulls.end()) {
        tuple_nulls.push_back(slot);
      }
    }
    // A null-free row can only add itself; once it is known possible, its
    // check cannot change the answer.
    if (tuple_nulls.empty() && possible.Contains(row)) continue;
    const uint32_t base = arena_.And(t.global, t.conds[i]);
    if (base == kFalse) continue;
    if (!tuple_nulls.empty() && domain.empty()) continue;  // no worlds

    // One check per grounding of the row's nulls whose condition is not
    // already false: the grounding extends to a world iff the remaining
    // nulls can satisfy it.
    auto dfs = [&](auto& self, size_t depth, uint32_t cond) -> Status {
      if (cond == kFalse) return Status::OK();
      if (depth == tuple_nulls.size()) {
        ++sat_checks;
        uint64_t left = budget;
        INCDB_ASSIGN_OR_RETURN(const bool sat,
                               solver_.Satisfiable(cond, &left));
        if (sat) {
          for (size_t c = 0; c < arity; ++c) {
            ground[c] =
                (row[c] & kNullSlot) ? binding[row[c] & ~kNullSlot] : row[c];
          }
          bool inserted;
          possible.Insert(ground.data(), &inserted);
        }
        return Status::OK();
      }
      const uint32_t slot = tuple_nulls[depth];
      for (uint32_t code : domain) {
        binding[slot] = code;
        INCDB_RETURN_IF_ERROR(
            self(self, depth + 1, arena_.Substitute(cond, slot, code)));
      }
      return Status::OK();
    };
    INCDB_RETURN_IF_ERROR(dfs(dfs, 0, base));
  }
  scope.CountProbes(sat_checks);
  scope.CountOut(possible.size());
  return SortedRows(possible);
}

CodeCTable CTableQuery::Import(const CTable& t) {
  CodeCTable out(t.arity());
  std::vector<uint32_t> row(t.arity());
  for (const CTableRow& r : t.rows()) {
    for (size_t c = 0; c < t.arity(); ++c) row[c] = enc_.EncodeBase(r.tuple[c]);
    out.Add(row.data(), ImportCondition(r.condition, enc_, &arena_));
  }
  out.global = ImportCondition(t.global_condition(), enc_, &arena_);
  return out;
}

CTable CTableQuery::Export(const CodeCTable& t) const {
  const auto term = [this](uint32_t x) { return TermValue(x); };
  CTable out(t.arity);
  for (size_t i = 0; i < t.rows(); ++i) {
    out.AddRow(DecodeRow(t.Row(i), t.arity),
               ExportCondition(arena_, t.conds[i], term));
  }
  out.SetGlobalCondition(ExportCondition(arena_, t.global, term));
  return out;
}

}  // namespace incdb
