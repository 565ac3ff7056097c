#include "testing/fuzz_gen.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "util/status.h"

namespace incdb {
namespace {

// Keeps generated tuples narrow enough that world enumeration stays cheap.
constexpr size_t kMaxArity = 5;

struct Gen {
  Rng& rng;
  const PlanGenConfig& config;
  std::vector<std::pair<std::string, size_t>> scans;  // name, arity
  std::vector<NullId> nulls;  // the instance's, ascending

  // A plan plus its output arity, tracked during generation so the result
  // always type-checks.
  struct Typed {
    RAExprPtr expr;
    size_t arity;
  };

  bool full() const { return config.fragment == QueryClass::kFullRA; }
  bool cwa() const { return config.fragment != QueryClass::kPositive; }

  Value RandomConst() {
    return Value::Int(rng.UniformInt(0, config.domain_size - 1));
  }

  // A literal's cell: now and then a null, one of the instance's or a fresh
  // one. In every world it stays that null, a value like a constant.
  Value LiteralValue() {
    if (!rng.Bernoulli(0.15)) return RandomConst();
    if (!nulls.empty() && rng.Bernoulli(0.5)) {
      return Value::Null(nulls[rng.Uniform(nulls.size())]);
    }
    return Value::Null(nulls.empty() ? 0 : nulls.back() + 1);
  }

  // A selection constant: mostly one the instance may hold, now and then
  // one no dictionary holds — below every integer, just past the
  // instance's, or a string below, between or above its strings ("s0",
  // "s1", ...).
  Value SelectionConst() {
    if (!rng.Bernoulli(0.15)) return RandomConst();
    static const char* const kStrings[] = {"a", "s0a", "zz"};
    switch (rng.Uniform(4)) {
      case 0:
        return Value::Int(-1);
      case 1:
        return Value::Int(config.domain_size);
      default:
        return Value::Str(kStrings[rng.Uniform(3)]);
    }
  }

  Term RandomTerm(size_t arity) {
    if (rng.Bernoulli(0.6)) {
      return Term::Column(static_cast<size_t>(rng.Uniform(arity)));
    }
    return Term::Const(SelectionConst());
  }

  // A selection predicate over `arity` columns. Positive fragments get
  // equalities under AND/OR; full RA adds the negated/ordered comparisons,
  // NOT, and IS NULL.
  PredicatePtr RandomPredicate(size_t arity, size_t depth) {
    if (depth > 0 && rng.Bernoulli(0.4)) {
      PredicatePtr l = RandomPredicate(arity, depth - 1);
      PredicatePtr r = RandomPredicate(arity, depth - 1);
      if (full() && rng.Bernoulli(0.2)) return Predicate::Not(std::move(l));
      return rng.Bernoulli(0.5) ? Predicate::And(std::move(l), std::move(r))
                                : Predicate::Or(std::move(l), std::move(r));
    }
    if (full() && rng.Bernoulli(0.15)) {
      return Predicate::IsNull(Term::Column(rng.Uniform(arity)));
    }
    CmpOp op = CmpOp::kEq;
    if (full() && rng.Bernoulli(0.4)) {
      static constexpr CmpOp kOps[] = {CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                                       CmpOp::kGt, CmpOp::kGe};
      op = kOps[rng.Uniform(5)];
    }
    return Predicate::Cmp(op, RandomTerm(arity), RandomTerm(arity));
  }

  std::vector<size_t> RandomColumns(size_t arity) {
    const size_t n = 1 + rng.Uniform(arity);
    std::vector<size_t> cols;
    cols.reserve(n);
    if (rng.Bernoulli(0.15)) {
      // Occasionally repeat columns: π{0,0} is legal and worth covering.
      for (size_t i = 0; i < n; ++i) cols.push_back(rng.Uniform(arity));
      return cols;
    }
    std::vector<size_t> all(arity);
    for (size_t i = 0; i < arity; ++i) all[i] = i;
    rng.Shuffle(&all);
    cols.assign(all.begin(), all.begin() + static_cast<long>(n));
    return cols;
  }

  Typed Leaf() {
    // Δ and small literals appear with low probability; scans dominate.
    if (rng.Bernoulli(0.1)) return Typed{RAExpr::Delta(), 2};
    if (rng.Bernoulli(0.08)) {
      // Non-empty literals only: an empty relation of arity > 0 has no
      // parseable rendering (see algebra/parser.h), and the corpus format
      // round-trips plans through RA text.
      const size_t arity = 1 + rng.Uniform(2);
      Relation lit(arity);
      const size_t rows = 1 + rng.Uniform(2);
      for (size_t i = 0; i < rows; ++i) {
        std::vector<Value> vals;
        for (size_t c = 0; c < arity; ++c) vals.push_back(LiteralValue());
        lit.Add(Tuple(std::move(vals)));
      }
      return Typed{RAExpr::ConstRel(std::move(lit)), arity};
    }
    const auto& [name, arity] = scans[rng.Uniform(scans.size())];
    return Typed{RAExpr::Scan(name), arity};
  }

  // Adjusts `t` to the exact target arity: π onto a prefix when too wide,
  // pad with scans (then π) when too narrow.
  Typed Coerce(Typed t, size_t target) {
    while (t.arity < target) {
      Typed pad = Leaf();
      t = Typed{RAExpr::Product(std::move(t.expr), std::move(pad.expr)),
                t.arity + pad.arity};
    }
    if (t.arity > target) {
      std::vector<size_t> cols(target);
      for (size_t i = 0; i < target; ++i) cols[i] = i;
      t = Typed{RAExpr::Project(std::move(cols), std::move(t.expr)), target};
    }
    return t;
  }

  // Divisor in RA(Δ, π, ×, ∪) — the admissible guards of RA_cwa.
  Typed GuardedDivisor(size_t target, size_t depth) {
    Typed t;
    if (depth == 0 || rng.Bernoulli(0.4)) {
      t = rng.Bernoulli(0.2)
              ? Typed{RAExpr::Delta(), 2}
              : [&] {
                  const auto& [name, arity] = scans[rng.Uniform(scans.size())];
                  return Typed{RAExpr::Scan(name), arity};
                }();
    } else if (rng.Bernoulli(0.5)) {
      Typed l = GuardedDivisor(target, depth - 1);
      Typed r = GuardedDivisor(target, depth - 1);
      return Typed{RAExpr::Union(std::move(l.expr), std::move(r.expr)),
                   target};
    } else {
      Typed l = GuardedDivisor(1 + rng.Uniform(2), depth - 1);
      Typed r = GuardedDivisor(1 + rng.Uniform(2), depth - 1);
      t = Typed{RAExpr::Product(std::move(l.expr), std::move(r.expr)),
                l.arity + r.arity};
    }
    // Coerce with π only (× with arbitrary leaves could leave the guard
    // fragment via ConstRel; scans are fine but π-padding keeps it simple).
    while (t.arity < target) {
      const auto& [name, arity] = scans[rng.Uniform(scans.size())];
      t = Typed{RAExpr::Product(std::move(t.expr), RAExpr::Scan(name)),
                t.arity + arity};
    }
    if (t.arity > target) {
      std::vector<size_t> cols(target);
      for (size_t i = 0; i < target; ++i) cols[i] = i;
      t = Typed{RAExpr::Project(std::move(cols), std::move(t.expr)), target};
    }
    return t;
  }

  Typed Expr(size_t depth) {
    if (depth == 0) return Leaf();
    if (rng.Bernoulli(config.unary_bias)) {
      Typed child = Expr(depth - 1);
      if (rng.Bernoulli(0.5)) {
        return Typed{RAExpr::Select(RandomPredicate(child.arity, 1),
                                    std::move(child.expr)),
                     child.arity};
      }
      std::vector<size_t> cols = RandomColumns(child.arity);
      const size_t out = cols.size();
      return Typed{RAExpr::Project(std::move(cols), std::move(child.expr)),
                   out};
    }
    enum class Op { kProduct, kUnion, kIntersect, kDiff, kDivide };
    std::vector<Op> ops = {Op::kProduct, Op::kUnion, Op::kIntersect};
    if (full()) ops.push_back(Op::kDiff);
    if (cwa()) ops.push_back(Op::kDivide);
    const Op op = ops[rng.Uniform(ops.size())];
    switch (op) {
      case Op::kProduct: {
        Typed l = Expr(depth - 1);
        Typed r = Expr(depth - 1);
        Typed out{RAExpr::Product(std::move(l.expr), std::move(r.expr)),
                  l.arity + r.arity};
        return out.arity > kMaxArity ? Coerce(std::move(out), kMaxArity)
                                     : out;
      }
      case Op::kUnion:
      case Op::kIntersect:
      case Op::kDiff: {
        Typed l = Expr(depth - 1);
        Typed r = Coerce(Expr(depth - 1), l.arity);
        RAExprPtr e =
            op == Op::kUnion
                ? RAExpr::Union(std::move(l.expr), std::move(r.expr))
                : op == Op::kIntersect
                      ? RAExpr::Intersect(std::move(l.expr), std::move(r.expr))
                      : RAExpr::Diff(std::move(l.expr), std::move(r.expr));
        return Typed{std::move(e), l.arity};
      }
      case Op::kDivide: {
        Typed dividend = Expr(depth - 1);
        if (dividend.arity < 2) dividend = Coerce(std::move(dividend), 2);
        const size_t d = 1 + rng.Uniform(dividend.arity - 1);
        Typed divisor = full() && rng.Bernoulli(0.5)
                            ? Coerce(Expr(depth - 1), d)
                            : GuardedDivisor(d, depth - 1);
        return Typed{
            RAExpr::Divide(std::move(dividend.expr), std::move(divisor.expr)),
            dividend.arity - d};
      }
    }
    return Leaf();
  }
};

}  // namespace

GeneratedPlan RandomPlan(Rng& rng, const Database& db,
                         const PlanGenConfig& config) {
  Gen gen{rng, config, {}, {}};
  for (const auto& [name, rel] : db.relations()) {
    gen.scans.emplace_back(name, rel.arity());
  }
  const std::set<NullId> nulls = db.Nulls();
  gen.nulls.assign(nulls.begin(), nulls.end());
  GeneratedPlan out;
  if (gen.scans.empty()) {
    out.plan = RAExpr::ConstRel(Relation(1));
  } else {
    out.plan = gen.Expr(config.max_depth).expr;
  }
  out.actual_class = Classify(out.plan);
  return out;
}

}  // namespace incdb
