// The Imieliński–Lipski algebra on stored c-tables (CTableQuery through
// EvalOnCTables), including the paper's Section 2 example: the c-table
// answer to R − S for R = {1, 2}, S = {⊥}.

#include <gtest/gtest.h>

#include <memory>

#include "algebra/eval.h"
#include "ctables/code_ctable.h"
#include "ctables/ctable_algebra.h"

namespace incdb {
namespace {

CDatabase PaperDiffDb() {
  CDatabase db;
  CTable* r = db.MutableTable("R", 1);
  r->AddRow(Tuple{Value::Int(1)}, Condition::True());
  r->AddRow(Tuple{Value::Int(2)}, Condition::True());
  CTable* s = db.MutableTable("S", 1);
  s->AddRow(Tuple{Value::Null(0)}, Condition::True());
  return db;
}

TEST(CTableAlgebraTest, PaperDifferenceExample) {
  CDatabase db = PaperDiffDb();
  auto q = RAExpr::Diff(RAExpr::Scan("R"), RAExpr::Scan("S"));
  auto ct = EvalOnCTables(q, db);
  ASSERT_TRUE(ct.ok()) << ct.status().ToString();

  // Expected worlds: {1,2} (⊥ ∉ {1,2}), {2} (⊥ = 1), {1} (⊥ = 2).
  std::set<std::string> worlds;
  std::vector<Value> domain = {Value::Int(1), Value::Int(2), Value::Int(3)};
  CDatabase ans;
  *ans.MutableTable("Ans", 1) = *ct;
  Status st = ans.ForEachWorld(domain, [&](const Database& w) {
    worlds.insert(w.GetRelation("Ans").ToString());
    return true;
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(worlds,
            (std::set<std::string>{"{(1), (2)}", "{(2)}", "{(1)}"}));
}

// Strong representation property ⟦Q(T)⟧ = Q(⟦T⟧) checked by enumeration.
void CheckStrongRepresentation(const RAExprPtr& q, const CDatabase& db,
                               const std::vector<Value>& domain) {
  auto ct = EvalOnCTables(q, db);
  ASSERT_TRUE(ct.ok()) << ct.status().ToString();

  // Left side: worlds of the answer c-table, enumerated over the *input's*
  // nulls (conditions may mention them) — collect answer relations.
  std::set<std::vector<Tuple>> lhs;
  {
    CDatabase ans = db;  // carry input tables so shared nulls stay linked
    *ans.MutableTable("__ans", ct->arity()) = *ct;
    Status st = ans.ForEachWorld(domain, [&](const Database& w) {
      lhs.insert(w.GetRelation("__ans").tuples());
      return true;
    });
    ASSERT_TRUE(st.ok());
  }
  // Right side: evaluate Q in each world of the input.
  std::set<std::vector<Tuple>> rhs;
  {
    Status st = db.ForEachWorld(domain, [&](const Database& w) {
      auto r = EvalNaive(q, w);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      rhs.insert(r->tuples());
      return true;
    });
    ASSERT_TRUE(st.ok());
  }
  EXPECT_EQ(lhs, rhs) << "strong representation violated for "
                      << q->ToString();
}

TEST(CTableAlgebraTest, StrongRepresentationForDifference) {
  CheckStrongRepresentation(
      RAExpr::Diff(RAExpr::Scan("R"), RAExpr::Scan("S")), PaperDiffDb(),
      {Value::Int(1), Value::Int(2), Value::Int(3)});
}

TEST(CTableAlgebraTest, StrongRepresentationForSelectProjectJoin) {
  CDatabase db;
  CTable* r = db.MutableTable("R", 2);
  r->AddRow(Tuple{Value::Int(1), Value::Null(0)}, Condition::True());
  r->AddRow(Tuple{Value::Null(1), Value::Int(2)}, Condition::True());
  CTable* s = db.MutableTable("S", 1);
  s->AddRow(Tuple{Value::Null(0)}, Condition::True());

  // π_0(σ_{#1 = #2}(R × S))
  auto q = RAExpr::Project(
      {0}, RAExpr::Select(Predicate::Eq(Term::Column(1), Term::Column(2)),
                          RAExpr::Product(RAExpr::Scan("R"),
                                          RAExpr::Scan("S"))));
  CheckStrongRepresentation(q, db,
                            {Value::Int(1), Value::Int(2), Value::Int(3)});
}

TEST(CTableAlgebraTest, StrongRepresentationForUnionIntersect) {
  CDatabase db;
  CTable* r = db.MutableTable("R", 1);
  r->AddRow(Tuple{Value::Null(0)}, Condition::True());
  r->AddRow(Tuple{Value::Int(1)}, Condition::True());
  CTable* s = db.MutableTable("S", 1);
  s->AddRow(Tuple{Value::Null(1)}, Condition::True());

  CheckStrongRepresentation(
      RAExpr::Union(RAExpr::Scan("R"), RAExpr::Scan("S")), db,
      {Value::Int(1), Value::Int(2)});
  CheckStrongRepresentation(
      RAExpr::Intersect(RAExpr::Scan("R"), RAExpr::Scan("S")), db,
      {Value::Int(1), Value::Int(2)});
}

TEST(CTableAlgebraTest, StrongRepresentationForDivision) {
  CDatabase db;
  CTable* r = db.MutableTable("Assign", 2);
  r->AddRow(Tuple{Value::Int(10), Value::Int(1)}, Condition::True());
  r->AddRow(Tuple{Value::Int(10), Value::Null(0)}, Condition::True());
  CTable* s = db.MutableTable("Proj", 1);
  s->AddRow(Tuple{Value::Int(1)}, Condition::True());
  s->AddRow(Tuple{Value::Int(2)}, Condition::True());

  CheckStrongRepresentation(
      RAExpr::Divide(RAExpr::Scan("Assign"), RAExpr::Scan("Proj")), db,
      {Value::Int(1), Value::Int(2), Value::Int(3)});
}

// A code query over the stored table R = `r` (and S = `s`, when given).
std::unique_ptr<CTableQuery> QueryOver(const CTable& r,
                                      const CTable& s = CTable(0)) {
  CDatabase db;
  *db.MutableTable("R", r.arity()) = r;
  *db.MutableTable("S", s.arity()) = s;
  Result<std::unique_ptr<CTableQuery>> q =
      CTableQuery::Make(RAExpr::Scan("R"), db);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

TEST(CTableAlgebraTest, SelectionBuildsConditions) {
  CTable r(1);
  r.AddRow(Tuple{Value::Null(0)}, Condition::True());
  const std::unique_ptr<CTableQuery> q = QueryOver(r);
  auto sel = q->Select(
      Predicate::Eq(Term::Column(0), Term::Const(Value::Int(5))),
      q->Import(r));
  ASSERT_TRUE(sel.ok());
  const CTable out = q->Export(*sel);
  ASSERT_EQ(out.rows().size(), 1u);
  EXPECT_EQ(out.rows()[0].condition->ToString(), "_0 = 5");
}

TEST(CTableAlgebraTest, OrderPredicatesOnNullsUnsupported) {
  CTable r(1);
  r.AddRow(Tuple{Value::Null(0)}, Condition::True());
  const std::unique_ptr<CTableQuery> q = QueryOver(r);
  auto sel = q->Select(
      Predicate::Cmp(CmpOp::kLt, Term::Column(0), Term::Const(Value::Int(5))),
      q->Import(r));
  EXPECT_EQ(sel.status().code(), StatusCode::kUnsupported);
  // ...but order comparisons on constants fold fine.
  CTable c(1);
  c.AddRow(Tuple{Value::Int(3)}, Condition::True());
  const std::unique_ptr<CTableQuery> qc = QueryOver(c);
  auto ok = qc->Select(
      Predicate::Cmp(CmpOp::kLt, Term::Column(0), Term::Const(Value::Int(5))),
      qc->Import(c));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(qc->Export(*ok).rows().size(), 1u);
}

TEST(CTableAlgebraTest, RowsEqualComponentwise) {
  // The compared rows: R's (1, _0) against (1, 5), and S's (1) against (2).
  CTable r(2);
  r.AddRow(Tuple{Value::Int(1), Value::Null(0)}, Condition::True());
  r.AddRow(Tuple{Value::Int(1), Value::Int(5)}, Condition::True());
  CTable s(1);
  s.AddRow(Tuple{Value::Int(1)}, Condition::True());
  s.AddRow(Tuple{Value::Int(2)}, Condition::True());
  const std::unique_ptr<CTableQuery> q = QueryOver(r, s);
  const CodeCTable rows = q->Import(r);
  const CodeCTable ones = q->Import(s);
  const auto term = [&](uint32_t x) { return q->TermValue(x); };
  const uint32_t c = q->RowsEqual(rows.Row(0), rows.Row(1), 2);
  // First component folds to true; remains ⊥0 = 5.
  EXPECT_EQ(ExportCondition(q->arena(), c, term)->ToString(), "_0 = 5");
  const uint32_t f = q->RowsEqual(ones.Row(0), ones.Row(1), 1);
  EXPECT_TRUE(ExportCondition(q->arena(), f, term)->IsFalse());
}

// A literal's null is a value on codes; exported, it would read as a
// c-table variable, so a stored c-table query refuses it.
TEST(CTableAlgebraTest, LiteralNullRefused) {
  Relation lit(1);
  lit.Add(Tuple{Value::Null(0)});
  auto ct = EvalOnCTables(
      RAExpr::Intersect(RAExpr::Scan("S"), RAExpr::ConstRel(lit)),
      PaperDiffDb());
  EXPECT_EQ(ct.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace incdb
