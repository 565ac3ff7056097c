#include "logic/rule_parser.h"

#include <gtest/gtest.h>

#include "logic/containment.h"

namespace incdb {
namespace {

TEST(RuleParserTest, BooleanCQ) {
  auto q = ParseCQ(":- R(x, y), S(y)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->IsBoolean());
  ASSERT_EQ(q->body.size(), 2u);
  EXPECT_EQ(q->body[0].relation, "R");
  // Shared variable y links the atoms.
  EXPECT_EQ(q->body[0].terms[1].var, q->body[1].terms[0].var);
}

TEST(RuleParserTest, HeadedCQ) {
  auto q = ParseCQ("ans(x, p) :- Order(x, p), Pay(y, x, z)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->head.size(), 2u);
  EXPECT_EQ(q->body.size(), 2u);
  EXPECT_TRUE(q->head[0].is_var());
}

TEST(RuleParserTest, Constants) {
  auto q = ParseCQ(":- Pay(p, 'oid1', 100)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->body[0].terms[1].constant, Value::Str("oid1"));
  EXPECT_EQ(q->body[0].terms[2].constant, Value::Int(100));
  auto neg = ParseCQ(":- R(-5)");
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(neg->body[0].terms[0].constant, Value::Int(-5));
}

TEST(RuleParserTest, StringWithSpaces) {
  auto q = ParseCQ(":- R('hello world')");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->body[0].terms[0].constant, Value::Str("hello world"));
}

TEST(RuleParserTest, ParsedCQEvaluates) {
  auto q = ParseCQ("ans(p) :- Order(o, p)");
  ASSERT_TRUE(q.ok());
  Database db;
  db.AddTuple("Order", Tuple{Value::Str("oid1"), Value::Str("pr1")});
  auto r = EvalCQ(*q, db);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Contains(Tuple{Value::Str("pr1")}));
}

TEST(RuleParserTest, UCQ) {
  auto u = ParseUCQ("ans(x) :- R(x) ; ans(y) :- S(y)");
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_EQ(u->disjuncts.size(), 2u);
  EXPECT_EQ(*u->HeadArity(), 1u);
  // Mismatched arities rejected.
  EXPECT_FALSE(ParseUCQ("ans(x) :- R(x) ; ans(x, y) :- S(x, y)").ok());
  EXPECT_FALSE(ParseUCQ("  ;  ").ok());
}

TEST(RuleParserTest, Tgd) {
  auto tgd = ParseTgd("Order(i, p) -> Cust(x), Pref(x, p)");
  ASSERT_TRUE(tgd.ok()) << tgd.status().ToString();
  EXPECT_EQ(tgd->body.size(), 1u);
  EXPECT_EQ(tgd->head.size(), 2u);
  EXPECT_EQ(tgd->ExistentialVars().size(), 1u);
}

TEST(RuleParserTest, Mapping) {
  auto m = ParseMapping(
      "Order(i, p) -> Cust(x), Pref(x, p)\n"
      "\n"
      "Pay(q, i, a) -> Paid(i)\n");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->tgds.size(), 2u);
}

TEST(RuleParserTest, Errors) {
  EXPECT_FALSE(ParseCQ("R(x, y)").ok());          // missing :-
  EXPECT_FALSE(ParseCQ(":- R(x").ok());           // unclosed paren
  EXPECT_FALSE(ParseCQ(":- R(x) extra").ok());    // trailing junk
  EXPECT_FALSE(ParseTgd("R(x) => S(x)").ok());    // wrong arrow
  EXPECT_FALSE(ParseTgd("-> S(x)").ok());         // empty body
}

TEST(RuleParserTest, StringConstantsHoldSeparatorsAndQuotes) {
  // A ';' inside quotes does not split the UCQ.
  auto u = ParseUCQ("q(x) :- R(x, 'a;b')");
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  ASSERT_EQ(u->disjuncts.size(), 1u);
  EXPECT_EQ(u->disjuncts[0].body[0].terms[1].constant, Value::Str("a;b"));
  // '' is one quote, as in every other text surface.
  auto q = ParseCQ("q(x) :- R(x, 'it''s')");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->body[0].terms[1].constant, Value::Str("it's"));
}

TEST(RuleParserTest, ErrorsNameALineAndAColumn) {
  auto q = ParseCQ("q(x) R(x)");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("expected ':-' on line 1, column 6"),
            std::string::npos)
      << q.status().ToString();
  // Positions in a UCQ refer to the whole input, not to one disjunct.
  auto u = ParseUCQ("q(x) :- R(x);\nq(y) :- S(y) junk");
  ASSERT_FALSE(u.ok());
  EXPECT_NE(u.status().message().find("line 2, column 14 (at 'junk')"),
            std::string::npos)
      << u.status().ToString();
}

TEST(RuleParserTest, ParsedQueriesWorkWithContainment) {
  auto chain3 = ParseCQ(":- R(a, b), R(b, c), R(c, d)");
  auto chain2 = ParseCQ(":- R(x, y), R(y, z)");
  ASSERT_TRUE(chain3.ok());
  ASSERT_TRUE(chain2.ok());
  EXPECT_TRUE(*CQContained(*chain3, *chain2));
  EXPECT_FALSE(*CQContained(*chain2, *chain3));
}

TEST(RuleParserTest, VariablesScopedPerRule) {
  // The same textual variable in two UCQ disjuncts is independent.
  auto u = ParseUCQ(":- R(x, x) ; :- S(x)");
  ASSERT_TRUE(u.ok());
  // First disjunct forces a self-loop; second any S tuple.
  Database loop;
  loop.AddTuple("S", Tuple{Value::Int(1)});
  auto r = EvalUCQ(*u, loop);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->empty());
}

}  // namespace
}  // namespace incdb
