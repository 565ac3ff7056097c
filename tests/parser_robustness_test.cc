// Robustness sweeps for the text front ends (SQL, rule text, RA,
// conditions): mutated and truncated inputs must produce clean parse errors
// or valid ASTs — never crashes, hangs, or CHECK failures. Edge cases pin
// the one error form every text surface shares (util/scanner.h).

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "algebra/eval.h"
#include "algebra/parser.h"
#include "core/io.h"
#include "ctables/cio.h"
#include "logic/rule_parser.h"
#include "service/service.h"
#include "sql/parser.h"
#include "util/random.h"

namespace incdb {
namespace {

const char* kSqlSeeds[] = {
    "SELECT a, t.b FROM t WHERE a = 1 AND b <> 'x'",
    "SELECT o_id FROM Ord WHERE o_id NOT IN (SELECT order_id FROM Pay)",
    "SELECT dept, COUNT(*), SUM(salary) FROM Emp GROUP BY dept",
    "SELECT a FROM t WHERE EXISTS (SELECT b FROM s) UNION SELECT c FROM u",
    "SELECT * FROM t WHERE a IS NOT NULL OR b <= -5",
    // int64's extremes: one mutated digit takes them out of range.
    "SELECT a FROM t WHERE a = 9223372036854775807 OR b > "
    "-9223372036854775808",
    "SELECT a FROM t WHERE b = 'it''s' OR c <> '''' OR d = 'x, y'",
};

const char* kRuleSeeds[] = {
    "ans(x, p) :- Order(x, p), Pay(y, x, z)",
    ":- R(x, y), R(y, 'abc'), S(-42)",
    "Order(i, p) -> Cust(x), Pref(x, p)",
    "ans(x) :- R(x, 9223372036854775807), S(-9223372036854775808)",
    "ans(x) :- R(x, 'it''s'), S(x, 'a;b') ; ans(y) :- T(y, '')",
};

const char* kRaSeeds[] = {
    "proj{0}(sel[#0 = 5 AND #1 IS NULL](R x S)) U (T - T)",
    "(Assign / Proj) & proj{0, 1}(DELTA)",
    "sel[#0 = 9223372036854775807](R) U sel[#1 = -9223372036854775808](R)",
    "sel[#0 = 'it''s' OR #1 <> ''''](R) U {(1, 'a b'), (_0, 'x''y')}",
};

const char* kCondSeeds[] = {
    "((_0 = 1 & _1 = 'a b') | ~(_2 = _0))",
    "(true & (_0 = -3 | false))",
    "~((_0 = _1 & _1 = 'it''s') | _2 = 0)",
    "(_0 = 9223372036854775807 | _1 = -9223372036854775808)",
};

std::string Mutate(const std::string& seed, Rng* rng) {
  std::string s = seed;
  const int kind = static_cast<int>(rng->Uniform(4));
  if (s.empty()) return s;
  const size_t pos = rng->Uniform(s.size());
  switch (kind) {
    case 0:  // truncate
      return s.substr(0, pos);
    case 1:  // delete a char
      s.erase(pos, 1);
      return s;
    case 2: {  // replace with random printable
      s[pos] = static_cast<char>(32 + rng->Uniform(95));
      return s;
    }
    default: {  // duplicate a chunk
      const size_t len = std::min<size_t>(5, s.size() - pos);
      s.insert(pos, s.substr(pos, len));
      return s;
    }
  }
}

class ParserRobustness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserRobustness, SqlParserNeverCrashes) {
  Rng rng(GetParam());
  for (const char* seed : kSqlSeeds) {
    std::string input = seed;
    for (int round = 0; round < 20; ++round) {
      input = Mutate(input, &rng);
      auto r = ParseSql(input);
      if (r.ok()) {
        // Whatever parsed must unparse and re-parse.
        auto again = ParseSql(r->ToString());
        EXPECT_TRUE(again.ok())
            << "unparse broke: " << input << " -> " << r->ToString();
      }
    }
  }
}

TEST_P(ParserRobustness, RuleParserNeverCrashes) {
  Rng rng(GetParam() + 100);
  for (const char* seed : kRuleSeeds) {
    std::string input = seed;
    for (int round = 0; round < 20; ++round) {
      input = Mutate(input, &rng);
      (void)ParseCQ(input);
      (void)ParseUCQ(input);
      (void)ParseTgd(input);
      (void)ParseMapping(input);
    }
  }
}

TEST_P(ParserRobustness, RaParserNeverCrashes) {
  Rng rng(GetParam() + 200);
  for (const char* seed : kRaSeeds) {
    std::string input = seed;
    for (int round = 0; round < 20; ++round) {
      input = Mutate(input, &rng);
      auto r = ParseRA(input);
      if (r.ok()) {
        auto again = ParseRA((*r)->ToString());
        EXPECT_TRUE(again.ok())
            << "unparse broke: " << input << " -> " << (*r)->ToString();
      }
    }
  }
}

TEST_P(ParserRobustness, ConditionParserNeverCrashes) {
  Rng rng(GetParam() + 300);
  for (const char* seed : kCondSeeds) {
    std::string input = seed;
    for (int round = 0; round < 20; ++round) {
      input = Mutate(input, &rng);
      auto r = ParseCondition(input);
      if (r.ok()) {
        auto again = ParseCondition((*r)->ToString());
        EXPECT_TRUE(again.ok())
            << "unparse broke: " << input << " -> " << (*r)->ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParserRobustness,
                         ::testing::Range<uint64_t>(0, 25));

TEST(ParserRobustnessEdge, ConditionErrorsPointAtTheOffendingToken) {
  // "(a = b & c = d" — the missing ')' is discovered at end of input.
  auto unclosed = ParseCondition("(_0 = 1 & _1 = 2");
  ASSERT_FALSE(unclosed.ok());
  EXPECT_NE(unclosed.status().message().find("line 1"), std::string::npos)
      << unclosed.status().ToString();
  EXPECT_NE(unclosed.status().message().find("column 17"), std::string::npos)
      << unclosed.status().ToString();
  EXPECT_NE(unclosed.status().message().find("end of condition"),
            std::string::npos)
      << unclosed.status().ToString();

  // A bad value names itself and its column.
  auto bad_value = ParseCondition("(_0 = 1 & bogus! = 2)");
  ASSERT_FALSE(bad_value.ok());
  EXPECT_NE(bad_value.status().message().find("column 11"), std::string::npos)
      << bad_value.status().ToString();
  EXPECT_NE(bad_value.status().message().find("'bogus!'"), std::string::npos)
      << bad_value.status().ToString();

  // Trailing garbage is located, not just mentioned.
  auto trailing = ParseCondition("true extra");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.status().message().find("column 6"), std::string::npos)
      << trailing.status().ToString();
  EXPECT_NE(trailing.status().message().find("'extra'"), std::string::npos)
      << trailing.status().ToString();

  // In a c-table dump the column is reported in whole-line coordinates:
  // the bad token sits after "1, 2 :: " on line 3.
  const char* dump =
      "ctable R(a, b)\n"
      "1, _0\n"
      "1, 2 :: (_0 = ??)\n";
  auto loaded = LoadCDatabase(dump);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("'??'"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("column 15"), std::string::npos)
      << loaded.status().ToString();
}

TEST(ParserRobustnessEdge, IntegersOutsideTheirTypeAreParseErrors) {
  auto expect_parse_error = [](const Status& st, const std::string& where) {
    EXPECT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
    EXPECT_NE(st.message().find(where), std::string::npos) << st.ToString();
  };
  // One past INT64_MAX is an error naming the literal's line and column.
  auto sql = ParseSql("SELECT a FROM t WHERE a = 9223372036854775808");
  ASSERT_FALSE(sql.ok());
  expect_parse_error(sql.status(), "line 1, column 27");
  auto ra = ParseRA("sel[#0 = 9223372036854775808](R)");
  ASSERT_FALSE(ra.ok());
  expect_parse_error(ra.status(), "line 1, column 10");
  auto rule = ParseCQ("ans(x) :- R(x, 9223372036854775808)");
  ASSERT_FALSE(rule.ok());
  expect_parse_error(rule.status(), "line 1, column 16");
  auto cond = ParseCondition("(_0 = 9223372036854775808)");
  ASSERT_FALSE(cond.ok());
  expect_parse_error(cond.status(), "column 7");

  // INT64_MIN and INT64_MAX themselves parse, and keep their values.
  auto extremes = ParseSql(
      "SELECT a FROM t WHERE a = 9223372036854775807 OR a = "
      "-9223372036854775808");
  ASSERT_TRUE(extremes.ok()) << extremes.status().ToString();
  EXPECT_NE(extremes->ToString().find("9223372036854775807"),
            std::string::npos);
  EXPECT_NE(extremes->ToString().find("-9223372036854775808"),
            std::string::npos);
  auto ra_extremes = ParseRA(
      "sel[#0 = 9223372036854775807 AND #1 = -9223372036854775808](R)");
  ASSERT_TRUE(ra_extremes.ok()) << ra_extremes.status().ToString();
  EXPECT_NE((*ra_extremes)->ToString().find("-9223372036854775808"),
            std::string::npos);

  // A null id past NullId's maximum is an error, not a wrapped _0: in an
  // RA relation literal, and in a dump, where so is an integer past int64.
  auto ra_null = ParseRA("{(_4294967296)}");
  ASSERT_FALSE(ra_null.ok());
  expect_parse_error(ra_null.status(), "null id out of range");
  ASSERT_TRUE(ParseRA("{(_4294967295)}").ok());
  for (const char* bad : {"_4294967296", "9223372036854775808"}) {
    const std::string row = bad;
    auto dump = LoadDatabase("table R(a)\n" + row + "\n");
    ASSERT_FALSE(dump.ok()) << bad;
    expect_parse_error(dump.status(), "line 2");
    auto cdump = LoadCDatabase("ctable R(a)\n" + row + "\n");
    ASSERT_FALSE(cdump.ok()) << bad;
    expect_parse_error(cdump.status(), "line 2");
  }
  auto max_null = LoadDatabase("table R(a)\n_4294967295\n");
  ASSERT_TRUE(max_null.ok()) << max_null.status().ToString();
  EXPECT_TRUE(max_null->GetRelation("R").Contains(
      Tuple{Value::Null(4294967295u)}));
}

TEST(ParserRobustnessEdge, IngestRowsUseTheDumpValueSyntax) {
  auto wrapped = ParseIngestRow("R 2 _4294967296");
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), StatusCode::kParseError);
  EXPECT_NE(wrapped.status().message().find(
                "line 1, column 5 (at '_4294967296')"),
            std::string::npos)
      << wrapped.status().ToString();
  EXPECT_FALSE(ParseIngestRow("R 99999999999999999999 _7").ok());
  // Bare words are not values, as in dumps.
  EXPECT_FALSE(ParseIngestRow("R abc").ok());

  auto quote = ParseIngestRow("R 'it''s' _8");
  ASSERT_TRUE(quote.ok()) << quote.status().ToString();
  EXPECT_EQ(quote->relation, "R");
  EXPECT_EQ(quote->tuple, (Tuple{Value::Str("it's"), Value::Null(8)}));
  auto space = ParseIngestRow("R 'a b' 5");
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  EXPECT_EQ(space->tuple, (Tuple{Value::Str("a b"), Value::Int(5)}));
}

// One malformed input per text surface: each error names its line, its
// column and its token (or the end of the input), and a multi-line input
// reports the line the error sits on.
TEST(ParserRobustnessEdge, EverySurfaceNamesLineColumnAndToken) {
  struct Case {
    const char* surface;
    std::string input;
    std::function<Status(const std::string&)> parse;
    std::string where;
  };
  const Case cases[] = {
      {"RA", "proj{0}(R\n  x S))",
       [](const std::string& t) { return ParseRA(t).status(); },
       "on line 2, column 7 (at ')')"},
      {"SQL", "SELECT a\nFROM t\nWHERE a = 'x' AND @",
       [](const std::string& t) { return ParseSql(t).status(); },
       "on line 3, column 19 (at '@')"},
      {"CQ", "ans(x) :-\n  R(x, 'it''s') S(x)",
       [](const std::string& t) { return ParseCQ(t).status(); },
       "on line 2, column 17 (at 'S')"},
      {"UCQ", "ans(x) :- R(x) ;\nans(y) :- S(y, 'a;b') ;\nans(z) :- T(z",
       [](const std::string& t) { return ParseUCQ(t).status(); },
       "on line 3, column 14 (at end of rule)"},
      {"tgd", "R(x, y)\n  -> S(x) T",
       [](const std::string& t) { return ParseTgd(t).status(); },
       "on line 2, column 11 (at 'T')"},
      {"mapping", "R(x) -> S(x)\nR(x) -> S(x",
       [](const std::string& t) { return ParseMapping(t).status(); },
       "on line 2, column 12 (at end of rule)"},
      {"dump", "table R(a, b)\n1, 'x'\n2, bogus\n",
       [](const std::string& t) { return LoadDatabase(t).status(); },
       "on line 3, column 4 (at 'bogus')"},
      {"c-table dump", "ctable R(a)\n1 :: (_0 = 1 & !!)\n",
       [](const std::string& t) { return LoadCDatabase(t).status(); },
       "on line 2, column 16 (at '!!')"},
      {"condition", "(_0 = 'a b' |\n ~(_1 = 2)",
       [](const std::string& t) { return ParseCondition(t).status(); },
       "on line 2, column 11 (at end of condition)"},
      {"ingest row", "R 1 'unterminated",
       [](const std::string& t) { return ParseIngestRow(t).status(); },
       "on line 1, column 5 (at ''unterminated')"},
  };
  for (const Case& c : cases) {
    const Status st = c.parse(c.input);
    EXPECT_EQ(st.code(), StatusCode::kParseError) << c.surface;
    EXPECT_NE(st.message().find(c.where), std::string::npos)
        << c.surface << ": " << st.ToString();
  }
}

TEST(ParserRobustnessEdge, ParsedDivisionWithBadArityEvaluatesToError) {
  // User-supplied RA text can request any division; arity violations must
  // come back as InvalidArgument from evaluation, never abort the process.
  Database db;
  db.MutableRelation("R", 2)->Add(Tuple{Value::Int(1), Value::Int(2)});
  db.MutableRelation("S", 3)->Add(
      Tuple{Value::Int(1), Value::Int(2), Value::Int(3)});
  for (const char* text : {"R / S",    // divisor wider than dividend
                           "R / R"}) {  // equal arity: empty quotient schema
    auto parsed = ParseRA(text);
    ASSERT_TRUE(parsed.ok()) << text;
    auto evaled = EvalNaive(*parsed, db);
    EXPECT_FALSE(evaled.ok()) << text;
    EXPECT_EQ(evaled.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(ParserRobustnessEdge, DegenerateInputs) {
  for (const std::string& s :
       {std::string(""), std::string("("), std::string(")))"),
        std::string(" "), std::string("''"), std::string("'"),
        std::string(1000, '('), std::string(100, '\''),
        std::string("SELECT"), std::string(":-"), std::string("->")}) {
    (void)ParseSql(s);
    (void)ParseCQ(s);
    (void)ParseTgd(s);
    (void)ParseRA(s);
  }
  SUCCEED();
}

}  // namespace
}  // namespace incdb
