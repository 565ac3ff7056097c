// Round-trip property tests for the text serializers:
//
//   core/io      Dump → Load → Dump is the identity string, and the loaded
//                database equals the original (shared marked nulls, Codd
//                tables, and string constants included).
//   ctables/cio  the same for c-databases, including per-row conditions and
//                global conditions.
//
// Databases are drawn from the workload generators over many seeds. One
// more case draws strings from the characters that every text surface
// treats specially — quotes, separators, brackets, operators — and checks
// that each surface reads back what Value::ToString wrote. The row writer
// (AppendRows) must write, from either body of a relation, exactly the
// bytes of "| " + t.ToString() + "\n" per tuple.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "algebra/parser.h"
#include "core/columnar.h"
#include "core/io.h"
#include "ctables/cio.h"
#include "logic/rule_parser.h"
#include "sql/parser.h"
#include "util/random.h"
#include "workload/generators.h"

namespace incdb {
namespace {

RandomDbConfig VariedConfig(Rng& rng) {
  RandomDbConfig config;
  config.arities.clear();
  const size_t n = 1 + rng.Uniform(3);
  for (size_t i = 0; i < n; ++i) config.arities.push_back(1 + rng.Uniform(4));
  config.rows_per_relation = rng.Uniform(8);  // include empty relations
  config.domain_size = 6;
  config.null_density = rng.UniformDouble() * 0.5;
  config.null_reuse = rng.Bernoulli(0.5) ? 0.6 : 0.0;  // shared marked nulls
  config.codd = rng.Bernoulli(0.3);
  config.string_density = rng.Bernoulli(0.4) ? 0.3 : 0.0;
  return config;
}

TEST(IoRoundtripProperty, DatabaseDumpLoadDump) {
  Rng rng(77001);
  for (int trial = 0; trial < 300; ++trial) {
    Database db = MakeRandomDatabase(VariedConfig(rng), rng);

    const std::string dump = DumpDatabase(db);
    Result<Database> loaded = LoadDatabase(dump);
    ASSERT_TRUE(loaded.ok()) << "trial " << trial << ": "
                             << loaded.status().ToString() << "\n" << dump;
    EXPECT_TRUE(*loaded == db) << "trial " << trial << " reload differs:\n"
                               << dump;
    EXPECT_EQ(DumpDatabase(*loaded), dump) << "trial " << trial;
  }
}

TEST(IoRoundtripProperty, DatabaseSharedNullsSurvive) {
  Rng rng(77002);
  for (int trial = 0; trial < 100; ++trial) {
    RandomDbConfig config = VariedConfig(rng);
    config.null_density = 0.5;
    config.null_reuse = 0.8;
    config.codd = false;
    Database db = MakeRandomDatabase(config, rng);

    Result<Database> loaded = LoadDatabase(DumpDatabase(db));
    ASSERT_TRUE(loaded.ok());
    // Null identity — not just null positions — must survive the trip.
    EXPECT_EQ(loaded->Nulls(), db.Nulls()) << "trial " << trial;
  }
}

TEST(IoRoundtripProperty, CDatabaseDumpLoadDump) {
  Rng rng(77003);
  for (int trial = 0; trial < 300; ++trial) {
    RandomCDbConfig config;
    config.base = VariedConfig(rng);
    config.condition_density = rng.UniformDouble();
    config.max_condition_depth = rng.Uniform(3);
    config.global_condition_p = rng.Bernoulli(0.5) ? 0.5 : 0.0;
    CDatabase cdb = MakeRandomCDatabase(config, rng);

    const std::string dump = DumpCDatabase(cdb);
    Result<CDatabase> loaded = LoadCDatabase(dump);
    ASSERT_TRUE(loaded.ok()) << "trial " << trial << ": "
                             << loaded.status().ToString() << "\n" << dump;
    // Conditions fold on construction, so the rendered text is canonical
    // and the second dump must be byte-identical.
    EXPECT_EQ(DumpCDatabase(*loaded), dump) << "trial " << trial;
  }
}

TEST(IoRoundtripProperty, CDatabaseHandwrittenForms) {
  const std::string text =
      "# fixture\n"
      "ctable R(a, b)\n"
      "global ~(_0 = 9)\n"
      "1, _0\n"
      "_0, _1 :: (_0 = 1 & ~(_1 = 2))\n"
      "'x', 3 :: (_0 = 1 | _1 = 3)\n";
  Result<CDatabase> loaded = LoadCDatabase(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string dump = DumpCDatabase(*loaded);
  Result<CDatabase> again = LoadCDatabase(dump);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(DumpCDatabase(*again), dump);
}

// Characters the dump, condition, RA, SQL and rule syntaxes give meaning.
constexpr char kSpecialAlphabet[] = "ab' ,:;()=~&|#";

std::string SpecialString(Rng& rng) {
  std::string s;
  const size_t len = rng.Uniform(7);
  for (size_t i = 0; i < len; ++i) {
    s += kSpecialAlphabet[rng.Uniform(sizeof kSpecialAlphabet - 1)];
  }
  return s;
}

Value SpecialValue(Rng& rng) {
  switch (rng.Uniform(4)) {
    case 0:
      return Value::Int(static_cast<int64_t>(rng.Uniform(7)) - 3);
    case 1:
      return Value::Null(static_cast<NullId>(rng.Uniform(3)));
    default:
      return Value::Str(SpecialString(rng));
  }
}

ConditionPtr SpecialCondition(Rng& rng, int depth) {
  if (depth == 0 || rng.Bernoulli(0.3)) {
    return Condition::Eq(Value::Null(static_cast<NullId>(rng.Uniform(3))),
                         SpecialValue(rng));
  }
  switch (rng.Uniform(3)) {
    case 0:
      return Condition::Not(SpecialCondition(rng, depth - 1));
    case 1:
      return Condition::And(SpecialCondition(rng, depth - 1),
                            SpecialCondition(rng, depth - 1));
    default:
      return Condition::Or(SpecialCondition(rng, depth - 1),
                           SpecialCondition(rng, depth - 1));
  }
}

TEST(IoRoundtripProperty, QuoteBearingStringsRoundTripOnEverySurface) {
  Rng rng(77004);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t arity = 1 + rng.Uniform(3);
    Database db;
    ASSERT_TRUE(db.mutable_schema()->AddRelation("R", arity).ok());
    db.MutableRelation("R", arity);
    CDatabase cdb;
    ASSERT_TRUE(cdb.mutable_schema()->AddRelation("R", arity).ok());
    CTable* table = cdb.MutableTable("R", arity);
    table->SetGlobalCondition(SpecialCondition(rng, 2));
    const size_t rows = 1 + rng.Uniform(4);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Value> vals;
      for (size_t i = 0; i < arity; ++i) vals.push_back(SpecialValue(rng));
      db.AddTuple("R", Tuple(vals));
      table->AddRow(Tuple(std::move(vals)), SpecialCondition(rng, 2));
    }

    // Dump → load → dump, naïve and conditioned.
    const std::string dump = DumpDatabase(db);
    Result<Database> loaded = LoadDatabase(dump);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString() << "\n" << dump;
    EXPECT_TRUE(*loaded == db) << dump;
    EXPECT_EQ(DumpDatabase(*loaded), dump);
    const std::string cdump = DumpCDatabase(cdb);
    Result<CDatabase> cloaded = LoadCDatabase(cdump);
    ASSERT_TRUE(cloaded.ok()) << cloaded.status().ToString() << "\n"
                              << cdump;
    EXPECT_EQ(DumpCDatabase(*cloaded), cdump);

    // A condition on those strings.
    const ConditionPtr cond = SpecialCondition(rng, 3);
    Result<ConditionPtr> cparsed = ParseCondition(cond->ToString());
    ASSERT_TRUE(cparsed.ok()) << cparsed.status().ToString() << "\n"
                              << cond->ToString();
    EXPECT_EQ((*cparsed)->ToString(), cond->ToString());

    // The relation as an RA literal.
    const Relation& rel = db.GetRelation("R");
    Result<RAExprPtr> lit = ParseRA(rel.ToString());
    ASSERT_TRUE(lit.ok()) << lit.status().ToString() << "\n"
                          << rel.ToString();
    EXPECT_TRUE((*lit)->literal() == rel) << rel.ToString();

    // Queries that compare against one such string.
    const Value str = Value::Str(SpecialString(rng));
    Result<RAExprPtr> sel =
        ParseRA("sel[#0 = " + str.ToString() + " OR #0 = 1](R)");
    ASSERT_TRUE(sel.ok()) << sel.status().ToString() << "\n" << str.ToString();
    Result<RAExprPtr> sel_again = ParseRA((*sel)->ToString());
    ASSERT_TRUE(sel_again.ok()) << sel_again.status().ToString();
    EXPECT_EQ((*sel_again)->ToString(), (*sel)->ToString());
    EXPECT_NE((*sel)->ToString().find(str.ToString()), std::string::npos);

    Result<SqlQuery> sql =
        ParseSql("SELECT a FROM t WHERE a = " + str.ToString());
    ASSERT_TRUE(sql.ok()) << sql.status().ToString() << "\n" << str.ToString();
    ASSERT_NE(sql->selects[0].where, nullptr);
    EXPECT_EQ(sql->selects[0].where->rhs.literal, str);
    Result<SqlQuery> sql_again = ParseSql(sql->ToString());
    ASSERT_TRUE(sql_again.ok()) << sql_again.status().ToString();
    EXPECT_EQ(sql_again->ToString(), sql->ToString());

    Result<ConjunctiveQuery> cq =
        ParseCQ("ans(x) :- R(x, " + str.ToString() + ")");
    ASSERT_TRUE(cq.ok()) << cq.status().ToString() << "\n" << str.ToString();
    EXPECT_EQ(cq->body[0].terms[1].constant, str);
    Result<ConjunctiveQuery> cq_again = ParseCQ(cq->ToString());
    ASSERT_TRUE(cq_again.ok()) << cq_again.status().ToString();
    EXPECT_EQ(cq_again->ToString(), cq->ToString());
  }
}

TEST(IoRoundtripProperty, CDatabaseErrorsCarryLineNumbers) {
  EXPECT_FALSE(LoadCDatabase("ctable R(a)\n1, 2\n").ok());   // arity
  EXPECT_FALSE(LoadCDatabase("1, 2\n").ok());                // row before table
  EXPECT_FALSE(LoadCDatabase("ctable R(a)\n1 :: _0 =\n").ok());  // bad cond
  Result<CDatabase> bad = LoadCDatabase("ctable R(a)\nnonsense row\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
      << bad.status().ToString();
}

// A value of the writer's edge cases: quote-bearing strings, the int64
// extremes, and null ids up to the top of NullId.
Value EdgeValue(Rng& rng) {
  switch (rng.Uniform(6)) {
    case 0:
      return Value::Int(std::numeric_limits<int64_t>::min());
    case 1:
      return Value::Int(std::numeric_limits<int64_t>::max());
    case 2:
      return Value::Null(rng.Bernoulli(0.5)
                             ? std::numeric_limits<NullId>::max()
                             : static_cast<NullId>(rng.Next()));
    default:
      return SpecialValue(rng);
  }
}

TEST(IoRoundtripProperty, RowWriterMatchesTupleTextOnBothBodies) {
  Rng rng(77005);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t arity = rng.Uniform(4);  // 0-ary {} and {()} included
    Relation tuples(arity);
    const size_t rows = rng.Uniform(6);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Value> vals;
      for (size_t i = 0; i < arity; ++i) vals.push_back(EdgeValue(rng));
      tuples.Add(Tuple(std::move(vals)));
    }
    std::string expected;
    for (const Tuple& t : tuples.tuples()) {
      expected += "| " + t.ToString() + "\n";
    }
    const Relation columns(ColumnarRelation::FromRelation(tuples));
    ASSERT_NE(columns.ColumnarIfBuilt(), nullptr);
    std::string from_tuples = "prefix";
    AppendRows(tuples, &from_tuples);
    std::string from_columns = "prefix";
    AppendRows(columns, &from_columns);
    EXPECT_EQ(from_tuples, "prefix" + expected) << "trial " << trial;
    EXPECT_EQ(from_columns, "prefix" + expected) << "trial " << trial;
    EXPECT_EQ(columns.ToString(), tuples.ToString()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace incdb
