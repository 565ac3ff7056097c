// Tests for the world-invariant subplan cache: which subtrees get spliced,
// that identical subtrees evaluate once and share storage, that drivers
// report hits/misses, and that answers are bit-identical with the cache on
// and off, serial and parallel.

#include "engine/subplan_cache.h"

#include <gtest/gtest.h>

#include "algebra/certain.h"
#include "algebra/eval.h"
#include "engine/query_engine.h"

namespace incdb {
namespace {

// R0 carries a null (world-variant), S and T are complete.
Database TestDb() {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("R0", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddRelation("S", {"c", "d"}).ok());
  EXPECT_TRUE(schema.AddRelation("T", {"e"}).ok());
  Database db(schema);
  db.AddTuple("R0", Tuple{Value::Int(1), Value::Int(2)});
  db.AddTuple("R0", Tuple{Value::Null(7), Value::Int(3)});
  for (int64_t i = 0; i < 4; ++i) {
    db.AddTuple("S", Tuple{Value::Int(i), Value::Int(i + 10)});
  }
  db.AddTuple("T", Tuple{Value::Int(2)});
  return db;
}

size_t CountConstRels(const RAExprPtr& e) {
  if (e == nullptr) return 0;
  return (e->kind() == RAExpr::Kind::kConstRel ? 1 : 0) +
         CountConstRels(e->left()) + CountConstRels(e->right());
}

const RAExpr* FindConstRel(const RAExprPtr& e) {
  if (e == nullptr) return nullptr;
  if (e->kind() == RAExpr::Kind::kConstRel) return e.get();
  if (const RAExpr* l = FindConstRel(e->left())) return l;
  return FindConstRel(e->right());
}

TEST(SubplanCacheTest, CompleteScanIsSplicedVariantScanIsNot) {
  Database db = TestDb();
  auto e = RAExpr::Select(
      Predicate::Eq(Term::Column(1), Term::Column(2)),
      RAExpr::Product(RAExpr::Scan("R0"), RAExpr::Scan("S")));
  auto prep = PrepareWorldInvariantPlan(e, db, EvalOptions{});
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  EXPECT_FALSE(prep->whole_plan_invariant);
  EXPECT_EQ(prep->cached_subplans, 1u);
  EXPECT_EQ(prep->unique_evals, 1u);
  // The product's left is still the scan of the null-carrying R0; the right
  // became a literal holding S's value.
  ASSERT_EQ(prep->plan->kind(), RAExpr::Kind::kSelect);
  EXPECT_EQ(prep->plan->left()->left()->kind(), RAExpr::Kind::kScan);
  ASSERT_EQ(prep->plan->left()->right()->kind(), RAExpr::Kind::kConstRel);
  EXPECT_EQ(prep->plan->left()->right()->literal(), db.GetRelation("S"));
}

TEST(SubplanCacheTest, MaximalInvariantSubtreeIsEvaluatedNotItsPieces) {
  Database db = TestDb();
  // σ_{#0=2}(S × T) is invariant as a whole: one splice, one evaluation.
  auto invariant = RAExpr::Select(
      Predicate::Eq(Term::Column(0), Term::Const(Value::Int(2))),
      RAExpr::Product(RAExpr::Scan("S"), RAExpr::Scan("T")));
  auto e = RAExpr::Product(RAExpr::Scan("R0"), invariant);
  auto prep = PrepareWorldInvariantPlan(e, db, EvalOptions{});
  ASSERT_TRUE(prep.ok());
  EXPECT_EQ(prep->cached_subplans, 1u);
  EXPECT_EQ(prep->unique_evals, 1u);
  ASSERT_EQ(prep->plan->right()->kind(), RAExpr::Kind::kConstRel);
  auto expect = EvalNaive(invariant, db);
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(prep->plan->right()->literal(), *expect);
}

TEST(SubplanCacheTest, IdenticalSubtreesEvaluateOnceAndShareStorage) {
  Database db = TestDb();
  // S scanned on both sides of a union of joins: one evaluation, two
  // splices sharing one tuple vector.
  auto join = [&](PredicatePtr p) {
    return RAExpr::Select(std::move(p), RAExpr::Product(RAExpr::Scan("R0"),
                                                        RAExpr::Scan("S")));
  };
  auto e = RAExpr::Union(join(Predicate::Eq(Term::Column(1), Term::Column(2))),
                         join(Predicate::Eq(Term::Column(0), Term::Column(3))));
  auto prep = PrepareWorldInvariantPlan(e, db, EvalOptions{});
  ASSERT_TRUE(prep.ok());
  EXPECT_EQ(prep->cached_subplans, 2u);
  EXPECT_EQ(prep->unique_evals, 1u);
  EXPECT_EQ(prep->prepare_hits, 1u);
  const RAExprPtr& lhs = prep->plan->left()->left()->right();
  const RAExprPtr& rhs = prep->plan->right()->left()->right();
  ASSERT_EQ(lhs->kind(), RAExpr::Kind::kConstRel);
  ASSERT_EQ(rhs->kind(), RAExpr::Kind::kConstRel);
  EXPECT_TRUE(lhs->literal().SharesStorageWith(rhs->literal()));
}

TEST(SubplanCacheTest, DeltaIsNeverInvariant) {
  Database db = TestDb();
  // Δ's value is the world's active domain, which varies with the
  // valuation; only the complete scan next to it may be spliced.
  auto e = RAExpr::Product(RAExpr::Delta(), RAExpr::Scan("S"));
  auto prep = PrepareWorldInvariantPlan(e, db, EvalOptions{});
  ASSERT_TRUE(prep.ok());
  EXPECT_FALSE(prep->whole_plan_invariant);
  EXPECT_EQ(prep->plan->left()->kind(), RAExpr::Kind::kDelta);
  EXPECT_EQ(prep->plan->right()->kind(), RAExpr::Kind::kConstRel);
}

TEST(SubplanCacheTest, WholePlanInvariantWhenOnlyCompleteRelationsScanned) {
  Database db = TestDb();
  auto e = RAExpr::Project({0}, RAExpr::Select(
      Predicate::Eq(Term::Column(1), Term::Column(2)),
      RAExpr::Product(RAExpr::Scan("S"), RAExpr::Scan("T"))));
  auto prep = PrepareWorldInvariantPlan(e, db, EvalOptions{});
  ASSERT_TRUE(prep.ok());
  EXPECT_TRUE(prep->whole_plan_invariant);
  EXPECT_EQ(prep->plan->kind(), RAExpr::Kind::kConstRel);
  auto expect = EvalNaive(e, db);
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(prep->plan->literal(), *expect);
}

TEST(SubplanCacheTest, PreparedJoinLiteralCarriesPrebuiltColumnIndex) {
  Database db = TestDb();
  auto e = RAExpr::Select(
      Predicate::Eq(Term::Column(1), Term::Column(2)),
      RAExpr::Product(RAExpr::Scan("R0"), RAExpr::Scan("S")));
  auto prep = PrepareWorldInvariantPlan(e, db, EvalOptions{});
  ASSERT_TRUE(prep.ok());
  const RAExpr* lit = FindConstRel(prep->plan);
  ASSERT_NE(lit, nullptr);
  // Join key is S's column 0; the kernels probe exactly this index.
  EXPECT_NE(lit->literal().FindColumnIndex({0}), nullptr);
  EXPECT_EQ(lit->literal().FindColumnIndex({1}), nullptr);
}

TEST(SubplanCacheTest, DriversCountOneHitPerSplicePerWorld) {
  Database db = TestDb();
  auto e = RAExpr::Project(
      {0, 3}, RAExpr::Select(Predicate::Eq(Term::Column(1), Term::Column(2)),
                             RAExpr::Product(RAExpr::Scan("R0"),
                                             RAExpr::Scan("S"))));
  WorldEnumOptions world_opts;
  world_opts.fresh_constants = 1;

  EvalStats stats;
  EvalOptions opts;
  opts.num_threads = 1;
  opts.stats = &stats;
  auto ans = CertainAnswersEnum(e, db, WorldSemantics::kClosedWorld,
                                world_opts, opts);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_EQ(stats.cache_misses(), 1u);  // S evaluated once at prepare
  // One null over |adom ∪ fresh| values: one hit per enumerated world
  // (early exit may stop before all worlds, but at least one ran).
  EXPECT_GE(stats.cache_hits(), 1u);

  EvalStats off_stats;
  EvalOptions off = opts;
  off.stats = &off_stats;
  off.cache_subplans = false;
  auto plain = CertainAnswersEnum(e, db, WorldSemantics::kClosedWorld,
                                  world_opts, off);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(off_stats.cache_hits(), 0u);
  EXPECT_EQ(off_stats.cache_misses(), 0u);
  EXPECT_EQ(*plain, *ans);
}

TEST(SubplanCacheTest, AnswersBitIdenticalOnOffSerialParallel) {
  Database db = TestDb();
  const std::vector<RAExprPtr> plans = {
      RAExpr::Project(
          {0, 3}, RAExpr::Select(Predicate::Eq(Term::Column(1), Term::Column(2)),
                                 RAExpr::Product(RAExpr::Scan("R0"),
                                                 RAExpr::Scan("S")))),
      RAExpr::Diff(RAExpr::Project({0}, RAExpr::Scan("R0")),
                   RAExpr::Project({0}, RAExpr::Scan("S"))),
      RAExpr::Union(RAExpr::Scan("R0"), RAExpr::Scan("S")),
  };
  WorldEnumOptions world_opts;
  world_opts.fresh_constants = 1;
  for (const RAExprPtr& e : plans) {
    EvalOptions off;
    off.num_threads = 1;
    off.optimize = false;
    off.cache_subplans = false;
    auto base_certain = CertainAnswersEnum(e, db, WorldSemantics::kClosedWorld,
                                           world_opts, off);
    auto base_possible = PossibleAnswersEnum(e, db, world_opts, off);
    ASSERT_TRUE(base_certain.ok()) << e->ToString();
    ASSERT_TRUE(base_possible.ok()) << e->ToString();
    for (int threads : {1, 2, 7}) {
      EvalOptions on;
      on.num_threads = threads;
      auto certain = CertainAnswersEnum(e, db, WorldSemantics::kClosedWorld,
                                        world_opts, on);
      auto possible = PossibleAnswersEnum(e, db, world_opts, on);
      ASSERT_TRUE(certain.ok()) << e->ToString();
      ASSERT_TRUE(possible.ok()) << e->ToString();
      EXPECT_EQ(*certain, *base_certain)
          << e->ToString() << " @" << threads << " threads";
      EXPECT_EQ(*possible, *base_possible)
          << e->ToString() << " @" << threads << " threads";
    }
  }
}

TEST(SubplanCacheTest, EngineSurfacesCacheCountersAndPlans) {
  Database db = TestDb();
  QueryEngine engine(db);
  QueryRequest req;
  req.input = QueryInput::RaText("proj{0,3}(sel[#1 = #2](R0 x S))");
  req.notion = AnswerNotion::kCertainEnum;
  req.world_options.fresh_constants = 1;
  req.eval.num_threads = 1;
  auto resp = engine.Run(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_NE(resp->plan, nullptr);
  EXPECT_NE(resp->optimized_plan, nullptr);
  EXPECT_GE(resp->stats.cache_hits(), 1u);
  EXPECT_EQ(resp->stats.cache_misses(), 1u);
  // The printable stats carry the cache line.
  EXPECT_NE(resp->stats.ToString().find("subplan-cache"), std::string::npos);
}

TEST(SubplanCacheTest, ForcePlanLiteralsWalksEveryLiteral) {
  Relation r(1);
  r.Add(Tuple{Value::Int(1)});
  auto e = RAExpr::Union(RAExpr::ConstRel(r),
                         RAExpr::Project({0}, RAExpr::ConstRel(r)));
  ForcePlanLiterals(e);  // must not crash; forces lazy state
  EXPECT_EQ(CountConstRels(e), 2u);
}

}  // namespace
}  // namespace incdb
