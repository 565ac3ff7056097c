// Property tests for the service's prepared-plan cache: a cache hit must
// return the stored cold-run QueryResponse verbatim (relation, stats modulo
// wall time against a fresh cold run, probabilities), and ingestion must
// invalidate exactly the entries whose scanned relations changed — entries
// over untouched relations keep serving from cache.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "service/service.h"
#include "testing/fuzz_gen.h"
#include "util/random.h"
#include "workload/generators.h"

namespace incdb {
namespace {

// Per-operator counters and the named totals, wall time excluded: two runs
// of the same deterministic computation agree on everything but nanos.
void ExpectStatsEqualModuloTime(const EvalStats& a, const EvalStats& b) {
  for (size_t i = 0; i < kNumEvalOps; ++i) {
    const EvalOp op = static_cast<EvalOp>(i);
    EXPECT_EQ(a.at(op).calls, b.at(op).calls) << EvalOpName(op);
    EXPECT_EQ(a.at(op).tuples_in, b.at(op).tuples_in) << EvalOpName(op);
    EXPECT_EQ(a.at(op).tuples_out, b.at(op).tuples_out) << EvalOpName(op);
    EXPECT_EQ(a.at(op).probes, b.at(op).probes) << EvalOpName(op);
  }
  EXPECT_EQ(a.cache_hits(), b.cache_hits());
  EXPECT_EQ(a.cache_misses(), b.cache_misses());
  EXPECT_EQ(a.delta_applied(), b.delta_applied());
  EXPECT_EQ(a.delta_fallbacks(), b.delta_fallbacks());
  EXPECT_EQ(a.cond_simplified(), b.cond_simplified());
  EXPECT_EQ(a.unsat_pruned(), b.unsat_pruned());
  EXPECT_EQ(a.worlds_counted(), b.worlds_counted());
  EXPECT_EQ(a.samples_drawn(), b.samples_drawn());
  EXPECT_EQ(a.exact_count_hits(), b.exact_count_hits());
  EXPECT_EQ(a.batches_processed(), b.batches_processed());
  EXPECT_EQ(a.rows_vectorized(), b.rows_vectorized());
}

void ExpectProbabilitiesEqual(const std::vector<TupleProbability>& a,
                              const std::vector<TupleProbability>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tuple, b[i].tuple);
    EXPECT_EQ(a[i].probability, b[i].probability);
    EXPECT_EQ(a[i].ci_low, b[i].ci_low);
    EXPECT_EQ(a[i].ci_high, b[i].ci_high);
    EXPECT_EQ(a[i].exact, b[i].exact);
  }
}

Database TwoRelationDb() {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("R", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddRelation("S", {"a", "b"}).ok());
  Database db(schema);
  db.AddTuple("R", Tuple{Value::Int(1), Value::Int(1)});
  db.AddTuple("R", Tuple{Value::Int(2), Value::Null(0)});
  db.AddTuple("S", Tuple{Value::Int(1), Value::Int(1)});
  db.AddTuple("S", Tuple{Value::Int(3), Value::Int(3)});
  return db;
}

QueryRequest RaRequest(const std::string& text, AnswerNotion notion) {
  QueryRequest req = QueryRequestBuilder(QueryInput::RaText(text))
                         .Notion(notion)
                         .Build();
  // Run serially so the stats are reproducible. Under parallel
  // enumeration the delta/fallback split depends on how the world space was
  // partitioned, and the certain-answer drivers stop every worker once one
  // worker's answer empties, so where the others stop depends on timing.
  req.eval.num_threads = 1;
  return req;
}

// A hit must be the cold run, verbatim — and both must match a fresh
// engine run on the same snapshot, wall time aside.
TEST(PlanCacheTest, HitIsBitIdenticalToColdRunAcrossRandomCases) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RandomDbConfig db_config;
    db_config.arities = {2, 2};
    db_config.rows_per_relation = 5;
    db_config.domain_size = 4;
    db_config.null_density = 0.3;
    db_config.max_nulls = 2;
    Rng rng(seed);
    const Database db = MakeRandomDatabase(db_config, rng);

    PlanGenConfig plan_config;
    plan_config.domain_size = 4;
    const GeneratedPlan gen = RandomPlan(rng, db, plan_config);

    for (const AnswerNotion notion :
         {AnswerNotion::kNaive, AnswerNotion::kCertainEnum,
          AnswerNotion::kPossible}) {
      IncDbService service(db);
      Session session = service.OpenSession();
      QueryRequest req = QueryRequestBuilder(QueryInput::Ra(gen.plan))
                             .Notion(notion)
                             .Build();
      req.eval.num_threads = 1;  // stats compared below: see RaRequest

      auto cold = session.Run(req);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      EXPECT_FALSE(cold->cache_hit);
      auto hit = session.Run(req);
      ASSERT_TRUE(hit.ok()) << hit.status().ToString();
      EXPECT_TRUE(hit->cache_hit) << "seed " << seed;
      EXPECT_EQ(hit->snapshot_version, cold->snapshot_version);

      // Verbatim: the stored response, wall times included.
      EXPECT_EQ(hit->response.relation, cold->response.relation);
      EXPECT_EQ(hit->response.stats.TotalNanos(),
                cold->response.stats.TotalNanos());
      ExpectStatsEqualModuloTime(hit->response.stats, cold->response.stats);
      ExpectProbabilitiesEqual(hit->response.probabilities,
                               cold->response.probabilities);

      // And faithful: a fresh engine run on the same snapshot agrees.
      const QueryEngine engine(service.CurrentSnapshot()->db());
      auto fresh = engine.Run(req);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      EXPECT_EQ(hit->response.relation, fresh->relation);
      ExpectStatsEqualModuloTime(hit->response.stats, fresh->stats);
    }
  }
}

TEST(PlanCacheTest, ProbabilisticHitKeepsTheFullProbabilityTable) {
  IncDbService service(TwoRelationDb());
  Session session = service.OpenSession();
  QueryRequest req = RaRequest("proj{0}(R)",
                               AnswerNotion::kCertainWithProbability);
  req.probability.threshold = 0.5;

  auto cold = session.Run(req);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_FALSE(cold->response.probabilities.empty());
  auto hit = session.Run(req);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->response.relation, cold->response.relation);
  ExpectProbabilitiesEqual(hit->response.probabilities,
                           cold->response.probabilities);
  EXPECT_EQ(hit->response.worlds_counted, cold->response.worlds_counted);
  EXPECT_EQ(hit->response.exact_count_hits, cold->response.exact_count_hits);
}

// Ingestion into R must invalidate entries scanning R and nothing else.
TEST(PlanCacheTest, IngestionInvalidatesExactlyTheAffectedFingerprints) {
  IncDbService service(TwoRelationDb());
  Session session = service.OpenSession();
  const QueryRequest over_r = RaRequest("R", AnswerNotion::kNaive);
  const QueryRequest over_s = RaRequest("S", AnswerNotion::kNaive);

  ASSERT_TRUE(session.Run(over_r).ok());
  ASSERT_TRUE(session.Run(over_s).ok());
  EXPECT_TRUE(session.Run(over_r)->cache_hit);
  EXPECT_TRUE(session.Run(over_s)->cache_hit);

  const Tuple added{Value::Int(9), Value::Int(9)};
  auto version = session.Ingest({{"R", added}});
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(*version, 2u);

  // R's entry is gone — the re-run is a miss and sees the new tuple.
  auto after_r = session.Run(over_r);
  ASSERT_TRUE(after_r.ok());
  EXPECT_FALSE(after_r->cache_hit);
  EXPECT_EQ(after_r->snapshot_version, 2u);
  EXPECT_TRUE(after_r->response.relation.Contains(added));

  // S's entry kept serving.
  auto after_s = session.Run(over_s);
  ASSERT_TRUE(after_s.ok());
  EXPECT_TRUE(after_s->cache_hit);
  EXPECT_EQ(service.Stats().invalidated_entries, 1u);
}

// World-quantified notions range over valuations of the whole instance, so
// their entries invalidate on any change — even to an unscanned relation.
TEST(PlanCacheTest, WorldQuantifiedEntriesDependOnTheWholeDatabase) {
  IncDbService service(TwoRelationDb());
  Session session = service.OpenSession();
  const QueryRequest certain = RaRequest("proj{0}(R)",
                                         AnswerNotion::kCertainEnum);
  ASSERT_TRUE(session.Run(certain).ok());
  EXPECT_TRUE(session.Run(certain)->cache_hit);

  ASSERT_TRUE(session.Ingest({{"S", Tuple{Value::Int(7), Value::Int(7)}}})
                  .ok());
  auto after = session.Run(certain);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);  // adom(D) changed under the valuations
}

// Δ's value is the active domain of the whole instance.
TEST(PlanCacheTest, DeltaPlansDependOnTheWholeDatabase) {
  IncDbService service(TwoRelationDb());
  Session session = service.OpenSession();
  QueryRequest req = QueryRequestBuilder(QueryInput::Ra(RAExpr::Delta()))
                         .Notion(AnswerNotion::kNaive)
                         .Build();
  ASSERT_TRUE(session.Run(req).ok());
  EXPECT_TRUE(session.Run(req)->cache_hit);
  ASSERT_TRUE(session.Ingest({{"S", Tuple{Value::Int(8), Value::Int(8)}}})
                  .ok());
  auto after = session.Run(req);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);
  EXPECT_TRUE(after->response.relation.Contains(
      Tuple{Value::Int(8), Value::Int(8)}));
}

TEST(PlanCacheTest, DistinctOptionsGetDistinctEntries) {
  IncDbService service(TwoRelationDb());
  Session session = service.OpenSession();
  ASSERT_TRUE(session.Run(RaRequest("R", AnswerNotion::kNaive)).ok());
  // Same plan, different notion: must not serve the naive entry.
  auto certain = session.Run(RaRequest("R", AnswerNotion::kCertainEnum));
  ASSERT_TRUE(certain.ok());
  EXPECT_FALSE(certain->cache_hit);
  // Both entries now serve independently.
  EXPECT_TRUE(session.Run(RaRequest("R", AnswerNotion::kNaive))->cache_hit);
  EXPECT_TRUE(
      session.Run(RaRequest("R", AnswerNotion::kCertainEnum))->cache_hit);
}

TEST(PlanCacheTest, SqlTextCachesAndInvalidatesConservatively) {
  IncDbService service(TwoRelationDb());
  Session session = service.OpenSession();
  QueryRequest req =
      QueryRequestBuilder(
          QueryInput::SqlText("SELECT a FROM R WHERE b = 1"))
          .Notion(AnswerNotion::k3VL)
          .Build();
  auto cold = session.Run(req);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->cache_hit);
  auto hit = session.Run(req);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->response.relation, cold->response.relation);
  // SQL dependencies are conservative: any ingest invalidates.
  ASSERT_TRUE(session.Ingest({{"S", Tuple{Value::Int(6), Value::Int(6)}}})
                  .ok());
  EXPECT_FALSE(session.Run(req)->cache_hit);
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  ServiceLimits limits;
  limits.plan_cache_capacity = 0;
  IncDbService service(TwoRelationDb(), limits);
  Session session = service.OpenSession();
  const QueryRequest req = RaRequest("R", AnswerNotion::kNaive);
  ASSERT_TRUE(session.Run(req).ok());
  auto again = session.Run(req);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->cache_hit);
  EXPECT_EQ(service.Stats().cache_entries, 0u);
}

TEST(PlanCacheTest, LruEvictsTheColdestEntry) {
  ServiceLimits limits;
  limits.plan_cache_capacity = 2;
  IncDbService service(TwoRelationDb(), limits);
  Session session = service.OpenSession();
  const QueryRequest q1 = RaRequest("R", AnswerNotion::kNaive);
  const QueryRequest q2 = RaRequest("S", AnswerNotion::kNaive);
  const QueryRequest q3 = RaRequest("R U S", AnswerNotion::kNaive);
  ASSERT_TRUE(session.Run(q1).ok());
  ASSERT_TRUE(session.Run(q2).ok());
  ASSERT_TRUE(session.Run(q3).ok());  // evicts q1
  EXPECT_EQ(service.Stats().cache_entries, 2u);
  EXPECT_FALSE(session.Run(q1)->cache_hit);
  EXPECT_TRUE(session.Run(q3)->cache_hit);
}

TEST(PlanCacheTest, StatsSinkIsMergedOnHits) {
  IncDbService service(TwoRelationDb());
  Session session = service.OpenSession();
  QueryRequest req = RaRequest("R U S", AnswerNotion::kNaive);
  ASSERT_TRUE(session.Run(req).ok());
  EvalStats sink;
  req.eval.stats = &sink;
  auto hit = session.Run(req);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  ExpectStatsEqualModuloTime(sink, hit->response.stats);
  EXPECT_EQ(sink.TotalNanos(), hit->response.stats.TotalNanos());
}

}  // namespace
}  // namespace incdb
