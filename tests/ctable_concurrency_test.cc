// Concurrent c-table queries (run under TSan in CI): several threads answer
// certain, possible and probability queries on Backend::kCTable through
// QueryEngine against one shared database, and every answer must equal the
// one a serial run gives. One probability request per query forces the
// sampling pass, whose workers read the query's condition arena from
// several threads. The serial run comes after the threads have
// joined, so the first touch of any process-wide state the c-table path
// keeps (the owner-less `true`/`false` constants, CDatabase's shared empty
// tables) happens on the worker threads.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "service/snapshot.h"

namespace incdb {
namespace {

constexpr int kThreads = 4;
constexpr int kRounds = 3;

// R and S share two nulls; `Absent` is declared but has no tuples, so
// lifting a query that scans it goes through CDatabase's empty tables.
Database SharedDb() {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("R", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddRelation("S", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddRelation("Absent", {"a", "b", "c", "d", "e"}).ok());
  Database db(schema);
  db.AddTuple("R", Tuple{Value::Int(1), Value::Int(1)});
  db.AddTuple("R", Tuple{Value::Int(2), Value::Null(0)});
  db.AddTuple("R", Tuple{Value::Int(3), Value::Int(3)});
  db.AddTuple("R", Tuple{Value::Null(1), Value::Int(2)});
  db.AddTuple("S", Tuple{Value::Int(1), Value::Int(1)});
  db.AddTuple("S", Tuple{Value::Null(0), Value::Int(3)});
  db.AddTuple("S", Tuple{Value::Int(2), Value::Int(2)});
  return db;
}

// Every c-table notion over each query text.
std::vector<QueryRequest> CTableRequests(
    const std::vector<std::string>& texts) {
  std::vector<QueryRequest> out;
  for (const std::string& text : texts) {
    for (AnswerNotion notion :
         {AnswerNotion::kCertainEnum, AnswerNotion::kPossible,
          AnswerNotion::kCertainWithProbability}) {
      ProbabilisticOptions popts;
      popts.threshold = 0.5;
      QueryRequest req = QueryRequestBuilder(QueryInput::RaText(text))
                             .Notion(notion)
                             .OnBackend(Backend::kCTable)
                             .Probability(popts)
                             .Build();
      req.eval.num_threads = 1;
      out.push_back(std::move(req));
    }
    // The sampling pass: its workers read the query's condition arena
    // concurrently, beside the other threads' queries.
    ProbabilisticOptions sampled;
    sampled.threshold = 0.5;
    sampled.force_sampling = true;
    sampled.sampling.samples = 2'000;
    QueryRequest req = QueryRequestBuilder(QueryInput::RaText(text))
                           .Notion(AnswerNotion::kCertainWithProbability)
                           .OnBackend(Backend::kCTable)
                           .Probability(sampled)
                           .Build();
    req.eval.num_threads = 4;
    out.push_back(std::move(req));
  }
  return out;
}

struct Answer {
  Relation relation{0};
  std::vector<TupleProbability> probabilities;
};

Answer Run(const QueryEngine& engine, const QueryRequest& req) {
  Result<QueryResponse> r = engine.Run(req);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {};
  return Answer{r->relation, r->probabilities};
}

void ExpectSameAnswer(const Answer& got, const Answer& want,
                      const std::string& what) {
  EXPECT_EQ(got.relation, want.relation) << what;
  ASSERT_EQ(got.probabilities.size(), want.probabilities.size()) << what;
  for (size_t i = 0; i < got.probabilities.size(); ++i) {
    const TupleProbability& g = got.probabilities[i];
    const TupleProbability& w = want.probabilities[i];
    EXPECT_EQ(g.tuple, w.tuple) << what;
    EXPECT_EQ(g.probability, w.probability) << what;
    EXPECT_EQ(g.ci_low, w.ci_low) << what;
    EXPECT_EQ(g.ci_high, w.ci_high) << what;
    EXPECT_EQ(g.exact, w.exact) << what;
  }
}

// Runs `requests` kRounds times on each of kThreads threads (each thread
// starting at a different request), then once serially, and compares.
void ExpectConcurrentEqualsSerial(const std::vector<QueryRequest>& requests) {
  // Shared the way the service shares it: a published snapshot, whose
  // relations' lazy caches were built before any reader starts.
  const auto snapshot = DatabaseSnapshot::Make(SharedDb(), 1, nullptr);
  const QueryEngine engine(snapshot->db());
  std::vector<std::vector<Answer>> seen(kThreads,
                                        std::vector<Answer>(requests.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t k = 0; k < requests.size(); ++k) {
          const size_t i = (k + static_cast<size_t>(t)) % requests.size();
          seen[t][i] = Run(engine, requests[i]);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  size_t answered_tuples = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Answer serial = Run(engine, requests[i]);
    answered_tuples += serial.relation.size() + serial.probabilities.size();
    for (int t = 0; t < kThreads; ++t) {
      ExpectSameAnswer(seen[t][i], serial,
                       "request " + std::to_string(i) + ", thread " +
                           std::to_string(t));
    }
  }
  EXPECT_GT(answered_tuples, 0u);
}

TEST(CTableConcurrency, ThreadsMatchSerialRun) {
  ExpectConcurrentEqualsSerial(
      CTableRequests({"proj{0}(sel[#1 = #2](R x S))", "R - S", "R & S"}));
}

// Regression: CDatabase::GetTable used to fill its process-wide map of empty
// tables without a lock, so threads lifting a relation that is declared but
// absent raced on it. No other test here scans `Absent`, so its arity's
// empty table is first created by one of these threads.
TEST(CTableConcurrency, ScansOfAnAbsentRelation) {
  ExpectConcurrentEqualsSerial(CTableRequests(
      {"R - proj{0,1}(Absent)", "R U proj{3,4}(Absent)",
       "proj{0}(sel[#0 = #2](R x Absent))"}));
}

}  // namespace
}  // namespace incdb
