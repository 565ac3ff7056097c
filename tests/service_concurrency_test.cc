// Concurrency battery for IncDbService (run under TSan in CI): N writer
// threads ingest batches while M reader sessions run all eight answer
// notions. Every reader must see one consistent snapshot per query — the
// check is a serial replay: after the run, each recorded (version, request,
// answer) triple is re-evaluated on a serially reconstructed database at
// that version, and the answers must be bit-identical. A torn read (a query
// observing half a batch) has no reconstructible version and fails the
// replay. Every snapshot encodes its relations against one dictionary,
// extended only by values it lacks, and answers never share it; SQL reads
// the snapshot's codes the same way. Sessions may read and write the rows
// of one cached columnar answer concurrently.
// Also covers the deterministic admission-control paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/columnar.h"
#include "core/io.h"
#include "engine/query_engine.h"
#include "service/service.h"

namespace incdb {
namespace {

Database SeedDb() {
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

// One request per answer notion, all answerable on the seed schema. The
// world space stays small (one null; ingested tuples are complete), so the
// enumeration notions are cheap even under TSan.
std::vector<QueryRequest> AllNotionRequests() {
  auto ra = [](const std::string& text, AnswerNotion notion) {
    QueryRequest req = QueryRequestBuilder(QueryInput::RaText(text))
                           .Notion(notion)
                           .Build();
    req.eval.num_threads = 1;
    return req;
  };
  auto sql = [](const std::string& text, AnswerNotion notion) {
    QueryRequest req = QueryRequestBuilder(QueryInput::SqlText(text))
                           .Notion(notion)
                           .Build();
    req.eval.num_threads = 1;
    return req;
  };
  return {
      ra("R U S", AnswerNotion::kNaive),
      sql("SELECT a FROM R WHERE b = 1", AnswerNotion::k3VL),
      sql("SELECT a FROM R WHERE b = 1", AnswerNotion::kMaybe),
      ra("proj{0}(R)", AnswerNotion::kCertainNaive),
      ra("proj{0}(R)", AnswerNotion::kCertainEnum),
      ra("R", AnswerNotion::kCertainObject),
      ra("proj{0}(R - S)", AnswerNotion::kPossible),
      ra("proj{0}(R)", AnswerNotion::kCertainWithProbability),
      // SQL on the snapshot's codes: an uncorrelated NOT IN, a correlated
      // EXISTS served by an equi-probe, grouping, and the certain filter.
      sql("SELECT a FROM R WHERE a NOT IN (SELECT b FROM S)",
          AnswerNotion::kNaive),
      sql("SELECT a, b FROM R WHERE EXISTS (SELECT a FROM S WHERE S.a = R.a "
          "AND b > 0)",
          AnswerNotion::k3VL),
      sql("SELECT b, COUNT(*) FROM R GROUP BY b", AnswerNotion::kMaybe),
      sql("SELECT a FROM R WHERE a IN (SELECT a FROM S)",
          AnswerNotion::kCertainNaive),
  };
}

// Every relation of `snap` is encoded against the snapshot's dictionary.
void ExpectOneDictionary(const DatabaseSnapshot& snap) {
  ASSERT_NE(snap.dict(), nullptr);
  for (const auto& [name, rel] : snap.db().relations()) {
    const ColumnarRelation* cols = rel.ColumnarIfBuilt();
    ASSERT_NE(cols, nullptr) << name;
    EXPECT_EQ(cols->dict_ptr(), snap.dict()) << name << " @" << snap.version();
  }
}

// `db`'s rows in a Database that never went through a snapshot.
Database FreshCopy(const Database& db) {
  Database out(db.schema());
  for (const auto& [name, rel] : db.relations()) {
    for (const Tuple& t : rel.tuples()) out.AddTuple(name, t);
  }
  return out;
}

// Answers `requests` on the service's current snapshot and on a fresh
// Database with its rows; they must agree, and no answer may hold the
// snapshot's dictionary.
void ExpectAnswersMatchAFreshDatabase(
    IncDbService& service, const std::vector<QueryRequest>& requests) {
  const auto snap = service.CurrentSnapshot();
  const Database fresh = FreshCopy(snap->db());
  const QueryEngine engine(fresh);
  for (size_t i = 0; i < requests.size(); ++i) {
    auto served = service.Run(requests[i]);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_EQ(served->snapshot_version, snap->version());
    auto expected = engine.Run(requests[i]);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    const Relation& answer = served->response.relation;
    EXPECT_EQ(answer, expected->relation) << "request " << i;
    const ColumnarRelation* cols = answer.ColumnarIfBuilt();
    if (cols != nullptr) {
      EXPECT_NE(cols->dict_ptr(), snap->dict()) << "request " << i;
    }
  }
}

struct Observation {
  size_t request_index = 0;
  uint64_t version = 0;
  Relation relation{0};
  std::vector<TupleProbability> probabilities;
};

struct IngestRecord {
  uint64_t version = 0;
  std::vector<IngestRow> batch;
};

TEST(ServiceConcurrencyTest, ReadersSeeConsistentSnapshotsUnderIngestion) {
  constexpr int kWriters = 2;
  constexpr int kBatchesPerWriter = 6;
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 24;

  IncDbService service(SeedDb());
  const std::vector<QueryRequest> requests = AllNotionRequests();
  ExpectOneDictionary(*service.CurrentSnapshot());

  std::mutex log_mu;
  std::vector<IngestRecord> ingest_log;
  std::vector<std::vector<Observation>> reader_logs(kReaders);
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&service, &log_mu, &ingest_log, &failed, w] {
      Session session = service.OpenSession();
      for (int k = 0; k < kBatchesPerWriter; ++k) {
        // Complete tuples only: the single seed null keeps the world space
        // constant-sized while the instance (and its adom) grows.
        const int64_t base = 100 + 10 * w + k;
        std::vector<IngestRow> batch = {
            {"R", Tuple{Value::Int(base), Value::Int(5)}},
            {"S", Tuple{Value::Int(base), Value::Int(6)}},
        };
        auto version = session.Ingest(batch);
        if (!version.ok()) {
          failed = true;
          return;
        }
        std::lock_guard<std::mutex> lock(log_mu);
        ingest_log.push_back({*version, std::move(batch)});
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&service, &requests, &reader_logs, &failed, r] {
      Session session = service.OpenSession();
      uint64_t last_version = 0;
      for (int i = 0; i < kQueriesPerReader; ++i) {
        const size_t qi = (r + i) % requests.size();
        auto resp = session.Run(requests[qi]);
        if (!resp.ok()) {
          ADD_FAILURE() << "reader " << r << ": "
                        << resp.status().ToString();
          failed = true;
          return;
        }
        // Snapshot versions are monotone within a session's timeline.
        if (resp->snapshot_version < last_version) {
          ADD_FAILURE() << "version went backwards: " << last_version
                        << " -> " << resp->snapshot_version;
          failed = true;
          return;
        }
        last_version = resp->snapshot_version;
        Observation obs;
        obs.request_index = qi;
        obs.version = resp->snapshot_version;
        obs.relation = resp->response.relation;
        obs.probabilities = resp->response.probabilities;
        reader_logs[r].push_back(std::move(obs));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed);
  ASSERT_EQ(ingest_log.size(),
            static_cast<size_t>(kWriters * kBatchesPerWriter));

  // Serial replay: reconstruct every published version by applying the
  // ingest log in version order, then re-answer each observation directly
  // through the engine. Bit-identical answers at every version mean no
  // reader ever saw a torn or stale-mixed state.
  std::sort(ingest_log.begin(), ingest_log.end(),
            [](const IngestRecord& a, const IngestRecord& b) {
              return a.version < b.version;
            });
  std::map<uint64_t, Database> db_at;
  Database current = SeedDb();
  db_at.emplace(1, current);
  uint64_t expected_version = 2;
  for (const IngestRecord& rec : ingest_log) {
    // Publishes are serialized, so versions are exactly 2..N+1.
    ASSERT_EQ(rec.version, expected_version++);
    for (const IngestRow& row : rec.batch) {
      current.AddTuple(row.relation, row.tuple);
    }
    db_at.emplace(rec.version, current);
  }

  for (int r = 0; r < kReaders; ++r) {
    for (const Observation& obs : reader_logs[r]) {
      auto it = db_at.find(obs.version);
      ASSERT_NE(it, db_at.end()) << "unpublished version " << obs.version;
      const QueryEngine engine(it->second);
      auto replay = engine.Run(requests[obs.request_index]);
      ASSERT_TRUE(replay.ok()) << replay.status().ToString();
      EXPECT_EQ(obs.relation, replay->relation)
          << "reader " << r << " at version " << obs.version << " request "
          << obs.request_index;
      ASSERT_EQ(obs.probabilities.size(), replay->probabilities.size());
      for (size_t i = 0; i < obs.probabilities.size(); ++i) {
        EXPECT_EQ(obs.probabilities[i].tuple, replay->probabilities[i].tuple);
        EXPECT_EQ(obs.probabilities[i].probability,
                  replay->probabilities[i].probability);
      }
    }
  }

  // The snapshot dictionary after the concurrent ingests, after a batch of
  // values it already holds (not extended), and after a fresh null
  // (extended, and every relation translated into it).
  ExpectOneDictionary(*service.CurrentSnapshot());
  ExpectAnswersMatchAFreshDatabase(service, requests);
  const auto before = service.CurrentSnapshot();
  ASSERT_TRUE(service
                  .Ingest({{"R", Tuple{Value::Int(1), Value::Int(3)}},
                           {"S", Tuple{Value::Int(2), Value::Null(0)}}})
                  .ok());
  const auto known = service.CurrentSnapshot();
  EXPECT_EQ(known->dict(), before->dict());
  ExpectOneDictionary(*known);
  ExpectAnswersMatchAFreshDatabase(service, requests);
  const NullId fresh_null = known->db().FreshNullId();
  ASSERT_TRUE(
      service.Ingest({{"S", Tuple{Value::Int(4), Value::Null(fresh_null)}}})
          .ok());
  const auto extended = service.CurrentSnapshot();
  EXPECT_NE(extended->dict(), known->dict());
  EXPECT_EQ(extended->dict()->size(), known->dict()->size() + 2);  // ⊥, 4
  ExpectOneDictionary(*extended);
  ExpectAnswersMatchAFreshDatabase(service, requests);
}

// Sessions hitting one cached columnar answer each copy it and then read
// and write its rows at once: the copies build their tuples on their own
// storage and never write the cache entry (TSan checks this in CI).
TEST(ServiceConcurrencyTest, SessionsReadOneCachedColumnarAnswerConcurrently) {
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 20;
  ServiceLimits limits;
  limits.plan_cache_capacity = 8;
  IncDbService service(SeedDb(), limits);
  QueryRequest req =
      QueryRequestBuilder(QueryInput::RaText("R U S")).Build();
  req.eval.num_threads = 1;
  auto first = service.Run(req);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->cache_hit);
  ASSERT_NE(first->response.relation.ColumnarIfBuilt(), nullptr);
  const Relation expected = FreshCopy(service.CurrentSnapshot()->db())
                                .GetRelation("R");
  std::string expected_rows;
  for (const Tuple& t : first->response.relation.tuples()) {
    expected_rows += "| " + t.ToString() + "\n";
  }

  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      Session session = service.OpenSession();
      for (int i = 0; i < kReadsPerReader; ++i) {
        auto resp = session.Run(req);
        if (!resp.ok()) {
          ADD_FAILURE() << resp.status().ToString();
          return;
        }
        if (resp->cache_hit) ++hits;
        const Relation& answer = resp->response.relation;
        std::string rows;
        AppendRows(answer, &rows);
        EXPECT_EQ(rows, expected_rows);
        EXPECT_EQ(answer.size(), first->response.relation.size());
        EXPECT_EQ(answer.ToString(), first->response.relation.ToString());
        for (const Tuple& t : expected.tuples()) {
          EXPECT_TRUE(answer.Contains(t)) << t.ToString();
        }
        EXPECT_EQ(answer.tuples(), first->response.relation.tuples());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hits.load(), kReaders * kReadsPerReader);
}

// Hammering a max_in_flight=1 service from many threads must only ever
// produce correct answers or clean overload rejections, and the admission
// counters must account for every call.
TEST(ServiceConcurrencyTest, OverloadRejectsCleanlyUnderContention) {
  ServiceLimits limits;
  limits.max_in_flight = 1;
  limits.plan_cache_capacity = 0;  // force real evaluations
  IncDbService service(SeedDb(), limits);
  const QueryRequest req = QueryRequestBuilder(QueryInput::RaText("R U S"))
                               .Notion(AnswerNotion::kNaive)
                               .Build();
  const QueryEngine reference_engine(service.CurrentSnapshot()->db());
  auto reference = reference_engine.Run(req);
  ASSERT_TRUE(reference.ok());

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::atomic<uint64_t> ok_calls{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<bool> wrong{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Session session = service.OpenSession();
      for (int i = 0; i < kCallsPerThread; ++i) {
        auto resp = session.Run(req);
        if (resp.ok()) {
          ++ok_calls;
          if (resp->response.relation != reference->relation) wrong = true;
        } else if (resp.status().code() == StatusCode::kResourceExhausted) {
          ++rejected;
        } else {
          wrong = true;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(wrong);
  EXPECT_EQ(ok_calls + rejected, kThreads * kCallsPerThread);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queries, ok_calls);
  EXPECT_EQ(stats.rejected_overload, rejected);
}

TEST(ServiceConcurrencyTest, WorldBudgetIsClampedToTheServiceLimit) {
  ServiceLimits limits;
  limits.max_worlds_per_query = 2;  // far below the seed's world count
  IncDbService service(SeedDb(), limits);
  Session session = service.OpenSession();
  auto resp = session.Run(QueryRequestBuilder(QueryInput::RaText("R"))
                              .Notion(AnswerNotion::kCertainEnum)
                              .Build());
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kResourceExhausted);
}

TEST(ServiceConcurrencyTest, RowBudgetRejectsOversizedResults) {
  ServiceLimits limits;
  limits.max_result_rows = 1;
  IncDbService service(SeedDb(), limits);
  Session session = service.OpenSession();
  auto resp = session.Run(QueryRequestBuilder(QueryInput::RaText("R U S"))
                              .Notion(AnswerNotion::kNaive)
                              .Build());
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.Stats().rejected_budget, 1u);
}

TEST(ServiceConcurrencyTest, IngestValidatesArityBeforePublishing) {
  IncDbService service(SeedDb());
  Session session = service.OpenSession();
  const uint64_t before = service.SnapshotVersion();
  auto bad = session.Ingest({
      {"R", Tuple{Value::Int(1), Value::Int(2)}},
      {"S", Tuple{Value::Int(1)}},  // wrong arity — whole batch must fail
  });
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.SnapshotVersion(), before);
  EXPECT_FALSE(service.CurrentSnapshot()->db().GetRelation("R").Contains(
      Tuple{Value::Int(1), Value::Int(2)}));
}

TEST(ServiceConcurrencyTest, ReplaceSwapsTheWholeInstance) {
  IncDbService service(SeedDb());
  Session session = service.OpenSession();
  ASSERT_TRUE(session.Run(QueryRequestBuilder(QueryInput::RaText("R"))
                              .Notion(AnswerNotion::kNaive)
                              .Build())
                  .ok());
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("T", {"x"}).ok());
  Database next(schema);
  next.AddTuple("T", Tuple{Value::Int(42)});
  auto version = service.Replace(std::move(next));
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 2u);
  auto resp = session.Run(QueryRequestBuilder(QueryInput::RaText("T"))
                              .Notion(AnswerNotion::kNaive)
                              .Build());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->response.relation.Contains(Tuple{Value::Int(42)}));
}

}  // namespace
}  // namespace incdb
