#include "core/possible_worlds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "util/thread_pool.h"

namespace incdb {
namespace {

TEST(WorldDomainTest, FreshConstantsDefaultToNullCount) {
  Database d;
  d.AddTuple("R", Tuple{Value::Int(5), Value::Null(0)});
  d.AddTuple("R", Tuple{Value::Null(1), Value::Null(2)});
  WorldEnumOptions opts;
  auto domain = WorldDomain(d, opts);
  // {5} ∪ {6,7,8}
  EXPECT_EQ(domain.size(), 4u);
  EXPECT_EQ(CountWorldsCwa(d, opts), 64u);  // 4^3
}

TEST(WorldDomainTest, ALoneNullWithoutConstantsGetsTwoFreshConstants) {
  // With the domain {1} the null's only world would hold 1; a second fresh
  // constant gives it a world without 1. An explicit count stays as given.
  Database d;
  d.AddTuple("R", Tuple{Value::Null(0)});
  WorldEnumOptions opts;
  EXPECT_EQ(WorldDomain(d, opts),
            (std::vector<Value>{Value::Int(1), Value::Int(2)}));
  opts.fresh_constants = 1;
  EXPECT_EQ(WorldDomain(d, opts), std::vector<Value>{Value::Int(1)});
  // A constant of D or of the query is the world that avoids the fresh one.
  WorldEnumOptions with_constant;
  with_constant.required_constants = {Value::Int(7)};
  EXPECT_EQ(WorldDomain(d, with_constant),
            (std::vector<Value>{Value::Int(7), Value::Int(8)}));
}

TEST(WorldDomainTest, RequiredConstantsIncluded) {
  Database d;
  d.AddTuple("R", Tuple{Value::Null(0)});
  WorldEnumOptions opts;
  opts.fresh_constants = 0;
  opts.required_constants = {Value::Int(42)};
  auto domain = WorldDomain(d, opts);
  ASSERT_EQ(domain.size(), 1u);
  EXPECT_EQ(domain[0], Value::Int(42));
}

TEST(WorldDomainTest, FreshConstantsNeverOverflowPastInt64Max) {
  // max + 1 would wrap onto INT64_MIN, which is already in the domain; the
  // two nulls still need two fresh constants, distinct from each other and
  // from every constant of D.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  Database d;
  d.AddTuple("R", Tuple{Value::Int(kMax)});
  d.AddTuple("R", Tuple{Value::Int(kMin)});
  d.AddTuple("S", Tuple{Value::Null(0), Value::Null(1)});
  WorldEnumOptions opts;
  const std::vector<Value> domain = WorldDomain(d, opts);
  ASSERT_EQ(domain.size(), 4u);
  EXPECT_EQ(std::set<Value>(domain.begin(), domain.end()).size(), 4u);
  EXPECT_EQ(std::count(domain.begin(), domain.end(), Value::Int(kMax)), 1);
  EXPECT_EQ(std::count(domain.begin(), domain.end(), Value::Int(kMin)), 1);
  EXPECT_EQ(CountWorldsCwa(d, opts), 16u);  // 4^2
}

TEST(ForEachWorldTest, EnumeratesAllValuations) {
  Database d;
  d.AddTuple("R", Tuple{Value::Null(0), Value::Null(1)});
  WorldEnumOptions opts;
  opts.fresh_constants = 2;  // domain = {fresh1, fresh2}
  size_t count = 0;
  std::set<std::string> distinct;
  Status st = ForEachWorldCwa(d, opts, [&](const Database& w) {
    ++count;
    EXPECT_TRUE(w.IsComplete());
    distinct.insert(w.ToString());
    return true;
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(count, 4u);       // 2^2 valuations
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(ForEachWorldTest, CompleteDbHasExactlyOneWorld) {
  Database d;
  d.AddTuple("R", Tuple{Value::Int(1)});
  size_t count = 0;
  Status st = ForEachWorldCwa(d, {}, [&](const Database& w) {
    ++count;
    EXPECT_EQ(w, d);
    return true;
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(count, 1u);
}

TEST(ForEachWorldTest, EarlyStop) {
  Database d;
  d.AddTuple("R", Tuple{Value::Null(0)});
  WorldEnumOptions opts;
  opts.fresh_constants = 5;
  size_t count = 0;
  Status st = ForEachWorldCwa(d, opts, [&](const Database&) {
    ++count;
    return count < 2;
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(count, 2u);
}

TEST(ForEachWorldTest, MaxWorldsGuard) {
  Database d;
  for (NullId i = 0; i < 10; ++i) {
    d.AddTuple("R", Tuple{Value::Null(i)});
  }
  WorldEnumOptions opts;
  opts.max_worlds = 100;
  Status st = ForEachWorldCwa(d, opts, [&](const Database&) { return true; });
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(ForEachWorldOwaBoundedTest, AddsCandidateSubsets) {
  Database d;
  d.AddTuple("R", Tuple{Value::Null(0)});
  WorldEnumOptions opts;
  opts.fresh_constants = 1;  // single valuation
  std::vector<std::pair<std::string, Tuple>> extra = {
      {"R", Tuple{Value::Int(100)}},
      {"S", Tuple{Value::Int(200)}},
  };
  size_t count = 0;
  size_t with_s = 0;
  Status st = ForEachWorldOwaBounded(d, opts, extra, [&](const Database& w) {
    ++count;
    if (!w.GetRelation("S").empty()) ++with_s;
    return true;
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(count, 4u);   // 1 valuation × 2^2 subsets
  EXPECT_EQ(with_s, 2u);
}

// A small instance with three nulls across two relations so the Gray
// chains have a non-trivial valuation space (domain 5, 125 worlds).
Database ThreeNullDb() {
  Database d;
  d.AddTuple("R", Tuple{Value::Int(1), Value::Null(0)});
  d.AddTuple("R", Tuple{Value::Null(1), Value::Int(2)});
  d.AddTuple("S", Tuple{Value::Null(2)});
  return d;
}

// Applies `delta` to a copy of `v` and checks it yields `next`; the Gray
// drivers promise every consecutive pair differs in exactly that one null.
void ExpectDeltaConnects(const Valuation& prev, const ValuationDelta& delta,
                         const Valuation& next, const WorldSpace& space) {
  // The indices name the same step within the world space walked.
  ASSERT_LT(delta.null_index, space.nulls.size());
  ASSERT_LT(delta.old_index, space.domain.size());
  ASSERT_LT(delta.new_index, space.domain.size());
  EXPECT_EQ(space.nulls[delta.null_index], delta.null_id);
  EXPECT_EQ(space.domain[delta.old_index], delta.old_value);
  EXPECT_EQ(space.domain[delta.new_index], delta.new_value);
  ASSERT_TRUE(prev.IsBound(delta.null_id));
  EXPECT_EQ(prev.Lookup(delta.null_id), delta.old_value);
  EXPECT_NE(delta.old_value, delta.new_value);
  Valuation patched = prev;
  patched.Bind(delta.null_id, delta.new_value);
  EXPECT_EQ(patched.ToString(), next.ToString());
}

TEST(GrayWorldEnumTest, VisitsTheSerialValuationMultisetOneStepApart) {
  Database d = ThreeNullDb();
  WorldEnumOptions opts;
  const WorldSpace space = MakeWorldSpace(d, opts);
  const std::set<NullId> nulls = d.Nulls();
  EXPECT_EQ(space.nulls, std::vector<NullId>(nulls.begin(), nulls.end()));
  EXPECT_EQ(space.domain, WorldDomain(d, opts));
  EXPECT_EQ(space.Count(), CountWorldsCwa(d, opts));
  // ForEachValuation is the serial Gray chain, so its valuations must be
  // all CountWorldsCwa of them, each once.
  std::set<std::string> plain;
  size_t plain_calls = 0;
  ASSERT_TRUE(ForEachValuation(d, opts, [&](const Valuation& v) {
                plain.insert(v.ToString());
                ++plain_calls;
                return true;
              }).ok());
  EXPECT_EQ(plain_calls, CountWorldsCwa(d, opts));
  EXPECT_EQ(plain.size(), plain_calls);

  std::vector<std::string> gray;
  Valuation prev;
  size_t chain_starts = 0;
  Status st = ForEachValuationGrayParallel(
      d, opts, /*num_threads=*/1,
      [&](const Valuation& v, const ValuationDelta& delta, size_t worker) {
        EXPECT_EQ(worker, 0u);
        gray.push_back(v.ToString());
        if (delta.has_delta) {
          ExpectDeltaConnects(prev, delta, v, space);
        } else {
          ++chain_starts;
        }
        prev = v;
        return true;
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Exactly the same valuation set, each visited once, one chain, and every
  // step a single-null delta.
  EXPECT_EQ(gray.size(), plain_calls);
  EXPECT_EQ(std::set<std::string>(gray.begin(), gray.end()), plain);
  EXPECT_EQ(chain_starts, 1u);
}

TEST(GrayWorldEnumTest, ParallelChainsCoverTheSerialSetOneStartPerWorker) {
  Database d = ThreeNullDb();
  WorldEnumOptions opts;
  const WorldSpace space = MakeWorldSpace(d, opts);
  std::multiset<std::string> serial;
  ASSERT_TRUE(ForEachValuation(d, opts, [&](const Valuation& v) {
                serial.insert(v.ToString());
                return true;
              }).ok());

  for (int threads : {2, 4, 7}) {
    std::mutex mu;
    std::multiset<std::string> gray;
    // Per-worker chain state, written without locks (per-worker sequencing).
    std::vector<Valuation> prev(64);
    std::vector<size_t> starts(64, 0);
    Status st = ForEachValuationGrayParallel(
        d, opts, threads,
        [&](const Valuation& v, const ValuationDelta& delta, size_t worker) {
          EXPECT_LT(worker, prev.size());
          if (delta.has_delta) {
            ExpectDeltaConnects(prev[worker], delta, v, space);
          } else {
            ++starts[worker];
          }
          prev[worker] = v;
          std::lock_guard<std::mutex> lock(mu);
          gray.insert(v.ToString());
          return true;
        });
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(gray, serial) << threads << " threads";
    // ONE continuous Gray chain per worker: every worker that ran saw
    // exactly one has_delta == false callback.
    for (size_t c : starts) EXPECT_LE(c, 1u) << threads << " threads";
  }
}

TEST(GrayWorldEnumTest, WorkerIndicesAreDenseAndSequencedPerWorker) {
  Database d = ThreeNullDb();
  WorldEnumOptions opts;
  for (int threads : {2, 4, 7}) {
    const size_t chunks = ParallelChunkCount(
        threads, WorldDomain(d, opts).size(), /*grain=*/1);
    // Per-worker counters, written without locks: the contract says
    // invocations sharing a worker index never overlap.
    std::vector<size_t> per_worker(chunks, 0);
    std::atomic<size_t> total{0};
    std::atomic<bool> out_of_range{false};
    Status st = ForEachValuationGrayParallel(
        d, opts, threads,
        [&](const Valuation&, const ValuationDelta&, size_t worker) {
          if (worker >= per_worker.size()) {
            out_of_range.store(true);
            return false;
          }
          ++per_worker[worker];
          total.fetch_add(1);
          return true;
        });
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_FALSE(out_of_range.load()) << threads << " threads";
    EXPECT_EQ(total.load(), CountWorldsCwa(d, opts)) << threads << " threads";
    size_t summed = 0;
    for (size_t c : per_worker) {
      EXPECT_GT(c, 0u) << threads << " threads";  // dense: every index ran
      summed += c;
    }
    EXPECT_EQ(summed, total.load()) << threads << " threads";
  }
}

TEST(GrayWorldEnumTest, SharesTheWorldBudgetAndPropagatesEarlyExit) {
  Database d = ThreeNullDb();  // 125 worlds
  WorldEnumOptions opts;
  opts.max_worlds = 10;

  uint64_t serial_calls = 0;
  Status serial = ForEachValuation(d, opts, [&](const Valuation&) {
    ++serial_calls;
    return true;
  });
  EXPECT_EQ(serial.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(serial_calls, opts.max_worlds);

  for (int threads : {2, 4, 7}) {
    std::atomic<uint64_t> parallel_calls{0};
    Status parallel = ForEachValuationGrayParallel(
        d, opts, threads, [&](const Valuation&, const ValuationDelta&, size_t) {
          parallel_calls.fetch_add(1);
          return true;
        });
    // One shared atomic budget across all chains: exactly as many callback
    // invocations as the serial chain before reporting exhaustion.
    EXPECT_EQ(parallel.code(), StatusCode::kResourceExhausted)
        << threads << " threads: " << parallel.ToString();
    EXPECT_EQ(parallel_calls.load(), opts.max_worlds) << threads << " threads";
  }

  // Early exit: false stops everything with OK, before the space is done.
  WorldEnumOptions unbounded;
  std::atomic<uint64_t> calls{0};
  Status st = ForEachValuationGrayParallel(
      d, unbounded, 4, [&](const Valuation&, const ValuationDelta&, size_t) {
        calls.fetch_add(1);
        return false;
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_LT(calls.load(), CountWorldsCwa(d, unbounded));
}

TEST(GrayWorldEnumTest, NoNullsYieldOneDeltalessWorld) {
  // A complete database has one world regardless of the thread count.
  Database complete;
  complete.AddTuple("R", Tuple{Value::Int(1)});
  for (int threads : {1, 8}) {
    size_t count = 0;
    ASSERT_TRUE(ForEachValuationGrayParallel(
                    complete, {}, threads,
                    [&](const Valuation& v, const ValuationDelta& delta,
                        size_t worker) {
                      EXPECT_EQ(v.size(), 0u);
                      EXPECT_FALSE(delta.has_delta);
                      EXPECT_EQ(worker, 0u);
                      ++count;
                      return true;
                    })
                    .ok());
    EXPECT_EQ(count, 1u) << threads << " threads";
  }
}

TEST(ForEachWorldOwaBoundedTest, RejectsNullCandidates) {
  Database d;
  d.AddTuple("R", Tuple{Value::Int(1)});
  std::vector<std::pair<std::string, Tuple>> extra = {
      {"R", Tuple{Value::Null(0)}}};
  EXPECT_DEATH(
      {
        (void)ForEachWorldOwaBounded(d, {}, extra,
                                     [](const Database&) { return true; });
      },
      "complete");
}

}  // namespace
}  // namespace incdb
