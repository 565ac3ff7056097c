// Property test for sql/aggregate_bounds: the certain interval of an
// aggregate must contain the aggregate's value in EVERY possible world of
// the column, and — for SUM/MIN/MAX over a finite null domain — must be
// exactly the range over those worlds (tightness). Columns are drawn from
// the fuzzing harness's random-database generator at small scale.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "sql/aggregate_bounds.h"
#include "util/random.h"
#include "workload/generators.h"

namespace incdb {
namespace {

// All instantiations of the column's nulls over [lo, hi], respecting shared
// nulls (the same ⊥_k gets the same value everywhere).
void ForEachColumnWorld(const std::vector<Value>& column, int64_t lo,
                        int64_t hi,
                        const std::function<void(const std::vector<int64_t>&)>& fn) {
  std::vector<NullId> nulls;
  for (const Value& v : column) {
    if (v.is_null()) {
      bool seen = false;
      for (NullId n : nulls) seen = seen || n == v.null_id();
      if (!seen) nulls.push_back(v.null_id());
    }
  }
  std::vector<int64_t> assignment(nulls.size(), lo);
  while (true) {
    std::vector<int64_t> world;
    world.reserve(column.size());
    for (const Value& v : column) {
      if (v.is_null()) {
        for (size_t i = 0; i < nulls.size(); ++i) {
          if (nulls[i] == v.null_id()) world.push_back(assignment[i]);
        }
      } else {
        world.push_back(v.as_int());
      }
    }
    fn(world);
    size_t i = 0;
    while (i < assignment.size() && assignment[i] == hi) {
      assignment[i] = lo;
      ++i;
    }
    if (i == assignment.size()) break;
    ++assignment[i];
  }
}

int64_t Aggregate(AggFunc f, const std::vector<int64_t>& world) {
  switch (f) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      // In a world the column is total, so both counts are the row count.
      return static_cast<int64_t>(world.size());
    case AggFunc::kSum: {
      int64_t s = 0;
      for (int64_t v : world) s += v;
      return s;
    }
    case AggFunc::kMin: {
      int64_t m = world[0];
      for (int64_t v : world) m = std::min(m, v);
      return m;
    }
    case AggFunc::kMax: {
      int64_t m = world[0];
      for (int64_t v : world) m = std::max(m, v);
      return m;
    }
    case AggFunc::kAvg: {
      int64_t s = 0;
      for (int64_t v : world) s += v;
      // Match the library's truncating integer average.
      return s / static_cast<int64_t>(world.size());
    }
    case AggFunc::kNone:
      break;
  }
  return 0;
}

TEST(AggregateBoundsProperty, IntervalContainsEveryWorld) {
  Rng rng(20260806);
  constexpr int64_t kLo = 0, kHi = 5;
  NullDomain domain;
  domain.value_lo = kLo;
  domain.value_hi = kHi;
  const AggFunc kFuncs[] = {AggFunc::kCountStar, AggFunc::kCount,
                            AggFunc::kSum, AggFunc::kMin, AggFunc::kMax,
                            AggFunc::kAvg};

  for (int trial = 0; trial < 200; ++trial) {
    RandomDbConfig config;
    config.arities = {1 + rng.Uniform(3)};
    config.rows_per_relation = 1 + rng.Uniform(5);
    config.domain_size = kHi + 1;  // constants stay inside the null domain
    config.null_density = 0.4;
    config.null_reuse = 0.5;
    config.max_nulls = 3;
    config.codd = rng.Bernoulli(0.3);
    Database db = MakeRandomDatabase(config, rng);

    const Relation& rel = db.relations().begin()->second;
    const size_t col_idx = rng.Uniform(rel.arity());
    std::vector<Value> column;
    for (const Tuple& t : rel.tuples()) column.push_back(t[col_idx]);
    if (column.empty()) continue;

    for (AggFunc f : kFuncs) {
      auto interval = CertainAggregateInterval(column, f, domain);
      ASSERT_TRUE(interval.ok())
          << AggFuncName(f) << ": " << interval.status().ToString();

      std::optional<int64_t> world_min, world_max;
      ForEachColumnWorld(column, kLo, kHi,
                         [&](const std::vector<int64_t>& world) {
                           const int64_t agg = Aggregate(f, world);
                           EXPECT_TRUE(interval->Contains(agg))
                               << AggFuncName(f) << " = " << agg
                               << " escapes " << interval->ToString()
                               << " in trial " << trial;
                           world_min = world_min ? std::min(*world_min, agg)
                                                : agg;
                           world_max = world_max ? std::max(*world_max, agg)
                                                : agg;
                         });
      ASSERT_TRUE(world_min.has_value());

      // Tightness: for these aggregates the bounds are achieved by some
      // world (AVG's truncation makes its bounds conservative, skip it).
      if (f == AggFunc::kSum || f == AggFunc::kMin || f == AggFunc::kMax ||
          f == AggFunc::kCountStar || f == AggFunc::kCount) {
        ASSERT_TRUE(interval->lo && interval->hi) << AggFuncName(f);
        EXPECT_EQ(*interval->lo, *world_min) << AggFuncName(f);
        EXPECT_EQ(*interval->hi, *world_max) << AggFuncName(f);
      }
    }
  }
}

TEST(AggregateBoundsProperty, SumAndAvgBoundsOutsideInt64AreErrors) {
  const Value big = Value::Int(INT64_MAX);
  auto expect_overflow = [](const Result<AggInterval>& r, const char* what) {
    ASSERT_FALSE(r.ok()) << what << " gave " << r->ToString();
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << what;
  };
  for (AggFunc f : {AggFunc::kSum, AggFunc::kAvg}) {
    // The constants alone leave int64.
    expect_overflow(CertainAggregateInterval({big, Value::Int(1)}, f),
                    "constants");
    // A null at the top of its domain pushes the upper bound out.
    NullDomain high;
    high.value_lo = 0;
    high.value_hi = INT64_MAX;
    expect_overflow(
        CertainAggregateInterval({Value::Int(1), Value::Null(0)}, f, high),
        "upper bound");
    // Three nulls at the bottom of their domain: the scaling overflows.
    NullDomain low;
    low.value_lo = INT64_MIN / 2;
    low.value_hi = 0;
    expect_overflow(
        CertainAggregateInterval(
            {Value::Null(0), Value::Null(1), Value::Null(2)}, f, low),
        "scaled lower bound");
  }

  // Bounds that reach the edge of int64 without leaving it.
  NullDomain below;
  below.value_lo = -5;
  below.value_hi = 0;
  auto edge = CertainAggregateInterval({big, Value::Null(0)}, AggFunc::kSum,
                                       below);
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(*edge->lo, INT64_MAX - 5);
  EXPECT_EQ(*edge->hi, INT64_MAX);
}

}  // namespace
}  // namespace incdb
