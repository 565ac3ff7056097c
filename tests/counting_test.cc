// Unit tests for the counting layer (counting/):
//
//  * WilsonInterval — bounds, containment of the point estimate, shrinkage;
//  * CountSatisfyingValuations — free nulls, independent components,
//    coupled components, budget exhaustion, saturation, and a brute-force
//    cross-check against direct odometer enumeration;
//  * SampleValuationAt — (seed, index) determinism and domain closure;
//  * SampleTupleFrequencies — thread-count bit-identity and CI coverage
//    of a known frequency;
//  * the kCertainWithProbability notion end to end through QueryEngine on
//    both backends: exact probabilities, threshold filtering, response
//    counters, and the CWA-only guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "algebra/parser.h"
#include "counting/probabilistic.h"
#include "counting/sampler.h"
#include "counting/world_count.h"
#include "core/possible_worlds.h"
#include "ctables/condition_norm.h"
#include "engine/query_engine.h"
#include "util/random.h"
#include "util/status.h"

namespace incdb {
namespace {

std::vector<Value> IntDomain(int64_t n) {
  std::vector<Value> out;
  for (int64_t i = 0; i < n; ++i) out.push_back(Value::Int(i));
  return out;
}

// Reference count: enumerate every valuation of `nulls` over `domain` with
// a plain odometer and evaluate the condition directly.
uint64_t BruteCount(const ConditionPtr& c, const std::vector<NullId>& nulls,
                    const std::vector<Value>& domain) {
  std::vector<size_t> odo(nulls.size(), 0);
  uint64_t sat = 0;
  while (true) {
    Valuation v;
    for (size_t i = 0; i < nulls.size(); ++i) v.Bind(nulls[i], domain[odo[i]]);
    if (c->EvalUnder(v)) ++sat;
    size_t i = 0;
    for (; i < odo.size(); ++i) {
      if (++odo[i] < domain.size()) break;
      odo[i] = 0;
    }
    if (i == odo.size()) break;
  }
  return sat;
}

TEST(WilsonInterval, DegenerateAndBounds) {
  const Interval empty = WilsonInterval(0, 0, 1.96);
  EXPECT_EQ(empty.low, 0.0);
  EXPECT_EQ(empty.high, 1.0);
  for (uint64_t n : {1u, 10u, 100u, 10000u}) {
    for (uint64_t k = 0; k <= n; k += std::max<uint64_t>(1, n / 7)) {
      const Interval ci = WilsonInterval(k, n, 1.96);
      const double p = static_cast<double>(k) / static_cast<double>(n);
      EXPECT_GE(ci.low, 0.0);
      EXPECT_LE(ci.high, 1.0);
      EXPECT_LE(ci.low, p + 1e-12) << k << "/" << n;
      EXPECT_GE(ci.high, p - 1e-12) << k << "/" << n;
    }
  }
}

TEST(WilsonInterval, ShrinksWithSamples) {
  double prev_width = 1.0;
  for (uint64_t n : {10u, 100u, 1000u, 100000u}) {
    const Interval ci = WilsonInterval(n / 2, n, 1.96);
    const double width = ci.high - ci.low;
    EXPECT_LT(width, prev_width);
    prev_width = width;
  }
  EXPECT_LT(prev_width, 0.02);  // 100k samples at p=0.5: ~±0.3%
}

TEST(CountSatisfyingValuations, FreeNullsAndGroundConditions) {
  ConditionNormalizer norm;
  const std::vector<NullId> nulls = {1, 2, 3};
  const std::vector<Value> domain = IntDomain(4);

  auto all = CountSatisfyingValuations(Condition::True(), nulls, domain,
                                       &norm, 1'000);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->count, 64u);  // 4^3, every null free
  EXPECT_DOUBLE_EQ(all->fraction, 1.0);
  EXPECT_FALSE(all->saturated);

  auto none = CountSatisfyingValuations(Condition::False(), nulls, domain,
                                        &norm, 1'000);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->count, 0u);
  EXPECT_DOUBLE_EQ(none->fraction, 0.0);
}

TEST(CountSatisfyingValuations, IndependentComponentsMultiply) {
  ConditionNormalizer norm;
  const std::vector<NullId> nulls = {1, 2, 3};
  const std::vector<Value> domain = IntDomain(4);
  // (x1 = 0) ∧ (x2 = 0): two single-null components, x3 free.
  const ConditionPtr c =
      Condition::And(Condition::Eq(Value::Null(1), Value::Int(0)),
                     Condition::Eq(Value::Null(2), Value::Int(0)));
  EvalStats stats;
  auto r = CountSatisfyingValuations(c, nulls, domain, &norm, 1'000, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 4u);  // 1 · 1 · 4
  EXPECT_DOUBLE_EQ(r->fraction, 1.0 / 16.0);
  // Factoring enumerated 4 + 4 component assignments, not 4^3.
  EXPECT_EQ(stats.worlds_counted(), 8u);
}

TEST(CountSatisfyingValuations, CoupledComponentEnumeratesJointly) {
  ConditionNormalizer norm;
  const std::vector<NullId> nulls = {1, 2};
  const std::vector<Value> domain = IntDomain(5);
  // x1 = x2 couples both nulls into one component of 25 assignments.
  const ConditionPtr c = Condition::Eq(Value::Null(1), Value::Null(2));
  auto r = CountSatisfyingValuations(c, nulls, domain, &norm, 25);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 5u);
  EXPECT_DOUBLE_EQ(r->fraction, 1.0 / 5.0);

  // One unit short of the component size: the budget must trip.
  auto exhausted = CountSatisfyingValuations(c, nulls, domain, &norm, 24);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
}

TEST(CountSatisfyingValuations, SaturatesInsteadOfWrapping) {
  ConditionNormalizer norm;
  std::vector<NullId> nulls;
  for (NullId i = 1; i <= 40; ++i) nulls.push_back(i);
  const std::vector<Value> domain = IntDomain(4);  // 4^40 = 2^80 > 2^64
  auto r = CountSatisfyingValuations(Condition::True(), nulls, domain, &norm,
                                     1'000);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->saturated);
  EXPECT_EQ(r->count, UINT64_MAX);
  EXPECT_DOUBLE_EQ(r->fraction, 1.0);
}

TEST(CountSatisfyingValuations, MatchesBruteForceOnRandomConditions) {
  Rng rng(20260807);
  const std::vector<NullId> nulls = {1, 2, 3, 4};
  const std::vector<Value> domain = IntDomain(3);
  for (int iter = 0; iter < 200; ++iter) {
    // Random conjunctions of random atoms over up to 4 nulls: exercises
    // free nulls, singleton components, and multi-null coupling.
    ConditionPtr c = Condition::True();
    const int atoms = 1 + static_cast<int>(rng.Uniform(4));
    for (int a = 0; a < atoms; ++a) {
      const Value lhs = Value::Null(1 + rng.Uniform(4));
      const Value rhs = rng.Uniform(2) == 0
                            ? Value::Null(1 + rng.Uniform(4))
                            : Value::Int(static_cast<int64_t>(rng.Uniform(4)));
      ConditionPtr atom = rng.Uniform(2) == 0 ? Condition::Eq(lhs, rhs)
                                              : Condition::Neq(lhs, rhs);
      if (rng.Uniform(4) == 0) {
        atom = Condition::Or(std::move(atom),
                             Condition::Eq(Value::Null(1 + rng.Uniform(4)),
                                           Value::Int(0)));
      }
      c = Condition::And(std::move(c), std::move(atom));
    }
    ConditionNormalizer norm;
    auto r = CountSatisfyingValuations(c, nulls, domain, &norm, 100'000);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const uint64_t brute = BruteCount(c, nulls, domain);
    EXPECT_EQ(r->count, brute) << c->ToString();
    EXPECT_NEAR(r->fraction, static_cast<double>(brute) / 81.0, 1e-12)
        << c->ToString();
  }
}

TEST(SampleValuationAt, DeterministicPerSeedAndIndex) {
  const std::vector<NullId> nulls = {1, 5, 9};
  const std::vector<Value> domain = IntDomain(7);
  for (uint64_t index : {0ull, 1ull, 12345ull}) {
    const Valuation a = SampleValuationAt(nulls, domain, 42, index);
    const Valuation b = SampleValuationAt(nulls, domain, 42, index);
    for (NullId id : nulls) {
      EXPECT_EQ(a.Lookup(id), b.Lookup(id));
      EXPECT_NE(std::find(domain.begin(), domain.end(), a.Lookup(id)),
                domain.end());
    }
  }
  // Different seeds disagree somewhere over a few indices.
  bool differs = false;
  for (uint64_t index = 0; index < 8 && !differs; ++index) {
    const Valuation a = SampleValuationAt(nulls, domain, 1, index);
    const Valuation b = SampleValuationAt(nulls, domain, 2, index);
    for (NullId id : nulls) differs = differs || !(a.Lookup(id) == b.Lookup(id));
  }
  EXPECT_TRUE(differs);
}

TEST(SampleTupleFrequencies, ThreadCountBitIdentity) {
  const std::vector<NullId> nulls = {1, 2};
  const std::vector<Value> domain = IntDomain(6);
  auto per_sample = [&](const Valuation& v,
                        std::vector<Tuple>* world_tuples) -> Result<bool> {
    // Emit the pair; reject ~1/6 of samples to exercise `effective`.
    const Value& a = v.Lookup(1);
    const Value& b = v.Lookup(2);
    if (a == Value::Int(0)) return false;
    if (a == b) world_tuples->push_back(Tuple{Value::Int(1)});
    world_tuples->push_back(Tuple{Value::Int(2)});
    return true;
  };
  SamplingOptions base;
  base.samples = 20'000;
  base.seed = 9;
  SampleTally reference;
  for (int threads : {1, 2, 4, 8}) {
    SamplingOptions opts = base;
    opts.num_threads = threads;
    auto tally = SampleTupleFrequencies(nulls, domain, opts, per_sample);
    ASSERT_TRUE(tally.ok()) << tally.status().ToString();
    if (threads == 1) {
      reference = *tally;
      EXPECT_EQ(reference.samples, 20'000u);
      EXPECT_LT(reference.effective, reference.samples);
      continue;
    }
    EXPECT_EQ(tally->samples, reference.samples) << threads << " threads";
    EXPECT_EQ(tally->effective, reference.effective) << threads << " threads";
    EXPECT_EQ(tally->hits, reference.hits) << threads << " threads";
  }
  // P(x1 = x2 | x1 != 0) = 1/6: the estimate must sit inside its Wilson CI.
  const uint64_t hits = reference.hits.at(Tuple{Value::Int(1)});
  const Interval ci = WilsonInterval(hits, reference.effective, 3.89);  // z for ~1e-4
  EXPECT_LE(ci.low, 1.0 / 6.0);
  EXPECT_GE(ci.high, 1.0 / 6.0);
}

// One null over a small domain: exact probabilities are simple fractions.
Database OneNullDb() {
  Database db;
  INCDB_CHECK(db.mutable_schema()->AddRelation("R", {"a"}).ok());
  INCDB_CHECK(db.mutable_schema()->AddRelation("S", {"a"}).ok());
  db.AddTuple("R", Tuple{Value::Int(1)});
  db.AddTuple("R", Tuple{Value::Int(2)});
  db.AddTuple("S", Tuple{Value::Null(1)});
  return db;
}

TEST(ProbabilisticAnswers, ExactProbabilitiesOnBothBackends) {
  const Database db = OneNullDb();
  // R - S: the null ranges over {1, 2, fresh}; tuple (1) survives unless
  // the null is 1, so p = 2/3; likewise (2).
  for (Backend backend : {Backend::kEnumeration, Backend::kCTable}) {
    QueryEngine engine(db);
    ProbabilisticOptions popts;
    popts.threshold = 0.5;
    const QueryRequest req = QueryRequestBuilder(QueryInput::RaText("R - S"))
                                 .Notion(AnswerNotion::kCertainWithProbability)
                                 .OnBackend(backend)
                                 .Probability(popts)
                                 .Build();
    auto resp = engine.Run(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->probabilities.size(), 2u) << BackendName(backend);
    for (const TupleProbability& p : resp->probabilities) {
      EXPECT_TRUE(p.exact);
      EXPECT_NEAR(p.probability, 2.0 / 3.0, 1e-12);
      EXPECT_NEAR(p.ci_low, p.probability, 1e-12);
      EXPECT_NEAR(p.ci_high, p.probability, 1e-12);
    }
    // 2/3 ≥ 0.5: both tuples pass the threshold...
    EXPECT_EQ(resp->relation.size(), 2u);
    EXPECT_GT(resp->stats.worlds_counted(), 0u);
    EXPECT_EQ(resp->stats.samples_drawn(), 0u);
    EXPECT_GT(resp->stats.exact_count_hits(), 0u);

    // ...but not the default certain threshold of 1.0.
    const QueryRequest strict =
        QueryRequestBuilder(QueryInput::RaText("R - S"))
            .Notion(AnswerNotion::kCertainWithProbability)
            .OnBackend(backend)
            .Build();
    auto strict_resp = engine.Run(strict);
    ASSERT_TRUE(strict_resp.ok());
    EXPECT_EQ(strict_resp->relation.size(), 0u);
    EXPECT_EQ(strict_resp->probabilities.size(), 2u);
  }
}

TEST(ProbabilisticAnswers, CertainTupleHasProbabilityOne) {
  const Database db = OneNullDb();
  for (Backend backend : {Backend::kEnumeration, Backend::kCTable}) {
    QueryEngine engine(db);
    const QueryRequest req = QueryRequestBuilder(QueryInput::RaText("R"))
                                 .Notion(AnswerNotion::kCertainWithProbability)
                                 .OnBackend(backend)
                                 .Build();
    auto resp = engine.Run(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->relation.size(), 2u);
    for (const TupleProbability& p : resp->probabilities) {
      EXPECT_DOUBLE_EQ(p.probability, 1.0);
    }
  }
}

TEST(ProbabilisticAnswers, SampledPathIsSeededAndReproducible) {
  const Database db = OneNullDb();
  ProbabilisticOptions popts;
  popts.force_sampling = true;
  popts.sampling.samples = 5'000;
  popts.sampling.seed = 123;
  std::vector<std::vector<TupleProbability>> runs;
  for (int run = 0; run < 2; ++run) {
    std::vector<TupleProbability> probs;
    auto r = CertainAnswersWithProbabilityEnum(
        ParseRA("R - S").value(), db, WorldSemantics::kClosedWorld, popts, {},
        {}, &probs);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    runs.push_back(std::move(probs));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].tuple, runs[1][i].tuple);
    EXPECT_EQ(runs[0][i].probability, runs[1][i].probability);
    EXPECT_FALSE(runs[0][i].exact);
    // The exact p = 2/3 sits inside the reported CI at 5k samples.
    EXPECT_LE(runs[0][i].ci_low, 2.0 / 3.0);
    EXPECT_GE(runs[0][i].ci_high, 2.0 / 3.0);
  }
  // A different seed gives a different estimate (5k samples of p=2/3
  // landing on the same count twice is possible but vanishingly unlikely
  // for both tuples and both seeds to coincide — accept either tuple
  // differing).
  popts.sampling.seed = 124;
  std::vector<TupleProbability> other;
  auto r = CertainAnswersWithProbabilityEnum(
      ParseRA("R - S").value(), db, WorldSemantics::kClosedWorld, popts, {},
      {}, &other);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(other.size(), runs[0].size());
  bool any_diff = false;
  for (size_t i = 0; i < other.size(); ++i) {
    any_diff = any_diff || other[i].probability != runs[0][i].probability;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ProbabilisticAnswers, CwaOnlyGuard) {
  const Database db = OneNullDb();
  QueryEngine engine(db);
  QueryRequest req = QueryRequestBuilder(QueryInput::RaText("R"))
                         .Notion(AnswerNotion::kCertainWithProbability)
                         .Build();
  req.semantics = WorldSemantics::kOpenWorld;
  auto resp = engine.Run(req);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace incdb
