// E2 — naïve evaluation computes certain answers for UCQs at plain query-
// evaluation cost, while possible-world enumeration is exponential in the
// number of nulls (paper, Sections 2 and 6).

#include <benchmark/benchmark.h>

#include "bench_common.h"

using namespace incdb;

namespace {

Database DbWithNulls(size_t nulls, uint64_t seed) {
  RandomDbConfig cfg;
  cfg.arities = {2, 2};
  cfg.rows_per_relation = std::max<size_t>(4, nulls);
  // Grow the domain with the instance so join selectivity stays roughly
  // constant (output ~4 matches per row); at the world-enumeration sizes
  // (≤ 16 rows) this is the original fixed 4-value domain.
  cfg.domain_size =
      std::max<int64_t>(4, static_cast<int64_t>(cfg.rows_per_relation / 4));
  cfg.null_density = 0.0;
  cfg.seed = seed;
  Database db = MakeRandomDatabase(cfg);
  // Inject exactly `nulls` distinct marked nulls over R0's first column.
  Relation* r0 = db.MutableRelation("R0", 2);
  Relation patched(2);
  size_t injected = 0;
  for (const Tuple& t : r0->tuples()) {
    if (injected < nulls) {
      patched.Add(Tuple{Value::Null(static_cast<NullId>(injected++)), t[1]});
    } else {
      patched.Add(t);
    }
  }
  while (injected < nulls) {
    patched.Add(Tuple{Value::Null(static_cast<NullId>(injected++)),
                      Value::Int(0)});
  }
  *r0 = patched;
  return db;
}

// Join UCQ: π_{0,3}(σ_{#1=#2}(R0 × R1)) ∪ R1.
RAExprPtr JoinQuery() {
  auto join = RAExpr::Project(
      {0, 3},
      RAExpr::Select(Predicate::Eq(Term::Column(1), Term::Column(2)),
                     RAExpr::Product(RAExpr::Scan("R0"), RAExpr::Scan("R1"))));
  return RAExpr::Union(join, RAExpr::Scan("R1"));
}

struct Summary {
  Summary() {
    incdb_bench::TableHeader(
        "E2: naive evaluation vs possible-world enumeration (UCQ, CWA)",
        "both compute the same certain answers; enumeration cost is "
        "|domain|^#nulls, naive evaluation is flat",
        " #nulls     worlds   |certain|  match");
    auto q = JoinQuery();
    for (size_t nulls : {1, 2, 3, 4, 5}) {
      Database db = DbWithNulls(nulls, 7);
      WorldEnumOptions opts;
      const uint64_t worlds = CountWorldsCwa(db, opts);
      auto naive = CertainAnswersNaive(q, db, WorldSemantics::kClosedWorld);
      auto truth = CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld);
      if (!naive.ok() || !truth.ok()) continue;
      std::printf("%7zu  %9llu  %10zu  %5s\n", nulls,
                  static_cast<unsigned long long>(worlds), truth->size(),
                  (*naive == *truth) ? "yes" : "NO");
    }
    incdb_bench::TableFooter();
  }
};
const Summary kSummary;

void RunNaiveEvaluation(benchmark::State& state, bool use_hash_kernels) {
  Database db = DbWithNulls(static_cast<size_t>(state.range(0)), 7);
  auto q = JoinQuery();
  EvalStats stats;
  EvalOptions options;
  options.stats = &stats;
  options.use_hash_kernels = use_hash_kernels;
  for (auto _ : state) {
    auto r = CertainAnswersNaive(q, db, WorldSemantics::kClosedWorld,
                                 /*force=*/false, options);
    benchmark::DoNotOptimize(r);
  }
  incdb_bench::ReportEvalStats(state, stats);
}

void BM_NaiveEvaluation(benchmark::State& state) {
  RunNaiveEvaluation(state, /*use_hash_kernels=*/true);
}
// rows per relation = max(4, #nulls): past 12 the argument mostly scales
// the data so the join-kernel asymptotics show.
BENCHMARK(BM_NaiveEvaluation)->DenseRange(2, 12, 2)->Arg(32)->Arg(64)->Arg(
    128);

// The pre-kernel implementation (materialized product + filter), kept
// runnable so speedups are attributable: compare probes/tuples_in between
// the two variants at equal args.
void BM_NaiveEvaluationNestedLoop(benchmark::State& state) {
  RunNaiveEvaluation(state, /*use_hash_kernels=*/false);
}
BENCHMARK(BM_NaiveEvaluationNestedLoop)
    ->DenseRange(2, 12, 2)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128);

void BM_WorldEnumeration(benchmark::State& state) {
  Database db = DbWithNulls(static_cast<size_t>(state.range(0)), 7);
  auto q = JoinQuery();
  EvalStats stats;
  EvalOptions options;
  options.stats = &stats;
  for (auto _ : state) {
    auto r = CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld, {},
                                options);
    benchmark::DoNotOptimize(r);
  }
  incdb_bench::ReportEvalStats(state, stats);
}
// 5 nulls over a ~9-value domain is already ~6e4 worlds per evaluation;
// the curve is exponential, so stop there.
BENCHMARK(BM_WorldEnumeration)->DenseRange(2, 5, 1)->Unit(
    benchmark::kMillisecond);

// Thread sweep over the parallel enumeration driver: same instance and
// query at num_threads ∈ {1, 2, 4, 8}. "speedup" compares this run's mean
// iteration against a serial baseline timed just before the loop; on a
// single-core host it stays near 1 while still exercising the parallel
// splitting, budgeting, and merge paths.
void BM_WorldEnumerationThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Database db = DbWithNulls(4, 7);
  auto q = JoinQuery();
  EvalOptions serial;
  serial.num_threads = 1;
  const double serial_seconds = incdb_bench::SecondsOf([&] {
    benchmark::DoNotOptimize(
        CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld, {}, serial));
  });
  EvalOptions options;
  options.num_threads = threads;
  double total_seconds = 0;
  for (auto _ : state) {
    total_seconds += incdb_bench::SecondsOf([&] {
      benchmark::DoNotOptimize(CertainAnswersEnum(
          q, db, WorldSemantics::kClosedWorld, {}, options));
    });
  }
  incdb_bench::ReportThreadScaling(
      state, threads, serial_seconds,
      total_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_WorldEnumerationThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Optimizer/subplan-cache sweep: a 5-row null-carrying probe side (R0, two
// marked nulls) equi-joined on both columns against a 1024-row complete
// build side (R1, the full 32×32 grid — so each probe matches exactly one
// row and the join output stays tiny). Per world the uncached plan rebuilds
// R1's join hash table (~|R1| inserts); with the cache the complete scan is
// spliced once as a literal carrying a prebuilt column index, leaving only
// the |R0|-row probe. The complete row (1, 2) of R0 always matches, so the
// running intersection never empties and every world is actually evaluated.
Database AsymmetricJoinDb() {
  Database db;
  Relation* r0 = db.MutableRelation("R0", 2);
  r0->Add(Tuple{Value::Int(1), Value::Int(2)});
  r0->Add(Tuple{Value::Int(3), Value::Int(4)});
  r0->Add(Tuple{Value::Int(5), Value::Int(31)});
  r0->Add(Tuple{Value::Null(0), Value::Int(7)});
  r0->Add(Tuple{Value::Int(6), Value::Null(1)});
  Relation* r1 = db.MutableRelation("R1", 2);
  for (int64_t a = 0; a < 32; ++a) {
    for (int64_t b = 0; b < 32; ++b) {
      r1->Add(Tuple{Value::Int(a), Value::Int(b)});
    }
  }
  return db;
}

// args encode (optimize, cache_subplans); the "speedup" counter compares
// this run's mean iteration against a both-knobs-off baseline.
void BM_WorldEnumerationOptCache(benchmark::State& state) {
  const bool optimize = state.range(0) != 0;
  const bool cache = state.range(1) != 0;
  Database db = AsymmetricJoinDb();
  auto q = RAExpr::Project(
      {0, 1},
      RAExpr::Select(
          Predicate::And(Predicate::Eq(Term::Column(0), Term::Column(2)),
                         Predicate::Eq(Term::Column(1), Term::Column(3))),
          RAExpr::Product(RAExpr::Scan("R0"), RAExpr::Scan("R1"))));
  EvalOptions off;
  off.optimize = false;
  off.cache_subplans = false;
  off.num_threads = 1;
  auto run_off = [&] {
    benchmark::DoNotOptimize(
        CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld, {}, off));
  };
  run_off();  // warm the lazy canonicalization before timing the baseline
  const double off_seconds = incdb_bench::SecondsOf(run_off);
  EvalStats stats;
  EvalOptions options;
  options.stats = &stats;
  options.optimize = optimize;
  options.cache_subplans = cache;
  options.num_threads = 1;
  double total_seconds = 0;
  for (auto _ : state) {
    total_seconds += incdb_bench::SecondsOf([&] {
      benchmark::DoNotOptimize(
          CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld, {},
                             options));
    });
  }
  incdb_bench::ReportOptCacheSweep(
      state, optimize, cache, stats, off_seconds,
      total_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_WorldEnumerationOptCache)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

// Delta-eval sweep: the same asymmetric equi-join shape, but with a 200-row
// null-carrying probe side. Even with the optimizer and subplan cache on,
// the classic driver re-probes all ~200 R0 rows in every world; the
// differential path re-derives only the single tuple whose null changed.
// Two marked nulls over the 32-value domain give 34² worlds per iteration.
Database DeltaJoinDb() {
  Database db;
  Relation* r0 = db.MutableRelation("R0", 2);
  for (int64_t i = 0; i < 200; ++i) {
    // (i mod 32, 5·(i div 32) mod 32): 200 distinct grid points.
    r0->Add(Tuple{Value::Int(i % 32), Value::Int((i / 32) * 5 % 32)});
  }
  r0->Add(Tuple{Value::Null(0), Value::Int(3)});
  r0->Add(Tuple{Value::Int(6), Value::Null(1)});
  Relation* r1 = db.MutableRelation("R1", 2);
  for (int64_t a = 0; a < 32; ++a) {
    for (int64_t b = 0; b < 32; ++b) {
      r1->Add(Tuple{Value::Int(a), Value::Int(b)});
    }
  }
  return db;
}

// arg encodes delta_eval on/off; the "speedup" counter compares this run's
// mean iteration against a delta-off baseline (optimizer + cache still on)
// timed inline just before the loop.
void BM_WorldEnumerationDelta(benchmark::State& state) {
  const bool delta = state.range(0) != 0;
  Database db = DeltaJoinDb();
  auto q = RAExpr::Project(
      {0, 1},
      RAExpr::Select(
          Predicate::And(Predicate::Eq(Term::Column(0), Term::Column(2)),
                         Predicate::Eq(Term::Column(1), Term::Column(3))),
          RAExpr::Product(RAExpr::Scan("R0"), RAExpr::Scan("R1"))));
  EvalOptions off;
  off.delta_eval = false;
  off.num_threads = 1;
  auto run_off = [&] {
    benchmark::DoNotOptimize(
        CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld, {}, off));
  };
  run_off();  // warm the lazy canonicalization before timing the baseline
  const double off_seconds = incdb_bench::SecondsOf(run_off);
  EvalStats stats;
  EvalOptions options;
  options.stats = &stats;
  options.delta_eval = delta;
  options.num_threads = 1;
  double total_seconds = 0;
  for (auto _ : state) {
    total_seconds += incdb_bench::SecondsOf([&] {
      benchmark::DoNotOptimize(
          CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld, {},
                             options));
    });
  }
  state.SetLabel("nulls=" + std::to_string(db.Nulls().size()));
  incdb_bench::ReportDeltaSweep(
      state, delta, stats, off_seconds,
      total_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_WorldEnumerationDelta)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

// Backend sweep through the QueryEngine facade: the same certain-answer
// request on Backend::kEnumeration vs Backend::kCTable at increasing null
// counts. args encode (ctable, #nulls); the "speedup" counter compares this
// run's mean iteration against an enumeration-backend baseline timed inline
// just before the loop, so the ctable=1 rows show how far the conditional-
// algebra pipeline pulls ahead as |domain|^#nulls grows.
void BM_CertainBackendSweep(benchmark::State& state) {
  const bool ctable = state.range(0) != 0;
  const size_t nulls = static_cast<size_t>(state.range(1));
  Database db = DbWithNulls(nulls, 7);
  QueryEngine engine(db);
  const QueryRequest enum_req =
      QueryRequestBuilder(QueryInput::Ra(JoinQuery()))
          .Notion(AnswerNotion::kCertainEnum)
          .OnBackend(Backend::kEnumeration)
          .Build();
  const double enum_seconds = incdb_bench::SecondsOf(
      [&] { benchmark::DoNotOptimize(engine.Run(enum_req)); });
  EvalStats stats;
  EvalOptions options;
  options.stats = &stats;
  QueryRequest req = QueryRequestBuilder(QueryInput::Ra(JoinQuery()))
                         .Notion(AnswerNotion::kCertainEnum)
                         .OnBackend(ctable ? Backend::kCTable
                                           : Backend::kEnumeration)
                         .Eval(options)
                         .Build();
  double total_seconds = 0;
  for (auto _ : state) {
    total_seconds += incdb_bench::SecondsOf(
        [&] { benchmark::DoNotOptimize(engine.Run(req)); });
  }
  incdb_bench::ReportBackendSweep(
      state, ctable, stats, enum_seconds,
      total_seconds / static_cast<double>(state.iterations()));
}
// 6 nulls over the 4-value base domain is already ~10^6 worlds per
// enumeration-backend evaluation; the c-table backend stays flat.
BENCHMARK(BM_CertainBackendSweep)
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 6})
    ->Args({1, 6})
    ->Unit(benchmark::kMillisecond);

// Sampling sweep for the probabilistic notion at 20 nulls — far beyond the
// exact-enumeration gate (|domain|^20 worlds), so the enumeration backend
// Monte-Carlo samples. args encode (samples, threads); the `ci_width`
// counter shows the precision bought per sample budget (halving per 4×
// samples) and the thread rows show the sampler's scaling at a fixed
// budget. Tallies are bit-identical across the thread rows by design.
void BM_SamplingSweep(benchmark::State& state) {
  const uint64_t samples = static_cast<uint64_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  Database db = DbWithNulls(20, 7);
  QueryEngine engine(db);
  EvalStats stats;
  EvalOptions options;
  options.stats = &stats;
  ProbabilisticOptions popts;
  popts.sampling.samples = samples;
  popts.sampling.num_threads = threads;
  const QueryRequest req =
      QueryRequestBuilder(QueryInput::Ra(JoinQuery()))
          .Notion(AnswerNotion::kCertainWithProbability)
          .OnBackend(Backend::kEnumeration)
          .Probability(popts)
          .Eval(options)
          .Build();
  double ci_width = 0;
  for (auto _ : state) {
    auto r = engine.Run(req);
    benchmark::DoNotOptimize(r);
    if (r.ok() && !r->probabilities.empty()) {
      double w = 0;
      for (const TupleProbability& p : r->probabilities) {
        w += p.ci_high - p.ci_low;
      }
      ci_width = w / static_cast<double>(r->probabilities.size());
    }
  }
  incdb_bench::ReportSamplingSweep(state, samples, threads, ci_width, stats);
}
BENCHMARK(BM_SamplingSweep)
    ->Args({1'000, 1})
    ->Args({4'000, 1})
    ->Args({16'000, 1})
    ->Args({16'000, 4})
    ->Unit(benchmark::kMillisecond);

// The same 20-null instance answered *exactly* on the c-table backend:
// independence factoring counts satisfying valuations per candidate
// without enumerating the |domain|^20 world space. This is the acceptance
// row for the counting layer — compare against BM_WorldEnumeration at far
// smaller null counts.
void BM_SamplingExactCTable(benchmark::State& state) {
  Database db = DbWithNulls(static_cast<size_t>(state.range(0)), 7);
  QueryEngine engine(db);
  EvalStats stats;
  EvalOptions options;
  options.stats = &stats;
  const QueryRequest req =
      QueryRequestBuilder(QueryInput::Ra(JoinQuery()))
          .Notion(AnswerNotion::kCertainWithProbability)
          .OnBackend(Backend::kCTable)
          .Eval(options)
          .Build();
  for (auto _ : state) {
    auto r = engine.Run(req);
    benchmark::DoNotOptimize(r);
  }
  incdb_bench::ReportSamplingSweep(state, 0, 1, 0.0, stats);
}
BENCHMARK(BM_SamplingExactCTable)
    ->Arg(8)
    ->Arg(14)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);

}  // namespace
