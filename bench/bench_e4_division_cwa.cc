// E4 — cwa-naïve evaluation works for RA_cwa: division queries over
// incomplete data at plain query-evaluation cost (paper, Section 6.2).

#include <benchmark/benchmark.h>

#include "bench_common.h"

using namespace incdb;

namespace {

// `max_nulls` bounds the number of distinct marked nulls injected so the
// enumeration ground truth stays feasible where it is used.
Database Workload(size_t employees, uint64_t seed, double null_density,
                  size_t max_nulls = SIZE_MAX) {
  DivisionConfig cfg;
  cfg.n_employees = employees;
  cfg.n_projects = 8;
  cfg.coverage = 0.2;
  cfg.assign_density = 0.5;
  cfg.seed = seed;
  Database db = MakeDivisionWorkload(cfg);
  if (null_density > 0) {
    // Replace some project values with fresh nulls.
    Rng rng(seed + 1);
    Relation* assign = db.MutableRelation("Assign", 2);
    Relation patched(2);
    NullId next = 0;
    for (const Tuple& t : assign->tuples()) {
      if (next < max_nulls && rng.Bernoulli(null_density)) {
        patched.Add(Tuple{t[0], Value::Null(next++)});
      } else {
        patched.Add(t);
      }
    }
    *assign = patched;
  }
  return db;
}

RAExprPtr Query() {
  return RAExpr::Divide(RAExpr::Scan("Assign"), RAExpr::Scan("Proj"));
}

struct Summary {
  Summary() {
    incdb_bench::TableHeader(
        "E4: division (RA_cwa) with nulls under CWA",
        "naive evaluation equals enumeration ground truth on small "
        "instances and scales to large ones",
        "   employees  nulls  |naive|  |enum|  match");
    auto q = Query();
    // Validation on small instances (enumeration feasible).
    for (size_t emp : {3, 4, 5}) {
      Database db = Workload(emp, 11, 0.3, /*max_nulls=*/4);
      auto naive = CertainAnswersNaive(q, db, WorldSemantics::kClosedWorld);
      WorldEnumOptions opts;
      opts.max_worlds = 5'000'000;
      auto truth = CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld,
                                      opts);
      if (!naive.ok()) continue;
      if (truth.ok()) {
        std::printf("%12zu  %5zu  %7zu  %6zu  %5s\n", emp, db.Nulls().size(),
                    naive->size(), truth->size(),
                    (*naive == *truth) ? "yes" : "NO");
      } else {
        std::printf("%12zu  %5zu  %7zu  %6s  %5s\n", emp, db.Nulls().size(),
                    naive->size(), "-", "skip");
      }
    }
    // Scale-out: naive only.
    for (size_t emp : {1000, 10000, 100000}) {
      Database db = Workload(emp, 11, 0.1);
      auto naive = CertainAnswersNaive(q, db, WorldSemantics::kClosedWorld);
      if (!naive.ok()) continue;
      std::printf("%12zu  %5zu  %7zu  %6s  %5s\n", emp, db.Nulls().size(),
                  naive->size(), "-", "-");
    }
    incdb_bench::TableFooter();
  }
};
const Summary kSummary;

// Times `certain(q, db, stats)`, the naïve certain answers of the division.
template <typename Certain>
void RunDivisionNaive(benchmark::State& state, Certain certain) {
  Database db = Workload(static_cast<size_t>(state.range(0)), 11, 0.1);
  auto q = Query();
  EvalStats stats;
  for (auto _ : state) {
    auto r = certain(q, db, &stats);
    benchmark::DoNotOptimize(r);
  }
  incdb_bench::ReportEvalStats(state, stats);
}

void BM_DivisionNaive(benchmark::State& state) {
  RunDivisionNaive(state, [](const RAExprPtr& q, const Database& db,
                             EvalStats* stats) {
    EvalOptions options;
    options.stats = stats;
    return CertainAnswersNaive(q, db, WorldSemantics::kClosedWorld,
                               /*force=*/false, options);
  });
}
BENCHMARK(BM_DivisionNaive)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Pre-kernel nested-loop division, kept runnable for attribution.
void BM_DivisionNestedLoop(benchmark::State& state) {
  RunDivisionNaive(state, [](const RAExprPtr& q, const Database& db,
                             EvalStats* stats) -> Result<Relation> {
    INCDB_ASSIGN_OR_RETURN(Relation naive, EvalNaiveReference(q, db, stats));
    return naive.CompletePart();
  });
}
BENCHMARK(BM_DivisionNestedLoop)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_DivisionViaExpansion(benchmark::State& state) {
  Database db = Workload(static_cast<size_t>(state.range(0)), 11, 0.1);
  auto q = RAExpr::ExpandDivision(Query(), db.schema());
  EvalStats stats;
  EvalOptions options;
  options.stats = &stats;
  for (auto _ : state) {
    auto r = EvalNaive(q, db, options);
    benchmark::DoNotOptimize(r);
  }
  incdb_bench::ReportEvalStats(state, stats);
}
BENCHMARK(BM_DivisionViaExpansion)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_DivisionEnumerationSmall(benchmark::State& state) {
  // range(0) = number of injected nulls (the exponent of the world count).
  Database db = Workload(4, 11, 0.9, static_cast<size_t>(state.range(0)));
  auto q = Query();
  for (auto _ : state) {
    auto r = CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("nulls=" + std::to_string(db.Nulls().size()));
}
BENCHMARK(BM_DivisionEnumerationSmall)->Arg(2)->Arg(3)->Arg(4)->Unit(
    benchmark::kMillisecond);

// Thread sweep over the same division ground truth: four nulls, enumerated
// at num_threads ∈ {1, 2, 4, 8}. See BM_WorldEnumerationThreads (bench_e2)
// for how "speedup" is computed.
void BM_DivisionEnumerationThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Database db = Workload(4, 11, 0.9, /*max_nulls=*/4);
  auto q = Query();
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
  state.SetLabel("nulls=" + std::to_string(db.Nulls().size()));
  incdb_bench::ReportThreadScaling(
      state, threads, serial_seconds,
      total_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_DivisionEnumerationThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Backend sweep on division (expanded to the double-difference form before
// the conditional-algebra pipeline runs). args encode (ctable, #injected
// nulls); the enumeration baseline pays |domain|^#nulls per evaluation
// while the c-table backend normalizes the expanded plan's conditions once.
// "speedup" compares this run's mean iteration against an enumeration
// baseline timed inline just before the loop.
void BM_DivisionBackendSweep(benchmark::State& state) {
  const bool ctable = state.range(0) != 0;
  Database db = Workload(4, 11, 0.9, static_cast<size_t>(state.range(1)));
  auto q = Query();
  const double enum_seconds = incdb_bench::SecondsOf([&] {
    benchmark::DoNotOptimize(
        CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld));
  });
  EvalStats stats;
  EvalOptions options;
  options.stats = &stats;
  double total_seconds = 0;
  for (auto _ : state) {
    total_seconds += incdb_bench::SecondsOf([&] {
      if (ctable) {
        benchmark::DoNotOptimize(CertainAnswersCTable(
            q, db, WorldSemantics::kClosedWorld, {}, options));
      } else {
        benchmark::DoNotOptimize(CertainAnswersEnum(
            q, db, WorldSemantics::kClosedWorld, {}, options));
      }
    });
  }
  state.SetLabel("nulls=" + std::to_string(db.Nulls().size()));
  incdb_bench::ReportBackendSweep(
      state, ctable, stats, enum_seconds,
      total_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_DivisionBackendSweep)
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 6})
    ->Args({1, 6})
    ->Unit(benchmark::kMillisecond);

// Probabilistic division at a null count far beyond exact enumeration:
// Monte-Carlo sampling on the enumeration backend, sweeping the sample
// budget and thread count. Division expands to a double difference, so the
// per-sample evaluation is the heaviest the suite samples — the thread
// rows show the sampler's scaling where it matters most. See
// BM_SamplingSweep (bench_e2) for counter semantics.
void BM_DivisionSamplingSweep(benchmark::State& state) {
  const uint64_t samples = static_cast<uint64_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  Database db = Workload(16, 11, 0.6, /*max_nulls=*/20);
  QueryEngine engine(db);
  EvalStats stats;
  EvalOptions options;
  options.stats = &stats;
  options.num_threads = threads;
  ProbabilisticOptions popts;
  popts.sampling.samples = samples;
  const QueryRequest req =
      QueryRequestBuilder(QueryInput::Ra(Query()))
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
  state.SetLabel("nulls=" + std::to_string(db.Nulls().size()));
  incdb_bench::ReportSamplingSweep(state, samples, threads, ci_width, stats);
}
BENCHMARK(BM_DivisionSamplingSweep)
    ->Args({1'000, 1})
    ->Args({4'000, 1})
    ->Args({4'000, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace
