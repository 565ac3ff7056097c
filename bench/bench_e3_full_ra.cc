// E3 — beyond the positive fragment: difference queries. Certain answers
// are coNP-hard under CWA (enumeration blows up) and naïve evaluation is
// unsound (paper, Sections 2-3).

#include <benchmark/benchmark.h>

#include "bench_common.h"

using namespace incdb;

namespace {

Database SmallDb(uint64_t seed, size_t rows, double null_density) {
  RandomDbConfig cfg;
  cfg.arities = {2, 2};
  cfg.rows_per_relation = rows;
  cfg.domain_size = 3;
  cfg.null_density = null_density;
  cfg.null_reuse = 0.4;
  cfg.seed = seed;
  return MakeRandomDatabase(cfg);
}

RAExprPtr DiffQuery() {
  return RAExpr::Project(
      {0}, RAExpr::Diff(RAExpr::Scan("R0"), RAExpr::Scan("R1")));
}

struct Summary {
  Summary() {
    incdb_bench::TableHeader(
        "E3: full relational algebra (difference) under CWA",
        "forced naive evaluation is unsound for difference; the unsoundness "
        "rate grows with null density",
        " null_density   seeds   unsound  unsound%");
    auto q = DiffQuery();
    for (double p : {0.1, 0.2, 0.3, 0.5}) {
      size_t unsound = 0;
      const size_t kSeeds = 40;
      for (uint64_t seed = 0; seed < kSeeds; ++seed) {
        Database db = SmallDb(seed, 3, p);
        auto naive =
            CertainAnswersNaive(q, db, WorldSemantics::kClosedWorld, true);
        auto truth = CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld);
        if (!naive.ok() || !truth.ok()) continue;
        if (!(*naive == *truth)) ++unsound;
      }
      std::printf("%13.1f  %6zu  %8zu  %7.1f%%\n", p, kSeeds, unsound,
                  100.0 * static_cast<double>(unsound) / kSeeds);
    }
    incdb_bench::TableFooter();
  }
};
const Summary kSummary;

void BM_DiffCertainEnumeration(benchmark::State& state) {
  // Cost grows exponentially with instance nulls.
  Database db = SmallDb(3, static_cast<size_t>(state.range(0)), 0.3);
  auto q = DiffQuery();
  for (auto _ : state) {
    auto r = CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("nulls=" + std::to_string(db.Nulls().size()));
}
BENCHMARK(BM_DiffCertainEnumeration)->DenseRange(2, 8, 1)->Unit(
    benchmark::kMillisecond);

void BM_DiffNaiveForced(benchmark::State& state) {
  Database db = SmallDb(3, static_cast<size_t>(state.range(0)), 0.3);
  auto q = DiffQuery();
  for (auto _ : state) {
    auto r = CertainAnswersNaive(q, db, WorldSemantics::kClosedWorld, true);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DiffNaiveForced)->DenseRange(2, 8, 1);

// Thread sweep over the difference ground truth: same instance and query at
// num_threads ∈ {1, 2, 4, 8}. See BM_WorldEnumerationThreads (bench_e2) for
// how "speedup" is computed.
void BM_DiffCertainEnumerationThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Database db = SmallDb(3, 7, 0.3);
  auto q = DiffQuery();
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
BENCHMARK(BM_DiffCertainEnumerationThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Backend sweep on the difference query, where certain answers are
// coNP-hard and enumeration is the only other exact method. args encode
// (ctable, rows per relation); more rows mean more instance nulls at fixed
// density, so the enumeration baseline blows up while the c-table pipeline
// answers from one normalized conditional table. "speedup" compares this
// run's mean iteration against an enumeration baseline timed inline just
// before the loop; cond_simplified / unsat_pruned show the normalizer work
// that replaces world expansion.
void BM_DiffBackendSweep(benchmark::State& state) {
  const bool ctable = state.range(0) != 0;
  Database db = SmallDb(3, static_cast<size_t>(state.range(1)), 0.3);
  auto q = DiffQuery();
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
BENCHMARK(BM_DiffBackendSweep)
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 6})
    ->Args({1, 6})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace
