// E5 — c-tables are a strong representation system for full RA under CWA,
// at the price of condition growth under difference pipelines (paper,
// Section 2: "hardly meaningful to humans").
//
// The pipelines run on the c-table engine on codes (ctables/code_ctable.h):
// the summary reports the exported Condition trees' size beside the arena
// nodes the query built, and BM_ConditionSatisfiability decides the
// exported conditions.
//
// BM_CTableJoinProbability answers the e2e certain_ctable workload's
// probability join on the c-table backend at one thread, over an instance
// of the same shape; BM_NaiveJoin evaluates the same plan naïvely. CI's
// c-table cost gate compares the two CPU times.

#include <benchmark/benchmark.h>

#include "bench_common.h"

using namespace incdb;

namespace {

CDatabase MakeInput(size_t rows, size_t depth, uint64_t seed) {
  Rng rng(seed);
  CDatabase db;
  CTable* r = db.MutableTable("R", 1);
  NullId next = 0;
  for (size_t i = 0; i < rows; ++i) {
    r->AddRow(Tuple{Value::Int(static_cast<int64_t>(i))}, Condition::True());
  }
  for (size_t d = 0; d < depth; ++d) {
    CTable* s = db.MutableTable("S" + std::to_string(d), 1);
    for (size_t i = 0; i < rows / 2 + 1; ++i) {
      const Value v = rng.Bernoulli(0.5)
                          ? Value::Null(next++)
                          : Value::Int(rng.UniformInt(0, static_cast<int64_t>(
                                                             rows)));
      s->AddRow(Tuple{v}, Condition::True());
    }
  }
  return db;
}

RAExprPtr Pipeline(size_t depth) {
  RAExprPtr q = RAExpr::Scan("R");
  for (size_t d = 0; d < depth; ++d) {
    q = RAExpr::Diff(q, RAExpr::Scan("S" + std::to_string(d)));
  }
  return q;
}

struct Summary {
  Summary() {
    incdb_bench::TableHeader(
        "E5: c-table condition growth under iterated difference",
        "the strong representation system pays with condition size "
        "multiplying at each difference",
        " depth   rows_in  rows_out  cond_size  cond/row  arena_nodes");
    for (size_t depth : {1, 2, 3, 4, 5, 6}) {
      const CDatabase db = MakeInput(6, depth, 3);
      const RAExprPtr plan = Pipeline(depth);
      auto query = CTableQuery::Make(plan, db);
      if (!query.ok()) continue;
      auto table = (*query)->Eval(plan, db, EvalOptions{});
      if (!table.ok()) continue;
      const CTable ct = (*query)->Export(*table);
      const size_t conds = ct.TotalConditionSize();
      std::printf("%6zu  %8u  %8zu  %9zu  %8.1f  %11zu\n", depth, 6u,
                  ct.rows().size(), conds,
                  ct.rows().empty()
                      ? 0.0
                      : static_cast<double>(conds) / ct.rows().size(),
                  (*query)->arena().size());
    }
    incdb_bench::TableFooter();
  }
};
const Summary kSummary;

void BM_CTableDiffPipeline(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  CDatabase db = MakeInput(8, depth, 3);
  auto q = Pipeline(depth);
  for (auto _ : state) {
    auto ct = EvalOnCTables(q, db);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_CTableDiffPipeline)->DenseRange(1, 6, 1);

void BM_CTableJoin(benchmark::State& state) {
  // Join growth (product × selection) instead of difference.
  CDatabase db = MakeInput(static_cast<size_t>(state.range(0)), 1, 3);
  auto q = RAExpr::Project(
      {0}, RAExpr::Select(Predicate::Eq(Term::Column(0), Term::Column(1)),
                          RAExpr::Product(RAExpr::Scan("R"),
                                          RAExpr::Scan("S0"))));
  for (auto _ : state) {
    auto ct = EvalOnCTables(q, db);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_CTableJoin)->Arg(8)->Arg(32)->Arg(128);

void BM_ConditionSatisfiability(benchmark::State& state) {
  // SAT cost on the conditions produced by a depth-3 pipeline.
  CDatabase db = MakeInput(6, 3, 3);
  auto ct = EvalOnCTables(Pipeline(3), db);
  if (!ct.ok() || ct->rows().empty()) {
    state.SkipWithError("no rows to test");
    return;
  }
  for (auto _ : state) {
    for (const CTableRow& row : ct->rows()) {
      benchmark::DoNotOptimize(IsSatisfiable(row.condition));
    }
  }
}
BENCHMARK(BM_ConditionSatisfiability)->Unit(benchmark::kMillisecond);

// 150 orders over products 1..40, 120 payments with amounts 1..50, 6 of
// them on 2 shared null order ids: the shape of bench/e2e's certain_ctable
// instance. Products 39 and 40 belong only to orders no ground payment
// pays, so their probabilities are counted over the nulls' worlds.
Database OrdersAndPayments() {
  Schema schema;
  (void)schema.AddRelation("Order", {"o_id", "product"});
  (void)schema.AddRelation("Pay", {"p_id", "order_id", "amount"});
  Database db(schema);
  for (int64_t o = 1; o <= 150; ++o) {
    db.AddTuple("Order", Tuple{Value::Int(o),
                               Value::Int(o <= 140 ? 1 + o % 38 : 39 + o % 2)});
  }
  for (int64_t p = 1; p <= 120; ++p) {
    const Value order = p % 20 == 10 ? Value::Null(p < 60 ? 0 : 1)
                                     : Value::Int(1 + (p * 37) % 140);
    db.AddTuple("Pay",
                Tuple{Value::Int(p), order, Value::Int(1 + (p * 13) % 50)});
  }
  return db;
}

RAExprPtr PaidProducts() {
  return ParseRA("proj{1}(sel[#0 = #3](Order x Pay))").value();
}

void BM_CTableJoinProbability(benchmark::State& state) {
  const Database db = OrdersAndPayments();
  const RAExprPtr plan = PaidProducts();
  ProbabilisticOptions popts;
  popts.threshold = 0.5;
  WorldEnumOptions wopts;
  wopts.max_worlds = 200'000;  // incdb_serve's per-query budget
  EvalOptions eo;
  eo.num_threads = 1;
  for (auto _ : state) {
    auto r = CertainAnswersWithProbabilityCTable(
        plan, db, WorldSemantics::kClosedWorld, popts, wopts, eo);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CTableJoinProbability);

void BM_NaiveJoin(benchmark::State& state) {
  const Database db = OrdersAndPayments();
  const RAExprPtr plan = PaidProducts();
  EvalOptions eo;
  eo.num_threads = 1;
  for (auto _ : state) {
    auto r = EvalNaive(plan, db, eo);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NaiveJoin);

}  // namespace
