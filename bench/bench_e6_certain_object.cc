// E6 — certainO as greatest lower bound: intersection is not the right
// notion of certainty; the direct-product glb retains partial tuples and
// its cost grows with the number and size of the factor answers (paper,
// Sections 5.3 and 6).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_common.h"

using namespace incdb;

namespace {

// k answer-worlds for the identity query on {R(1,2), R(2,⊥)} where ⊥ takes
// k distinct values, plus `extra` shared rows.
std::vector<Database> AnswerWorlds(size_t k, size_t extra) {
  std::vector<Database> worlds;
  for (size_t i = 0; i < k; ++i) {
    Database w;
    w.AddTuple("Ans", Tuple{Value::Int(1), Value::Int(2)});
    w.AddTuple("Ans",
               Tuple{Value::Int(2), Value::Int(100 + static_cast<int64_t>(i))});
    for (size_t e = 0; e < extra; ++e) {
      w.AddTuple("Ans", Tuple{Value::Int(static_cast<int64_t>(10 + e)),
                              Value::Int(static_cast<int64_t>(10 + e))});
    }
    worlds.push_back(std::move(w));
  }
  return worlds;
}

struct Summary {
  Summary() {
    incdb_bench::TableHeader(
        "E6: certainty as object — glb (product) vs intersection",
        "the glb keeps the partial tuple (2,_) that intersection discards; "
        "intersection is not even a cwa lower bound",
        " #worlds  |glb|  has_partial  |intersection|  glb_is_lb  inter_is_"
        "cwa_lb");
    for (size_t k : {2, 3, 4}) {
      auto worlds = AnswerWorlds(k, 2);
      auto glb = CertainObjectOwa(worlds);
      if (!glb.ok()) continue;
      // Intersection answer.
      Relation inter = worlds[0].GetRelation("Ans");
      for (size_t i = 1; i < worlds.size(); ++i) {
        Relation next(inter.arity());
        for (const Tuple& t : inter.tuples()) {
          if (worlds[i].GetRelation("Ans").Contains(t)) next.Add(t);
        }
        inter = next;
      }
      Database inter_db;
      *inter_db.MutableRelation("Ans", 2) = inter;

      bool has_partial = false;
      for (const Tuple& t : glb->GetRelation("Ans").tuples()) {
        if (t.HasNull()) has_partial = true;
      }
      bool glb_is_lb = true;
      bool inter_is_cwa_lb = true;
      for (const Database& w : worlds) {
        if (!PrecedesOwa(*glb, w)) glb_is_lb = false;
        if (!PrecedesCwa(inter_db, w)) inter_is_cwa_lb = false;
      }
      std::printf("%8zu  %5zu  %11s  %14zu  %9s  %15s\n", k,
                  glb->GetRelation("Ans").size(),
                  has_partial ? "yes" : "no", inter.size(),
                  glb_is_lb ? "yes" : "NO", inter_is_cwa_lb ? "yes" : "no");
    }
    incdb_bench::TableFooter();
  }
};
const Summary kSummary;

void BM_ProductGlb(benchmark::State& state) {
  auto worlds = AnswerWorlds(static_cast<size_t>(state.range(0)),
                             static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    auto glb = CertainObjectOwa(worlds);
    benchmark::DoNotOptimize(glb);
  }
  state.SetLabel("worlds=" + std::to_string(state.range(0)) +
                 " extra_rows=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_ProductGlb)
    ->Args({2, 4})
    ->Args({3, 4})
    ->Args({4, 4})
    ->Args({2, 16})
    ->Args({3, 16});

void BM_GlbOrderingCheck(benchmark::State& state) {
  auto worlds = AnswerWorlds(3, static_cast<size_t>(state.range(0)));
  auto glb = CertainObjectOwa(worlds);
  for (auto _ : state) {
    bool all = true;
    for (const Database& w : worlds) {
      all = all && PrecedesOwa(*glb, w);
    }
    benchmark::DoNotOptimize(all);
  }
}
BENCHMARK(BM_GlbOrderingCheck)->Arg(2)->Arg(8);

// Thread sweep: the answer worlds feeding the glb come from the Gray
// world-enumeration driver (64 worlds: three nulls over a domain of four).
// The per-worker world lists are concatenated and sorted so the 4-world
// sample handed to CertainObjectOwa is identical at every thread count —
// the sweep isolates the enumeration, the glb cost is constant. "speedup"
// as in bench_e2's BM_WorldEnumerationThreads.
void BM_GlbFromEnumeratedWorlds(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Database db;
  db.AddTuple("Ans", Tuple{Value::Int(1), Value::Int(2)});
  db.AddTuple("Ans", Tuple{Value::Int(2), Value::Null(0)});
  db.AddTuple("Ans", Tuple{Value::Null(1), Value::Int(3)});
  db.AddTuple("Ans", Tuple{Value::Null(2), Value::Int(1)});
  WorldEnumOptions opts;
  opts.fresh_constants = 1;

  auto enumerate = [&](int n_threads) {
    std::vector<std::vector<Database>> per_worker(16);
    (void)ForEachValuationGrayParallel(
        db, opts, n_threads,
        [&](const Valuation& v, const ValuationDelta&, size_t wi) {
          per_worker[wi].push_back(v.Apply(db));
          return true;
        });
    std::vector<Database> worlds;
    for (auto& ws : per_worker) {
      for (auto& w : ws) worlds.push_back(std::move(w));
    }
    std::sort(worlds.begin(), worlds.end(),
              [](const Database& a, const Database& b) {
                return a.ToString() < b.ToString();
              });
    worlds.resize(std::min<size_t>(worlds.size(), 4));
    return worlds;
  };

  const double serial_seconds = incdb_bench::SecondsOf([&] {
    benchmark::DoNotOptimize(CertainObjectOwa(enumerate(1)));
  });
  double total_seconds = 0;
  for (auto _ : state) {
    total_seconds += incdb_bench::SecondsOf([&] {
      benchmark::DoNotOptimize(CertainObjectOwa(enumerate(threads)));
    });
  }
  incdb_bench::ReportThreadScaling(
      state, threads, serial_seconds,
      total_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_GlbFromEnumeratedWorlds)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
