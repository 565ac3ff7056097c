// Shared helpers for the experiment harness (bench/).

#ifndef INCDB_BENCH_BENCH_COMMON_H_
#define INCDB_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "incdb.h"

namespace incdb_bench {

/// Attaches the EvalStats counters accumulated over a benchmark run as
/// per-iteration benchmark counters, so reports show the work an iteration
/// does (probes, tuples in/out) next to its time. Call once after the timing
/// loop with the stats merged across all iterations.
inline void ReportEvalStats(benchmark::State& state,
                            const incdb::EvalStats& stats) {
  const auto rate = benchmark::Counter::kAvgIterations;
  state.counters["probes"] =
      benchmark::Counter(static_cast<double>(stats.TotalProbes()), rate);
  state.counters["tuples_in"] =
      benchmark::Counter(static_cast<double>(stats.TotalTuplesIn()), rate);
  state.counters["tuples_out"] =
      benchmark::Counter(static_cast<double>(stats.TotalTuplesOut()), rate);
}

/// Wall-clock seconds of one call to `fn`; used for the serial baselines of
/// the thread-sweep benchmarks.
template <typename Fn>
inline double SecondsOf(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Attaches the thread-sweep counters: the thread count and the speedup of
/// this run's mean iteration over the serial baseline (>1 means the
/// parallel path is faster; on a single-core host it hovers around 1).
inline void ReportThreadScaling(benchmark::State& state, int threads,
                                double serial_seconds,
                                double mean_parallel_seconds) {
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(threads));
  state.counters["speedup"] = benchmark::Counter(
      mean_parallel_seconds > 0 ? serial_seconds / mean_parallel_seconds : 0);
}

/// Attaches the backend sweep counters: which backend ran (`ctable`), the
/// condition-normalizer work per iteration (`cond_simplified` rewrites,
/// `unsat_pruned` conditions collapsed to false), and the speedup of this
/// run's mean iteration over an enumeration-backend baseline timed inline
/// just before the loop (>1 means the c-table pipeline beats enumerating
/// worlds on this instance; it grows exponentially with the null count).
inline void ReportBackendSweep(benchmark::State& state, bool ctable,
                               const incdb::EvalStats& stats,
                               double enum_seconds, double mean_seconds) {
  const auto rate = benchmark::Counter::kAvgIterations;
  state.counters["ctable"] = benchmark::Counter(ctable ? 1 : 0);
  state.counters["cond_simplified"] =
      benchmark::Counter(static_cast<double>(stats.cond_simplified()), rate);
  state.counters["unsat_pruned"] =
      benchmark::Counter(static_cast<double>(stats.unsat_pruned()), rate);
  state.counters["speedup"] = benchmark::Counter(
      mean_seconds > 0 ? enum_seconds / mean_seconds : 0);
}

/// Attaches the sampling-sweep counters: the sample count and thread count
/// the run was configured with, the mean Wilson-CI width across reported
/// tuples (`ci_width`, the precision bought per sample budget — halves per
/// 4× samples), and the counting-layer work per iteration (valuations
/// `samples_drawn`, component assignments `worlds_counted`, candidates
/// resolved exactly `exact_hits`).
inline void ReportSamplingSweep(benchmark::State& state, uint64_t samples,
                                int threads, double mean_ci_width,
                                const incdb::EvalStats& stats) {
  const auto rate = benchmark::Counter::kAvgIterations;
  state.counters["samples"] =
      benchmark::Counter(static_cast<double>(samples));
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(threads));
  state.counters["ci_width"] = benchmark::Counter(mean_ci_width);
  state.counters["samples_drawn"] = benchmark::Counter(
      static_cast<double>(stats.samples_drawn()), rate);
  state.counters["worlds_counted"] = benchmark::Counter(
      static_cast<double>(stats.worlds_counted()), rate);
  state.counters["exact_hits"] = benchmark::Counter(
      static_cast<double>(stats.exact_count_hits()), rate);
}

/// Prints a header for the experiment's summary table. Summaries are
/// emitted once, before the timing benchmarks, from a global initializer.
inline void TableHeader(const char* experiment, const char* claim,
                        const char* columns) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s\n", experiment);
  std::printf("claim: %s\n", claim);
  std::printf("----------------------------------------------------------------"
              "\n");
  std::printf("%s\n", columns);
}

inline void TableFooter() {
  std::printf("==============================================================="
              "=\n\n");
}

}  // namespace incdb_bench

#endif  // INCDB_BENCH_BENCH_COMMON_H_
