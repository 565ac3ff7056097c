// Layer attribution for the traced run: spans kept in memory and written as
// Chrome trace-event JSON, and the serial layer pass that times calls into
// each layer's public functions around one request at a time.
//
// No span is recorded inside the library: every span wraps a call the
// benchmark makes (ParseSql, ParseRA, SqlToAlgebra, Classify, Optimize, the
// evaluation drivers, IncDbService::Run/Ingest) or a TCP round trip.

#ifndef INCDB_BENCH_E2E_LAYERS_H_
#define INCDB_BENCH_E2E_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/query_engine.h"
#include "workloads.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// The data lines incdb_serve writes for a response (its "| " row and "p "
/// probability-row format), so answers compare as bytes.
std::string FormatData(const incdb::QueryResponse& r);

/// Nearest-rank percentile of sorted samples (0 when there are none).
double Percentile(const std::vector<double>& sorted, double p);
/// Nearest-rank median.
double Median(std::vector<double> v);

/// 64-bit FNV-1a, for remembering long answers by digest.
uint64_t Fnv1a(const std::string& s);

struct Span {
  std::string name;
  std::string path;  ///< which evaluator answered ("naive", "worlds", ...)
  uint64_t trace_id = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  int tid = 0;
  Clock::time_point start;
  Clock::time_point end;
  double us() const {
    return std::chrono::duration<double, std::micro>(end - start).count();
  }
};

/// In-memory span store; single-threaded (merge per-thread spans after).
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}
  uint64_t Add(Span s);
  /// Chrome trace-event JSON ("X" events; ids and parent ids in args).
  bool Write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Expected data lines of the requests whose answer cannot change during a
/// run, keyed by ExpectedKey (one line is sent under several notions).
using ExpectedAnswers = std::unordered_map<std::string, std::string>;
inline std::string ExpectedKey(const MixEntry& e, const std::string& line) {
  return e.name + '\t' + line;
}

struct LayerPassConfig {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  const RequestSequence* sequence = nullptr;
  const incdb::Database* base = nullptr;
  const ExpectedAnswers* expected = nullptr;
  std::string server;
  std::vector<std::string> server_args;
  size_t max_requests = 1000;
  double budget_seconds = 10;
  /// Writer workloads: reads between two ingest batches, as measured in the
  /// concurrent pass (reads in the window / batches due in it).
  uint64_t reads_per_batch = 1;
};

struct LayerPassResult {
  std::vector<Metric> metrics;
  uint64_t requests = 0;
  uint64_t batches = 0;  ///< ingest batches replayed
  uint64_t failed = 0;
  std::string first_error;
};

/// The serial layer pass: a fresh server and an in-process IncDbService on
/// the same instance answer the first requests of the sequence one at a
/// time. A writer workload replays its batches to both every
/// `reads_per_batch` requests and runs long enough for 8 of them, budget
/// permitting. Spans go to `tracer`; every answer is
/// checked three ways (TCP vs service.run vs the decomposed layer calls; a
/// plan-cache hit instead against the miss that filled it).
LayerPassResult RunLayerPass(const LayerPassConfig& config, Tracer* tracer);

}  // namespace e2e

#endif  // INCDB_BENCH_E2E_LAYERS_H_
