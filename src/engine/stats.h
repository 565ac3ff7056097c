// Per-operator evaluation instrumentation.
//
// Every evaluator (naïve RA, SQL, c-tables, the certain-answer drivers)
// accepts an optional EvalOptions whose `stats` pointer, when set, receives
// per-operator counters: invocations, tuples in/out, hash probes, and
// self wall time (the operator's own loop work, excluding its children).
// Counting is off by default and costs nothing when disabled.
//
// The probe counters are the observable evidence that the columnar kernels
// do sub-quadratic work: a hash join reports one probe per probe-side row
// instead of |L|·|R| pair inspections, and counting division one divisor
// probe per dividend row.

#ifndef INCDB_ENGINE_STATS_H_
#define INCDB_ENGINE_STATS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace incdb {

/// Operators instrumented across the evaluators.
enum class EvalOp {
  kScan = 0,        ///< base-relation access (naïve RA)
  kSelect,          ///< σ (unfused)
  kProject,         ///< π
  kProduct,         ///< × (unfused — no usable equi-join key)
  kHashJoin,        ///< fused σ_{eq}(l × r) build/probe kernel
  kUnion,           ///< ∪
  kDiff,            ///< − (one membership probe per left tuple)
  kIntersect,       ///< ∩ (one membership probe per left tuple)
  kDivide,          ///< ÷ (one divisor probe per dividend tuple)
  kDelta,           ///< Δ
  kSqlBlock,        ///< one SELECT block (FROM loop; probes = index probes)
  kCTableProduct,   ///< c-table ×
  kCTableDiff,      ///< c-table − (indexed by ground tuple)
  kCTableIntersect, ///< c-table ∩ (indexed by ground tuple)
  kCTableJoin,      ///< fused c-table σ_{eq}(l × r) build/probe kernel
  kCTableExtract,   ///< certain/possible extraction from a result c-table
};

inline constexpr size_t kNumEvalOps = 16;

/// Printable operator name ("hash-join", "divide", ...).
const char* EvalOpName(EvalOp op);

/// Counters for one operator.
struct OpCounters {
  uint64_t calls = 0;       ///< operator invocations
  uint64_t tuples_in = 0;   ///< input tuples consumed (sum over children)
  uint64_t tuples_out = 0;  ///< output tuples produced (pre-dedup)
  uint64_t probes = 0;      ///< hash-table lookups performed
  uint64_t nanos = 0;       ///< self wall time (children excluded)

  void Merge(const OpCounters& o) {
    calls += o.calls;
    tuples_in += o.tuples_in;
    tuples_out += o.tuples_out;
    probes += o.probes;
    nanos += o.nanos;
  }
};

/// Per-operator counters for one (or several merged) evaluations.
class EvalStats {
 public:
  OpCounters& at(EvalOp op) { return ops_[static_cast<size_t>(op)]; }
  const OpCounters& at(EvalOp op) const {
    return ops_[static_cast<size_t>(op)];
  }

  void Merge(const EvalStats& o) {
    for (size_t i = 0; i < kNumEvalOps; ++i) ops_[i].Merge(o.ops_[i]);
    delta_applied_ += o.delta_applied_;
    delta_fallbacks_ += o.delta_fallbacks_;
    cond_simplified_ += o.cond_simplified_;
    unsat_pruned_ += o.unsat_pruned_;
    worlds_counted_ += o.worlds_counted_;
    samples_drawn_ += o.samples_drawn_;
    exact_count_hits_ += o.exact_count_hits_;
    batches_processed_ += o.batches_processed_;
    rows_vectorized_ += o.rows_vectorized_;
  }
  void Reset() { *this = EvalStats(); }

  uint64_t TotalProbes() const;
  uint64_t TotalTuplesIn() const;
  uint64_t TotalTuplesOut() const;
  uint64_t TotalNanos() const;

  /// Always 0: the world-invariant subplan cache these counted is gone.
  /// bench/e2e/layers.cc still reads both for its
  /// `engine.subplan_cache_hit_ratio` metric; the next change to that
  /// benchmark drops the metric and these two getters with it.
  uint64_t cache_hits() const { return 0; }
  uint64_t cache_misses() const { return 0; }

  /// Differential enumeration: worlds answered by applying one single-null
  /// delta instead of re-evaluating the plan / full re-evaluations the delta
  /// path fell back to (node-level recomputes, plus one per world for plans
  /// the delta evaluator rejects, e.g. those containing Δ). The split
  /// between the two depends on how the Gray chains were partitioned, so
  /// totals can differ across `num_threads` settings — answers never do.
  uint64_t delta_applied() const { return delta_applied_; }
  uint64_t delta_fallbacks() const { return delta_fallbacks_; }
  void CountDeltaApplied(uint64_t n) { delta_applied_ += n; }
  void CountDeltaFallbacks(uint64_t n) { delta_fallbacks_ += n; }

  /// Condition normalizer (c-table backend): conditions whose canonical
  /// form came out strictly smaller / conjunctions the union-find check
  /// proved unsatisfiable (rows or search branches pruned outright).
  uint64_t cond_simplified() const { return cond_simplified_; }
  uint64_t unsat_pruned() const { return unsat_pruned_; }
  void CountCondSimplified(uint64_t n) { cond_simplified_ += n; }
  void CountUnsatPruned(uint64_t n) { unsat_pruned_ += n; }

  /// Probabilistic answers (counting/): valuations the exact counter
  /// enumerated / Monte-Carlo samples the sampler drew / candidate tuples
  /// whose probability came from an exact count rather than sampling.
  uint64_t worlds_counted() const { return worlds_counted_; }
  uint64_t samples_drawn() const { return samples_drawn_; }
  uint64_t exact_count_hits() const { return exact_count_hits_; }
  void CountWorldsCounted(uint64_t n) { worlds_counted_ += n; }
  void CountSamplesDrawn(uint64_t n) { samples_drawn_ += n; }
  void CountExactCountHits(uint64_t n) { exact_count_hits_ += n; }

  /// Vectorized execution (engine/vectorized.h): column batches a kernel
  /// loop consumed / input rows those batches covered. Zero on the
  /// nested-loop reference (`use_hash_kernels = false`).
  uint64_t batches_processed() const { return batches_processed_; }
  uint64_t rows_vectorized() const { return rows_vectorized_; }
  void CountBatchesProcessed(uint64_t n) { batches_processed_ += n; }
  void CountRowsVectorized(uint64_t n) { rows_vectorized_ += n; }

  /// Multi-line table of the operators with non-zero counters.
  std::string ToString() const;

 private:
  std::array<OpCounters, kNumEvalOps> ops_{};
  uint64_t delta_applied_ = 0;
  uint64_t delta_fallbacks_ = 0;
  uint64_t cond_simplified_ = 0;
  uint64_t unsat_pruned_ = 0;
  uint64_t worlds_counted_ = 0;
  uint64_t samples_drawn_ = 0;
  uint64_t exact_count_hits_ = 0;
  uint64_t batches_processed_ = 0;
  uint64_t rows_vectorized_ = 0;
};

/// Options threaded through every evaluator.
///
/// The tuning knobs (`use_hash_kernels`, `num_threads`,
/// `parallel_row_threshold`) never change answers — only how they are
/// computed. See docs/TUTORIAL.md §"Tuning" for the one-stop description.
struct EvalOptions {
  /// When non-null, per-operator counters are accumulated here. Parallel
  /// evaluators give each worker a private EvalStats and merge them into
  /// this sink before returning, so totals stay correct (wall-time counters
  /// then sum the workers' self times, i.e. report CPU time, not elapsed).
  EvalStats* stats = nullptr;
  /// When true (the default), naïve RA runs batch-at-a-time over
  /// dictionary-encoded columns (engine/vectorized.h) and the SQL and
  /// c-table evaluators use their hash-indexed kernels. When false, every
  /// evaluator uses its straightforward nested-loop implementation: the
  /// reference semantics the kernels are property-tested against.
  bool use_hash_kernels = true;
  /// Worker threads for the parallel paths (world enumeration, chunked
  /// columnar filter and probe loops). 0 = auto (hardware_concurrency); 1
  /// runs everything on the calling thread. Results are bit-identical at
  /// every setting.
  int num_threads = 0;
  /// Columnar filter and probe loops only parallelize over at least this
  /// many input rows; below it, fan-out costs more than the scan. Tests
  /// lower it to force the parallel code paths onto small inputs.
  size_t parallel_row_threshold = 4096;
  /// Run the algebraic plan optimizer (selection/projection pushdown, σσ
  /// collapse, greedy join ordering) before evaluating RA plans. Semantics-
  /// and fragment-preserving: answers are bit-identical either way.
  bool optimize = true;
  /// In the enumeration drivers, walk the world space in Gray-code order
  /// and re-evaluate plans differentially — each single-null step patches
  /// every operator's materialized output instead of recomputing it
  /// (engine/delta_eval.h). Plans the delta evaluator rejects (those
  /// containing Δ) fall back to per-world evaluation. Answers are
  /// bit-identical either way; `stats` reports delta_applied /
  /// delta_fallbacks.
  bool delta_eval = true;
};

/// RAII scope that attributes wall time and counters to one operator.
/// All methods are no-ops when constructed with a null EvalStats.
class OpScope {
 public:
  OpScope(EvalStats* stats, EvalOp op) : stats_(stats), op_(op) {
    if (stats_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~OpScope() {
    if (stats_ == nullptr) return;
    OpCounters& c = stats_->at(op_);
    c.calls += 1;
    c.tuples_in += in_;
    c.tuples_out += out_;
    c.probes += probes_;
    c.nanos += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  void CountIn(uint64_t n) { in_ += n; }
  void CountOut(uint64_t n) { out_ += n; }
  void CountProbes(uint64_t n) { probes_ += n; }

 private:
  EvalStats* stats_;
  EvalOp op_;
  std::chrono::steady_clock::time_point start_;
  uint64_t in_ = 0;
  uint64_t out_ = 0;
  uint64_t probes_ = 0;
};

}  // namespace incdb

#endif  // INCDB_ENGINE_STATS_H_
