#include "engine/stats.h"

#include <cstdio>

namespace incdb {

const char* EvalOpName(EvalOp op) {
  switch (op) {
    case EvalOp::kScan:
      return "scan";
    case EvalOp::kSelect:
      return "select";
    case EvalOp::kProject:
      return "project";
    case EvalOp::kProduct:
      return "product";
    case EvalOp::kHashJoin:
      return "hash-join";
    case EvalOp::kUnion:
      return "union";
    case EvalOp::kDiff:
      return "diff";
    case EvalOp::kIntersect:
      return "intersect";
    case EvalOp::kDivide:
      return "divide";
    case EvalOp::kDelta:
      return "delta";
    case EvalOp::kSqlBlock:
      return "sql-block";
    case EvalOp::kCTableProduct:
      return "ct-product";
    case EvalOp::kCTableDiff:
      return "ct-diff";
    case EvalOp::kCTableIntersect:
      return "ct-intersect";
    case EvalOp::kCTableJoin:
      return "ct-join";
    case EvalOp::kCTableExtract:
      return "ct-extract";
  }
  return "?";
}

uint64_t EvalStats::TotalProbes() const {
  uint64_t n = 0;
  for (size_t i = 0; i < kNumEvalOps; ++i) {
    n += at(static_cast<EvalOp>(i)).probes;
  }
  return n;
}

uint64_t EvalStats::TotalTuplesIn() const {
  uint64_t n = 0;
  for (size_t i = 0; i < kNumEvalOps; ++i) {
    n += at(static_cast<EvalOp>(i)).tuples_in;
  }
  return n;
}

uint64_t EvalStats::TotalTuplesOut() const {
  uint64_t n = 0;
  for (size_t i = 0; i < kNumEvalOps; ++i) {
    n += at(static_cast<EvalOp>(i)).tuples_out;
  }
  return n;
}

uint64_t EvalStats::TotalNanos() const {
  uint64_t n = 0;
  for (size_t i = 0; i < kNumEvalOps; ++i) {
    n += at(static_cast<EvalOp>(i)).nanos;
  }
  return n;
}

std::string EvalStats::ToString() const {
  std::string out =
      "  operator      calls         in        out     probes       us\n";
  char line[160];
  for (size_t i = 0; i < kNumEvalOps; ++i) {
    const OpCounters& c = at(static_cast<EvalOp>(i));
    if (c.calls == 0 && c.tuples_in == 0 && c.tuples_out == 0 &&
        c.probes == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "  %-12s %6llu %10llu %10llu %10llu %8.1f\n",
                  EvalOpName(static_cast<EvalOp>(i)),
                  static_cast<unsigned long long>(c.calls),
                  static_cast<unsigned long long>(c.tuples_in),
                  static_cast<unsigned long long>(c.tuples_out),
                  static_cast<unsigned long long>(c.probes),
                  static_cast<double>(c.nanos) / 1e3);
    out += line;
  }
  if (delta_applied_ != 0 || delta_fallbacks_ != 0) {
    std::snprintf(line, sizeof(line),
                  "  delta-eval     applied %llu  fallbacks %llu\n",
                  static_cast<unsigned long long>(delta_applied_),
                  static_cast<unsigned long long>(delta_fallbacks_));
    out += line;
  }
  if (cond_simplified_ != 0 || unsat_pruned_ != 0) {
    std::snprintf(line, sizeof(line),
                  "  cond-norm      simplified %llu  unsat-pruned %llu\n",
                  static_cast<unsigned long long>(cond_simplified_),
                  static_cast<unsigned long long>(unsat_pruned_));
    out += line;
  }
  if (worlds_counted_ != 0 || samples_drawn_ != 0 || exact_count_hits_ != 0) {
    std::snprintf(
        line, sizeof(line),
        "  counting       worlds %llu  samples %llu  exact-hits %llu\n",
        static_cast<unsigned long long>(worlds_counted_),
        static_cast<unsigned long long>(samples_drawn_),
        static_cast<unsigned long long>(exact_count_hits_));
    out += line;
  }
  if (batches_processed_ != 0 || rows_vectorized_ != 0) {
    std::snprintf(line, sizeof(line),
                  "  vectorized     batches %llu  rows %llu\n",
                  static_cast<unsigned long long>(batches_processed_),
                  static_cast<unsigned long long>(rows_vectorized_));
    out += line;
  }
  return out;
}

}  // namespace incdb
