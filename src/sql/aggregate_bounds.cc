#include "sql/aggregate_bounds.h"

#include <algorithm>

namespace incdb {

std::string AggInterval::ToString() const {
  std::string s = "[";
  s += lo ? std::to_string(*lo) : "-inf";
  s += ", ";
  s += hi ? std::to_string(*hi) : "+inf";
  s += "]";
  return s;
}

namespace {

Status Overflow() {
  return Status::InvalidArgument("aggregate bound overflows int64");
}

// The SUM interval: the constants' sum plus every null at the domain's low
// (high) end; an unconstrained end stays open. A bound outside int64 is an
// error, never a wrapped value.
Result<AggInterval> SumInterval(const std::vector<int64_t>& consts,
                                int64_t null_count, const NullDomain& domain) {
  int64_t base = 0;
  for (int64_t c : consts) {
    if (__builtin_add_overflow(base, c, &base)) return Overflow();
  }
  AggInterval out;
  if (null_count == 0) {
    out.lo = out.hi = base;
    return out;
  }
  auto at_end = [&](int64_t end, std::optional<int64_t>* bound) {
    int64_t v = 0;
    if (__builtin_mul_overflow(null_count, end, &v) ||
        __builtin_add_overflow(base, v, &v)) {
      return false;
    }
    *bound = v;
    return true;
  };
  if ((domain.value_lo && !at_end(*domain.value_lo, &out.lo)) ||
      (domain.value_hi && !at_end(*domain.value_hi, &out.hi))) {
    return Overflow();
  }
  return out;
}

}  // namespace

Result<AggInterval> CertainAggregateInterval(const std::vector<Value>& column,
                                             AggFunc func,
                                             const NullDomain& domain) {
  const int64_t n = static_cast<int64_t>(column.size());
  int64_t null_count = 0;
  std::vector<int64_t> consts;
  for (const Value& v : column) {
    if (v.is_null()) {
      ++null_count;
      continue;
    }
    if (!v.is_int() && func != AggFunc::kCount &&
        func != AggFunc::kCountStar) {
      return Status::InvalidArgument(
          "aggregate bounds require integer values; got " + v.ToString());
    }
    if (v.is_int()) consts.push_back(v.as_int());
  }

  // The extremes of SUM/MIN/MAX/AVG over worlds are attained with every
  // null at its domain boundary (each aggregate is monotone in each null's
  // value), so repeated marked nulls need no special treatment.
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      // In every world the column is total: both COUNTs equal the row
      // count exactly.
      return AggInterval{n, n};
    case AggFunc::kSum: {
      if (n == 0) {
        return Status::InvalidArgument(
            "SUM over an empty column is NULL in SQL; no integer interval");
      }
      return SumInterval(consts, null_count, domain);
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (n == 0) {
        return Status::InvalidArgument(
            "MIN/MAX over an empty column is NULL in SQL; no interval");
      }
      const bool is_min = func == AggFunc::kMin;
      std::optional<int64_t> best_const;
      for (int64_t c : consts) {
        if (!best_const || (is_min ? c < *best_const : c > *best_const)) {
          best_const = c;
        }
      }
      AggInterval out;
      if (null_count == 0) {
        out.lo = out.hi = *best_const;
        return out;
      }
      if (is_min) {
        // Worst case: some null below everything; best case: all nulls at
        // their upper bound (the min is then capped by the constants).
        if (domain.value_lo) {
          out.lo = best_const ? std::min(*best_const, *domain.value_lo)
                              : *domain.value_lo;
        }
        if (best_const) {
          out.hi = domain.value_hi ? std::min(*best_const, *domain.value_hi)
                                   : *best_const;
        } else if (domain.value_hi) {
          out.hi = *domain.value_hi;
        }
      } else {
        if (domain.value_hi) {
          out.hi = best_const ? std::max(*best_const, *domain.value_hi)
                              : *domain.value_hi;
        }
        if (best_const) {
          out.lo = domain.value_lo ? std::max(*best_const, *domain.value_lo)
                                   : *best_const;
        } else if (domain.value_lo) {
          out.lo = *domain.value_lo;
        }
      }
      return out;
    }
    case AggFunc::kAvg: {
      if (n == 0) {
        return Status::InvalidArgument(
            "AVG over an empty column is NULL in SQL; no interval");
      }
      INCDB_ASSIGN_OR_RETURN(AggInterval out,
                             SumInterval(consts, null_count, domain));
      if (out.lo) *out.lo /= n;
      if (out.hi) *out.hi /= n;
      return out;
    }
    case AggFunc::kNone:
      return Status::InvalidArgument("kNone is not an aggregate");
  }
  return Status::Internal("unknown aggregate function");
}

}  // namespace incdb
