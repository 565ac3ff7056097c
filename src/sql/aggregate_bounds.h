// Certain answers for aggregate queries over incomplete columns.
//
// An aggregate over a column with nulls has no single certain value; the
// right notion (following the paper's program of choosing answer semantics
// that represent knowledge faithfully) is an *interval*: the tightest
// [lo, hi] containing the aggregate's value in every possible world.
//
// Under CWA a null ranges over all of Const, so SUM/MIN/MAX/AVG bounds may
// be infinite; callers may supply a domain constraint [value_lo, value_hi]
// for null values (e.g. "amounts are between 0 and 10000"), which makes all
// bounds finite. COUNT(*) and COUNT(col) are exact: in every world the
// column is total, so both equal the row count — which exposes SQL's
// COUNT(col) (it ignores nulls) as an under-report with no world semantics.

#ifndef INCDB_SQL_AGGREGATE_BOUNDS_H_
#define INCDB_SQL_AGGREGATE_BOUNDS_H_

#include <optional>
#include <string>
#include <vector>

#include "core/value.h"
#include "sql/ast.h"
#include "util/status.h"

namespace incdb {

/// The certain interval of an aggregate. Missing lo/hi = unbounded.
struct AggInterval {
  std::optional<int64_t> lo;
  std::optional<int64_t> hi;

  bool Contains(int64_t v) const {
    return (!lo || *lo <= v) && (!hi || v <= *hi);
  }
  bool IsExact() const { return lo && hi && *lo == *hi; }
  std::string ToString() const;
};

/// Optional constraint on the values a null may take.
struct NullDomain {
  std::optional<int64_t> value_lo;
  std::optional<int64_t> value_hi;
};

/// The tightest interval containing agg(column) over every CWA world of the
/// column. Integer columns only for kSum/kAvg/kMin/kMax (strings rejected);
/// any column for the COUNT variants. kAvg bounds are the floor-truncated
/// possible averages' range. Empty column: COUNT = [0,0], others are an
/// error (SQL's NULL has no integer interval). A SUM/AVG bound outside
/// int64 is InvalidArgument.
Result<AggInterval> CertainAggregateInterval(
    const std::vector<Value>& column, AggFunc func,
    const NullDomain& domain = {});

}  // namespace incdb

#endif  // INCDB_SQL_AGGREGATE_BOUNDS_H_
