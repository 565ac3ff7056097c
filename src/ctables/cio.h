// Text serialization for c-table databases, extending the naïve dump format
// of core/io.h with a condition column and per-table global conditions:
//
//   # incdb c-table dump
//   ctable R0(c0, c1)
//   global ~(_0 = 1)
//   1, _0 :: _0 = 2
//   2, 3
//
// A row's condition follows `::`; omitted (or empty) means `true`. The
// `global` line (optional, at most one per table, before any row) sets the
// table's global condition. Conditions use the rendering of
// Condition::ToString() — `true`, `false`, `v = v`, `~(c)`, `(c & c)`,
// `(c | c)` — with values in the core/io.h syntax (ints, 'strings' with ''
// for a quote, _k nulls), read by ReadValue and written by
// Value::ToString, so shared marked nulls and quote-bearing strings
// round-trip exactly and serialize→parse→serialize is the identity.
// Headers and rows are read by core/io.h's helpers. Parse errors name the
// line, the column within that whole line, and the token (util/scanner.h).

#ifndef INCDB_CTABLES_CIO_H_
#define INCDB_CTABLES_CIO_H_

#include <string>

#include "ctables/ctable.h"
#include "util/status.h"

namespace incdb {

/// Serializes a c-database (schema + conditioned rows) to the dump format.
std::string DumpCDatabase(const CDatabase& db);

/// Parses a dump back into a c-database.
Result<CDatabase> LoadCDatabase(const std::string& text);

/// Parses one condition in the Condition::ToString() syntax. Exposed for
/// tests and the fuzzing corpus loader. Parse errors read, e.g.,
/// "expected ')' on line 1, column 12 (at '&')" or
/// "empty condition on line 1, column 1 (at end of condition)".
Result<ConditionPtr> ParseCondition(const std::string& text);

}  // namespace incdb

#endif  // INCDB_CTABLES_CIO_H_
