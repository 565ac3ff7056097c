// Text serialization for databases — a human-editable dump format used by
// the shell's save/load commands and handy for test fixtures:
//
//   # comment
//   table Order(o_id, product)
//   1, 'widget'
//   2, _0          <- marked null ⊥_0
//
//   table Pay(p_id, order_id, amount)
//   10, _0, 100
//
// Values: integers, 'single-quoted strings' ('' escapes a quote), and _k
// for marked null ⊥_k. Blank lines and `#` comments are ignored. Nulls keep
// their identifiers, so shared marked nulls round-trip exactly.
//
// This value syntax is the syntax of every text surface: RA relation
// literals and predicate constants, SQL and rule string literals, c-table
// dumps and conditions, the server's `ingest` rows and the shell's values.
// ReadValue is its one reader and Value::AppendTo (which Value::ToString
// calls) its one writer. Parse errors carry a line, a column and the token
// (util/scanner.h).

#ifndef INCDB_CORE_IO_H_
#define INCDB_CORE_IO_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/database.h"
#include "util/scanner.h"
#include "util/status.h"

namespace incdb {

/// Serializes the database (schema + tuples) to the dump format.
std::string DumpDatabase(const Database& db);

/// Parses a dump back into a database.
Result<Database> LoadDatabase(const std::string& text);

/// Appends one "| (v, ...)\n" line per row of `r`, in canonical order: the
/// result rows of incdb_serve's protocol (docs/SERVICE.md). Reads whichever
/// body `r` holds, its columns when it has them, and builds neither form;
/// the bytes equal "| " + t.ToString() + "\n" for each of r.tuples().
void AppendRows(const Relation& r, std::string* out);

/// Reads one value: an integer within int64, a 'string', or _k with k
/// within NullId.
Result<Value> ReadValue(Scanner& s);

/// A dump's table header, `<keyword> Name(attr, ...)`.
struct TableHeader {
  std::string name;
  std::vector<std::string> attributes;
};

/// Reads the header on a dump line (the scanner spans that one line) when
/// the line starts with `<keyword> `; nullopt, reading nothing, otherwise.
/// A name already in `schema` is an error.
Result<std::optional<TableHeader>> ReadTableHeader(Scanner& s,
                                                   std::string_view keyword,
                                                   const Schema& schema);

/// Reads one comma-separated row of exactly `arity` values. Stops after the
/// last value; the caller decides what may follow it.
Result<std::vector<Value>> ReadRow(Scanner& s, size_t arity);

/// Calls `fn(scanner)` for each line of a dump that is neither blank nor a
/// `#` comment, with a scanner over that line that reports whole-file line
/// numbers; stops at, and returns, the first error.
Status ForEachDumpLine(std::string_view text,
                       const std::function<Status(Scanner&)>& fn);

}  // namespace incdb

#endif  // INCDB_CORE_IO_H_
