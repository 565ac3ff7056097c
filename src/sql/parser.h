// Recursive-descent parser for the supported SQL subset (see sql/ast.h).

#ifndef INCDB_SQL_PARSER_H_
#define INCDB_SQL_PARSER_H_

#include <string>

#include "sql/ast.h"
#include "util/status.h"

namespace incdb {

/// Parses a SQL query string. Errors carry the line, column and token of
/// the offending token (util/scanner.h).
Result<SqlQuery> ParseSql(const std::string& sql);

}  // namespace incdb

#endif  // INCDB_SQL_PARSER_H_
